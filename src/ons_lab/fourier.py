"""Fourier coefficients, partial sums, and two exact identities.

The integration-by-parts split expresses a partial sum of a continuously
differentiable function through the two kernels:

    S_n(x) = f(1) * int_0^1 B_n(u, x) du - int_0^1 f'(u) Q_n(u, x) du

where ``B_n`` is the Dirichlet-type kernel and ``Q_n`` its antiderivative
counterpart.  The mesh summation identity rewrites ``int_0^1 f'(x) F(x) dx``
through cell averages on the uniform mesh ``i/n``; it is exact when the
local (double-integral) sum runs over all n cells, and misses an O(1/n)
remainder when that sum stops at n - 1 as sometimes printed.  Both
variants are computed so the difference can be reported.

Both terms of the split are linear in two tables, ``<f, phi_k>`` and
``<f', g_k>``, since ``Q_n(u, x) = sum_k phi_k(x) g_k(u)``.  A
:class:`KernelContext` makes each once per function, on the fine-pass
mesh of its rule, and every x reads them.  Coefficient tables carry their
system and function, which their readers take from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import IndexOutOfRange, InvalidConfig, MissingDerivative
from .kernels import KernelContext, _live_rows, _rows, _section, dirichlet_mean
from .quadrature import (QuadratureRule, _inner_breakpoints, _sample,
                         cell_integrals, cell_mesh, cumulative_integral)
from .systems import (
    FunctionSpec,
    SystemHandle,
    _check_x,
    eval_matrix,
    system_values,
)

#: Entries of one block of element rows in a dense mesh product.
_BLOCK_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class CoefficientTable:
    """Fourier coefficients of one function against one system."""

    system: SystemHandle
    function: FunctionSpec
    coeffs: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.coeffs)


def coefficients(ctx: KernelContext, f: FunctionSpec) -> CoefficientTable:
    """Coefficients ``C_k = int_0^1 f phi_k`` for k = 1..n of ``ctx``.

    Made once per context and function, on the fine-pass nodes of the
    context's rule joined by ``f.breakpoints``; later calls share the
    read-only table.  A step system is constant on each cell between its
    breakpoints, so ``f`` is integrated per cell (:func:`cell_integrals`)
    and weighed by the elements' values at the cell midpoints: an
    ``(n, cells)`` table, which the context builds once for every function.
    Any other system sums the weighted values of ``f`` against its elements
    (:func:`_mesh_table`): the system's ``mesh_coefficients`` hook on each
    segment it serves, one FFT pass per segment for the cosine family, and
    a dense product in blocks of nodes elsewhere.
    """
    return CoefficientTable(ctx.system, f, _function_table(ctx, f, 0))


def _function_table(ctx: KernelContext, f: FunctionSpec,
                    order: int) -> np.ndarray:
    """``int_0^1 f phi_k`` (order 0) or ``int_0^1 f' g_k`` (order 1) for
    k = 1..n of ``ctx``, built on first use and kept by the context."""
    key = (id(f), order)                # the entry holds f, so the id is f's
    if key not in ctx._tables:
        rule = ctx.rule.with_breakpoints(f.breakpoints)
        fn = (f.eval, f.deriv)[order]
        if order == 0 and ctx.system.piecewise_constant:
            edges = np.concatenate(([0.0], ctx.rule.breakpoints, [1.0]))
            cells = cell_integrals(fn, edges[1:], rule)
            if "midpoints" not in ctx._tables:
                ctx._tables["midpoints"] = eval_matrix(
                    ctx.system, ctx.n, (edges[:-1] + edges[1:]) / 2.0)
            table = ctx._tables["midpoints"] @ cells
        else:
            table = _mesh_table(ctx, rule, fn, order)
        table.flags.writeable = False
        ctx._tables[key] = f, table
    return ctx._tables[key][1]


def _mesh_table(ctx: KernelContext, rule: QuadratureRule, fn: Callable,
                order: int) -> np.ndarray:
    """``T[k - 1] = sum_j a_j R_k(u_j)`` with ``a_j = w_j fn(u_j)`` over the
    fine-pass mesh of ``rule``, ``cell_mesh((0, 1), rule, 2 * rule.panels)``,
    for ``R_k = phi_k`` (order 0) or ``g_k`` (order 1), k = 1..n.

    Each breakpoint segment goes to the system's ``mesh_coefficients`` hook;
    the segments it declines, or all of them without a hook, take rung
    ``order`` of :func:`_rows` in blocks of nodes, so memory stays
    O(:data:`_BLOCK_ENTRIES`) however large n and the mesh are.
    """
    nodes, weights, _ = cell_mesh((0.0, 1.0), rule, 2 * rule.panels)
    a = weights * _sample(fn, nodes)
    n, hook = ctx.n, ctx.system.mesh_coefficients
    out = np.zeros(n)
    if hook is not None:
        edges = np.concatenate(([0.0], _inner_breakpoints(rule, 0.0, 1.0),
                                [1.0]))
        # one row of each segment's nodes, by panel and Gauss node
        segments = a.reshape(len(edges) - 1, 1, 2 * rule.panels, rule.order)
        declined = np.ones(len(segments), dtype=bool)
        for s, seg in enumerate(segments):
            tables = hook(seg, edges[s], edges[s + 1], n)
            if tables is not None:
                out += tables[order][0]
                declined[s] = False
        keep = np.repeat(declined, segments[0].size)
        nodes, a = nodes[keep], a[keep]
    ks, block = np.arange(1, n + 1), max(1, _BLOCK_ENTRIES // n)
    for i in range(0, len(nodes), block):
        # numpy's pairwise sum along each row, not a BLAS product, keeps
        # the step systems' tables as close to the exact values as the
        # per-x quadrature they replace
        rows = _rows(ctx, order, ks, nodes[i:i + block])
        out += (rows * a[i:i + block]).sum(axis=1)
    return out


def partial_sum(table: CoefficientTable, n: int, x) -> float:
    """Partial sum ``sum_{k<=n} C_k phi_k(x)``."""
    if not 1 <= n <= table.n_max:
        raise IndexOutOfRange(f"n={n} outside coefficient table (1..{table.n_max})")
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim == 0:
        phi = system_values(table.system, n, float(x_arr))
        return math.fsum(table.coeffs[:n] * phi)
    for point in x_arr.flat:
        _check_x(point)
    values = eval_matrix(table.system, n, x_arr)
    return table.coeffs[:n] @ values


def partial_sum_sweep(table: CoefficientTable, x: float) -> np.ndarray:
    """All partial sums S_1(x), ..., S_{n_max}(x) in one pass."""
    phi = system_values(table.system, table.n_max, x)
    return np.cumsum(table.coeffs * phi)


@dataclass(frozen=True)
class ByPartsSplit:
    """Integration-by-parts decomposition of one partial sum."""

    partial_sum: float
    boundary_term: float
    derivative_term: float

    @property
    def residual(self) -> float:
        return self.partial_sum - (self.boundary_term - self.derivative_term)


def partial_sum_by_parts(ctx: KernelContext, table: CoefficientTable,
                         x: float) -> ByPartsSplit:
    """Split ``S_n(x)`` of ``table.function`` into boundary and derivative
    kernel integrals, with the system and n of ``ctx``.

    The table must hold the coefficients of the context's system, at least
    n of them, so one table serves every n up to its length.  Requires
    ``f.deriv``.  The derivative term ``int f'(u) Q_n(u, x) du`` is
    ``sum_k phi_k(x) <f', g_k>``, a ``math.fsum`` over the rows where
    ``phi_k(x) != 0`` of one table of ``<f', g_k>`` that the context makes
    on first use like :func:`coefficients` and shares with every x.  It
    integrates ``f'``, not ``f``, so the split's residual still compares two
    computations.
    """
    f = table.function
    if f.deriv is None:
        raise MissingDerivative(f"function {f.name!r} has no derivative evaluator")
    if table.system.name != ctx.system.name:
        raise InvalidConfig(f"table: coefficients against {table.system.name!r}"
                            f", but the context's system is {ctx.system.name!r}")
    lhs = partial_sum(table, ctx.n, x)
    boundary = f.value_at_1 * dirichlet_mean(ctx, x)
    ks, weights = _live_rows(ctx, x)
    derivative_term = math.fsum(weights * _function_table(ctx, f, 1)[ks - 1])
    return ByPartsSplit(lhs, boundary, derivative_term)


@dataclass(frozen=True)
class SummationIdentity:
    """Both sides of the mesh summation identity for ``int f' F``, with the
    local sum over all n cells and, as sometimes printed, over n - 1."""

    lhs: float
    term_difference: float
    term_local: float
    term_local_n_minus_1: float
    term_tail: float

    @property
    def rhs(self) -> float:
        return self.term_difference + self.term_local + self.term_tail

    @property
    def rhs_n_minus_1(self) -> float:
        return self.term_difference + self.term_local_n_minus_1 + self.term_tail

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    @property
    def residual_n_minus_1(self) -> float:
        return self.lhs - self.rhs_n_minus_1


def summation_identity(f: FunctionSpec, F: Union[Callable, FunctionSpec],
                       n: int) -> SummationIdentity:
    """Evaluate ``int_0^1 f'(x) F(x) dx`` against its mesh decomposition.

    The right side is

        n * sum_{i<n} int_{cell_i} (f'(x) - f'(x + 1/n)) dx * int_0^{i/n} F
      + n * sum_{i<=U} int_{cell_i} int_{cell_i} (f'(x) - f'(u)) du F(x) dx
      + n * int_{1-1/n}^1 f' * int_0^1 F

    with ``U = n`` (exact, ``rhs``) and ``U = n - 1`` (``rhs_n_minus_1``),
    both from one pass of cell integrals.
    """
    if f.deriv is None:
        raise MissingDerivative(f"function {f.name!r} has no derivative evaluator")
    if n < 2:
        raise InvalidConfig(f"n: summation identity needs n >= 2, got {n}")

    F_eval = F.eval if isinstance(F, FunctionSpec) else F
    F_breaks = F.breakpoints if isinstance(F, FunctionSpec) else ()
    rule = QuadratureRule(order=16, panels=8).with_breakpoints(
        np.concatenate((f.breakpoints, F_breaks)))

    deriv = f.deriv

    def fp_F_prod(u):
        fp = np.broadcast_to(np.asarray(deriv(u), dtype=float), u.shape)
        big_f = np.broadcast_to(np.asarray(F_eval(u), dtype=float), u.shape)
        return np.stack((fp, big_f, fp * big_f))

    grid = np.arange(1, n + 1) / n
    fp_prefix, F_prefix, prod_prefix = cumulative_integral(fp_F_prod, grid,
                                                           rule)
    fp_cells = np.diff(fp_prefix, prepend=0.0)
    F_cells = np.diff(F_prefix, prepend=0.0)
    prod_cells = np.diff(prod_prefix, prepend=0.0)

    lhs = float(prod_prefix[-1])
    # shifted difference: int_{cell_i} f'(x) - f'(x + 1/n) dx = c_i - c_{i+1}
    term_difference = float(n * np.dot(fp_cells[:-1] - fp_cells[1:],
                                       F_prefix[:-1]))
    term_local = [float(prod_cells[:upper].sum()
                        - n * np.dot(fp_cells[:upper], F_cells[:upper]))
                  for upper in (n, n - 1)]
    term_tail = float(n * fp_cells[-1] * F_prefix[-1])
    return SummationIdentity(lhs, term_difference, *term_local, term_tail)


def kernel_section(system: SystemHandle, n: int, x: float) -> Callable:
    """The antiderivative kernel as a function of ``u`` at fixed ``x``.

    Convenience for feeding kernel sections into :func:`summation_identity`.
    """
    return _section(KernelContext(system, n), x)
