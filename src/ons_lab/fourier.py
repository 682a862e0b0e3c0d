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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import IndexOutOfRange, InvalidConfig, MissingDerivative
from .kernels import KernelContext, antiderivative_kernel, dirichlet_mean
from .quadrature import QuadratureRule, cell_mesh, cumulative_integral, integrate
from .systems import (
    FunctionSpec,
    SystemHandle,
    _check_x,
    eval_matrix,
    recommended_rule,
    system_values,
)


@dataclass(frozen=True)
class CoefficientTable:
    """Fourier coefficients of one function against one system."""

    system: SystemHandle
    function: FunctionSpec
    coeffs: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.coeffs)


def coefficients(system: SystemHandle, f: FunctionSpec, n_max: int,
                 rule: Optional[QuadratureRule] = None) -> CoefficientTable:
    """Coefficients ``C_k = int_0^1 f phi_k`` for k = 1..n_max."""
    if n_max < 1:
        raise InvalidConfig(
            f"n_max: coefficient tables need n_max >= 1, got {n_max}")
    if rule is None:
        rule = recommended_rule(system, n_max, extra_breakpoints=f.breakpoints)
    elif f.breakpoints:
        rule = rule.with_breakpoints(f.breakpoints)
    nodes, weights, _ = cell_mesh((0.0, 1.0), rule, 2 * rule.panels)
    f_vals = np.broadcast_to(np.asarray(f.eval(nodes), dtype=float), nodes.shape)
    table = eval_matrix(system, n_max, nodes)
    return CoefficientTable(system, f, table @ (weights * f_vals))


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


def partial_sum_by_parts(system: SystemHandle, f: FunctionSpec, n: int, x: float,
                         rule: Optional[QuadratureRule] = None,
                         table: Optional[CoefficientTable] = None) -> ByPartsSplit:
    """Split ``S_n(x)`` into boundary and derivative kernel integrals.

    Requires ``f.deriv``.  The derivative term integrates ``f'(u)`` against
    the antiderivative kernel in the integration variable.
    """
    if f.deriv is None:
        raise MissingDerivative(f"function {f.name!r} has no derivative evaluator")
    if table is None:
        table = coefficients(system, f, n, rule)
    lhs = partial_sum(table, n, x)
    ctx = KernelContext(system, n, rule)
    quad_rule = ctx.rule.with_breakpoints(f.breakpoints) if f.breakpoints else ctx.rule
    boundary = f.value_at_1 * dirichlet_mean(ctx, x)
    deriv = f.deriv
    derivative_term = integrate(
        lambda u: np.broadcast_to(np.asarray(deriv(u), dtype=float), u.shape)
        * antiderivative_kernel(ctx, u, x), quad_rule).value
    return ByPartsSplit(lhs, boundary, derivative_term)


@dataclass(frozen=True)
class SummationIdentity:
    """Both sides of the mesh summation identity for ``int f' F``."""

    lhs: float
    term_difference: float
    term_local: float
    term_tail: float
    second_sum_upper: str

    @property
    def rhs(self) -> float:
        return self.term_difference + self.term_local + self.term_tail

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs


def summation_identity(f: FunctionSpec, F: Union[Callable, FunctionSpec], n: int,
                       second_sum_upper: str = "n",
                       rule: Optional[QuadratureRule] = None) -> SummationIdentity:
    """Evaluate ``int_0^1 f'(x) F(x) dx`` against its mesh decomposition.

    The right side is

        n * sum_{i<n} int_{cell_i} (f'(x) - f'(x + 1/n)) dx * int_0^{i/n} F
      + n * sum_{i<=U} int_{cell_i} int_{cell_i} (f'(x) - f'(u)) du F(x) dx
      + n * int_{1-1/n}^1 f' * int_0^1 F

    with ``U = n`` (exact) or ``U = n - 1`` per ``second_sum_upper``.
    """
    if f.deriv is None:
        raise MissingDerivative(f"function {f.name!r} has no derivative evaluator")
    if n < 2:
        raise InvalidConfig(f"n: summation identity needs n >= 2, got {n}")
    if second_sum_upper not in ("n", "n-1"):
        raise ValueError("second_sum_upper must be 'n' or 'n-1'")

    F_eval = F.eval if isinstance(F, FunctionSpec) else F
    F_breaks = F.breakpoints if isinstance(F, FunctionSpec) else ()
    if rule is None:
        rule = QuadratureRule(order=16, panels=8)
    rule = rule.with_breakpoints((*f.breakpoints, *F_breaks))

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
    upper = n if second_sum_upper == "n" else n - 1
    term_local = float(prod_cells[:upper].sum()
                       - n * np.dot(fp_cells[:upper], F_cells[:upper]))
    term_tail = float(n * fp_cells[-1] * F_prefix[-1])
    return SummationIdentity(lhs, term_difference, term_local, term_tail,
                             second_sum_upper)


def kernel_section(system: SystemHandle, n: int, x: float) -> Callable:
    """The antiderivative kernel as a function of ``u`` at fixed ``x``.

    Convenience for feeding kernel sections into :func:`summation_identity`.
    """
    _check_x(x)
    ctx = KernelContext(system, n)
    return lambda u: antiderivative_kernel(ctx, u, x)
