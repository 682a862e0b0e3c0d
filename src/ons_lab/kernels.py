"""Partial-sum kernels and the boundedness functional.

For a system ``(phi_k)`` with antiderivatives ``g_k(u) = int_0^u phi_k``,
the two kernels evaluated here are the Dirichlet-type kernel
``sum phi_k(u) phi_k(x)`` and its antiderivative counterpart
``sum g_k(u) phi_k(x)``.  The central diagnostic is the mean of the
absolute prefix integrals of the antiderivative kernel over the uniform
mesh ``i/n``:

    (1/n) * sum_{i=1}^{n-1} | int_0^{i/n} sum_k g_k(u) phi_k(x) du |

which stays O(1) in ``n`` exactly for the well-behaved systems the
experiments target.

Rows of ``phi_k``, ``g_k`` and ``int_0^t g_k`` are the rungs 0, 1 and 2
of one ladder, :func:`_rows`: a rung's closed form, or else one
:func:`cumulative_integral` pass over the rung below with cell-sized
panels.  A kernel section of order 0, 1 or 2 (the Dirichlet-type kernel,
the antiderivative kernel, its prefix integral) sums one rung's rows where
``phi_k(x) != 0``, weighted by ``phi_k(x)``.
On the mesh ``i/n`` a system with a ``mesh_prefix`` hook skips the rows:
the hook gives all n prefixes of a block of points in closed form (one
batched real FFT for cosine, a slope and 30 periodic rows for Rademacher,
the base's hook composed for a reflection).  Any other system takes, per
point, the rows where ``phi(x)`` is nonzero; a Haar ``phi(x)`` has at most
log2(n) + 2 of them.

A :class:`KernelContext` pins ``(system, n, rule)`` and, optionally, a
set of evaluation points with their block of ``phi_k`` values.  The mesh
prefixes of all its points come from one pass over that block on first
use, and a point outside the set is a one-column block of its own.  The
quadrature rule and the points' prefixes are built on first use, so
closed-form paths never construct a rule; so is the ``(n, n)`` prefix
table, which only tests read.  Contexts are read-only after construction
apart from those caches; evaluations are pure.

Step systems with closed-form antiderivatives need no quadrature for the
kernel integrals over ``u``: ``Q_n(., x)`` is linear between breakpoints,
so the Lemma 3 cell integrals of ``|Q_n|`` are sums over its values at
breakpoints.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfig
from .quadrature import (
    IntegrationResult,
    QuadratureRule,
    _inner_breakpoints,
    cumulative_integral,
    integrate,
    integrate_abs,
)
from .systems import (SystemHandle, _check_x, eval_matrix, index_table,
                      recommended_rule, system_values)


class KernelContext:
    """Evaluation context for one ``(system, n)`` pair and its points.

    Parameters
    ----------
    system : SystemHandle
        The orthonormal system.
    n : int
        Number of leading elements entering the kernels (n >= 1).
    rule : QuadratureRule, optional
        Quadrature configuration; defaults to the system's recommended
        rule for indices up to ``n``, built when first needed.
    points : sequence of float, optional
        Evaluation points whose mesh prefixes (:meth:`prefixes`) one
        :func:`_prefix_values` pass computes together, on first use.
        Points equal as floats share a row.
    phi : ndarray, optional
        The points' block ``phi[k - 1, j] = phi_k(points[j])`` for k <= n,
        when the caller has it (a sweep slices one :func:`eval_matrix` up
        to its largest n); otherwise the points are checked and evaluated
        here.
    """

    def __init__(self, system: SystemHandle, n: int,
                 rule: Optional[QuadratureRule] = None,
                 points: Sequence[float] = (),
                 phi: Optional[np.ndarray] = None):
        if n < 1:
            raise InvalidConfig(f"n: kernel context needs n >= 1, got {n}")
        self.system = system
        self.n = int(n)
        if rule is not None:
            self.rule = rule
        if phi is None and len(points):
            for x in points:
                _check_x(x)
            phi = eval_matrix(system, self.n, points)
        self._point_index = {float(x): j for j, x in enumerate(points)}
        self._phi = phi
        self._point_prefixes = None  # prefixes at the points, (len(points), n)
        self._prefix_table = None    # int_0^{i/n} g_k, shape (n, n)

    @cached_property
    def rule(self) -> QuadratureRule:
        """Quadrature rule for indices up to ``n``, built on first access."""
        return recommended_rule(self.system, self.n)

    def g_values(self, ks: Sequence[int], us: np.ndarray) -> np.ndarray:
        """Table ``G[r, j] = g_{ks[r]}(us[j])``: rung 1 of :func:`_rows`."""
        return _rows(self, 1, ks, us)

    def prefix_table(self) -> np.ndarray:
        """``int_0^{i/n} g_k`` for every index k and mesh point i/n, cached:
        a reference for tests, read by no prefix path; ``perfbench/spans.py``
        wraps it by name and reads its slot, so it stays until that does not.
        """
        if self._prefix_table is None:
            ks = np.arange(1, self.n + 1)
            self._prefix_table = _rows(self, 2, ks, ks / self.n)
        return self._prefix_table

    def prefixes(self, x: float) -> np.ndarray:
        """Prefix integrals of the antiderivative kernel at x on the mesh
        i/n, i = 1..n: x's row of the points' prefixes, or else those of a
        one-column block of x alone; x outside [0, 1] raises."""
        j = self._point_index.get(float(x)) if self._point_index else None
        if j is None:
            return _prefix_values(
                self, system_values(self.system, self.n, x)[:, None])[0]
        if self._point_prefixes is None:
            self._point_prefixes = _prefix_values(self, self._phi)
        return self._point_prefixes[j]


def _rows(ctx: KernelContext, order: int, ks, us) -> np.ndarray:
    """Rows ``R[r, j]`` of rung ``order`` of the ladder at ``us[j]``, for
    index ``ks[r]``: ``phi_k`` (0), ``g_k = int_0^u phi_k`` (1) or
    ``int_0^u g_k`` (2).

    The one place such rows are made: the system's closed form for that
    rung, and otherwise one :func:`cumulative_integral` pass over the rung
    below, on the sorted points with the widest cell's :func:`_cell_rule`.
    """
    closed = (ctx.system.eval, ctx.system.antideriv,
              ctx.system.antideriv2)[order]
    if closed is not None:
        return index_table(closed, ks, us)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    out = np.zeros((len(ks), len(us)))
    if len(us):
        sort = np.argsort(us, kind="stable")
        ts = us[sort]
        out[:, sort] = cumulative_integral(
            partial(_rows, ctx, order - 1, ks), ts,
            _cell_rule(ctx.rule, np.diff(ts, prepend=0.0).max()))
    return out


def _cell_rule(rule: QuadratureRule, width: float) -> QuadratureRule:
    """The rule with, per breakpoint segment, the share of its panels for
    [0, 1] that falls on a cell of the given width, at least two.  A width
    that exceeds a share only by the rounding of a grid's differences keeps
    that share.  Every kernel pass over the cells of a grid takes it.
    """
    return dataclasses.replace(
        rule, panels=max(2, math.ceil(rule.panels * width * (1.0 - 1e-9))))


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def dirichlet_kernel(ctx: KernelContext, u, x: float):
    """Kernel ``sum_{k<=n} phi_k(u) phi_k(x)``."""
    return _section(ctx, x, 0)(u)


def antiderivative_kernel(ctx: KernelContext, u, x: float):
    """Kernel ``sum_{k<=n} g_k(u) phi_k(x)``."""
    return _section(ctx, x)(u)


def _section(ctx: KernelContext, x: float, order: int = 1):
    """The kernel ``sum_k R_k(u) phi_k(x)`` at x as a function of u, over
    rung ``order`` of :func:`_rows`: the Dirichlet-type kernel (0), the
    antiderivative kernel (1) or its prefix integral (2).  ``phi(x)``'s
    live rows are found once; a scalar u sums exactly."""
    ks, weights = _live_rows(ctx, x)

    def kernel(u):
        u_arr = np.asarray(u, dtype=float)
        vals = _rows(ctx, order, ks, np.atleast_1d(u_arr))
        if u_arr.ndim == 0:
            return math.fsum(vals[:, 0] * weights)
        return weights @ vals
    return kernel


def _live_rows(ctx: KernelContext, x: float):
    """Indices k with ``phi_k(x) != 0`` and those values: the only rows a
    kernel at x needs (a Haar vector has at most log2(n) + 2)."""
    phi_x = system_values(ctx.system, ctx.n, x)
    live = np.flatnonzero(phi_x)
    return live + 1, phi_x[live]


def kernel_prefix_integral(ctx: KernelContext, t: float, x: float) -> float:
    """Prefix integral ``int_0^t`` of the antiderivative kernel at x.

    A ``math.fsum`` over the rung-2 rows of :func:`_rows` where
    ``phi_k(x) != 0``.
    """
    _check_x(t, "t")
    return _section(ctx, x, 2)(t)


def boundedness_functional(ctx: KernelContext, x: float) -> float:
    """Mean absolute prefix integral of the antiderivative kernel.

    All n - 1 prefix integrals come from one pass (see
    :func:`_prefix_values`), shared by the context's points: the system's
    ``mesh_prefix`` hook, and otherwise the rows of the indices where
    ``phi(x)`` is nonzero.
    """
    if ctx.n < 2:
        raise ValueError("boundedness functional needs n >= 2")
    prefixes = ctx.prefixes(x)
    return float(np.abs(prefixes[:ctx.n - 1]).sum() / ctx.n)


def _prefix_values(ctx: KernelContext, phi: np.ndarray) -> np.ndarray:
    """Prefix integrals of the antiderivative kernel at i/n for i = 1..n, at
    every point of a block ``phi[k - 1, j] = phi_k(x_j)``; row j of the
    ``(X, n)`` result holds x_j's.

    The system's ``mesh_prefix`` hook, given ``phi(x_j)`` as contiguous
    rows; otherwise ``phi(x_j)`` times the rung-2 rows of :func:`_rows` on
    the mesh where it is nonzero, point by point.  Either way each point's
    prefixes do not depend on the others.
    """
    vecs = np.ascontiguousarray(phi.T)
    if ctx.system.mesh_prefix is not None:
        return ctx.system.mesh_prefix(vecs)
    mesh = np.arange(1, ctx.n + 1) / ctx.n
    out = np.empty_like(vecs)
    for j, phi_x in enumerate(vecs):
        live = np.flatnonzero(phi_x)
        out[j] = phi_x[live] @ _rows(ctx, 2, live + 1, mesh)
    return out


def boundedness_functional_naive(ctx: KernelContext, x: float) -> float:
    """Reference evaluation with one independent integral per prefix.

    Integrates the kernel from 0 to i/n afresh for every i by quadrature,
    ignoring closed forms and shared cell accumulation.  Quadratically
    slower than :func:`boundedness_functional`; used as its oracle.
    """
    if ctx.n < 2:
        raise ValueError("boundedness functional needs n >= 2")
    kernel = _section(ctx, x)
    total = 0.0
    for i in range(1, ctx.n):
        total += abs(integrate(kernel, ctx.rule, 0.0, i / ctx.n).value)
    return total / ctx.n


def cell_abs_integral(ctx: KernelContext, i: int, x: float) -> IntegrationResult:
    """Integral of the absolute antiderivative kernel over cell i of n.

    The kernel takes only the rows where ``phi_k(x) != 0``.  For a step
    system with closed-form ``g_k`` it is linear between the rule's
    breakpoints, so its values at the cell's edges and inner breakpoints
    give the integral exactly up to rounding (:func:`_abs_piecewise_linear`);
    the result's ``est_error`` is 0 and ``panels_used`` counts the pieces.

    Otherwise the cell ``[(i - 1)/n, i/n]`` is integrated by
    :func:`integrate_abs` with the rule's breakpoints but cell-sized panels:
    ``max(2, ceil(rule.panels / n))`` per breakpoint segment, the share of
    the panels for [0, 1] that falls on one cell (:func:`_cell_rule`).  The
    kernel's zeros in the cell are found in one sampled scan and refined
    together.
    """
    if not 1 <= i <= ctx.n:
        raise ValueError("cell index must satisfy 1 <= i <= n")
    lo, hi = (i - 1) / ctx.n, i / ctx.n
    kernel = _section(ctx, x)
    if ctx.system.exact_steps:
        edges = np.concatenate(([lo], _inner_breakpoints(ctx.rule, lo, hi),
                                [hi]))
        return IntegrationResult(_abs_piecewise_linear(edges, kernel(edges)),
                                 0.0, len(edges) - 1)
    return integrate_abs(kernel, _cell_rule(ctx.rule, 1.0 / ctx.n), lo, hi)


def _abs_piecewise_linear(edges: np.ndarray, q: np.ndarray) -> float:
    """``int |Q|`` over ``[edges[0], edges[-1]]`` for Q linear between the
    edges, with values q at them.

    A piece of width h from a to b gives ``(|a| + |b|) h / 2`` when a and b
    share a sign, and ``(a^2 + b^2) h / (2 |a - b|)`` when the zero between
    them splits it into two triangles.
    """
    a, b = q[:-1], q[1:]
    heights = np.abs(a) + np.abs(b)         # equals |a - b| where signs differ
    cross = np.sign(a) * np.sign(b) < 0.0
    heights[cross] = (a[cross] ** 2 + b[cross] ** 2) / heights[cross]
    return math.fsum(heights * np.diff(edges) / 2.0)


def dirichlet_mean(ctx: KernelContext, x: float) -> float:
    """``int_0^1`` of the Dirichlet-type kernel at x.

    Since ``g_k(1) = int_0^1 phi_k``, this is ``sum phi_k(x) g_k(1)``, the
    antiderivative kernel at u = 1: a ``math.fsum`` over the rows where
    ``phi_k(x) != 0``.
    """
    return antiderivative_kernel(ctx, 1.0, x)


def antiderivative_square_sum(system: SystemHandle, n: int, us) -> np.ndarray:
    """Values ``sum_{k<=n} g_k(u)^2`` on a grid of abscissae.

    The classical Bessel bound caps this by 1 for any orthonormal system,
    uniformly in ``n``.
    """
    table = KernelContext(system, n).g_values(range(1, n + 1), us)
    return (table ** 2).sum(axis=0)
