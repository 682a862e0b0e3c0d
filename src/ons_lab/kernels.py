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

Every prefix integral of the kernel is a weighted sum of rows
``int_0^t g_k``, one per index k, and every such row comes from
:func:`_prefix_rows` on a sorted grid of t: the closed-form second
antiderivative when the system has one, and otherwise one row-valued
:func:`cumulative_integral` pass over ``g_k`` with cell-sized panels.
On the mesh ``i/n`` the cosine system, whose second antiderivatives are
``c_k (1 - cos 2 pi k u)``, skips the rows: all n prefixes are one real
FFT of length n, O(n log n) per ``(n, x)``.  A Haar ``phi(x)`` has few
nonzero entries and takes only their rows; other systems share one
``(n, n)`` table across evaluation points.

A :class:`KernelContext` pins ``(system, n, rule)`` and caches the
prefix table shared by every evaluation point, so sweeps over ``x``
reuse one table.  The quadrature rule is built on first use, so
closed-form paths never construct it.  Contexts are read-only after
construction apart from idempotent caches guarded by a lock; evaluations
are pure.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfig
from .quadrature import (
    IntegrationResult,
    QuadratureRule,
    cumulative_integral,
    integrate,
    integrate_abs,
)
from .systems import (SystemHandle, _check_x, index_table, recommended_rule,
                      system_values)


class KernelContext:
    """Evaluation context for one ``(system, n)`` pair.

    Parameters
    ----------
    system : SystemHandle
        The orthonormal system.
    n : int
        Number of leading elements entering the kernels (n >= 1).
    rule : QuadratureRule, optional
        Quadrature configuration; defaults to the system's recommended
        rule for indices up to ``n``, built when first needed.
    """

    def __init__(self, system: SystemHandle, n: int,
                 rule: Optional[QuadratureRule] = None):
        if n < 1:
            raise InvalidConfig(f"n: kernel context needs n >= 1, got {n}")
        self.system = system
        self.n = int(n)
        self._rule = rule
        self._lock = threading.Lock()
        self._prefix_table = None    # int_0^{i/n} g_k, shape (n, n)

    @property
    def rule(self) -> QuadratureRule:
        """Quadrature rule for indices up to ``n``, built on first access."""
        with self._lock:
            if self._rule is None:
                self._rule = recommended_rule(self.system, self.n)
            return self._rule

    # -- antiderivative evaluation -------------------------------------

    def g_values(self, ks: Sequence[int], us: np.ndarray) -> np.ndarray:
        """Table ``G[r, j] = g_{ks[r]}(us[j])``, closed form or else one
        :func:`_cell_cumulative` pass with the rule for indices <= n."""
        if self.system.antideriv is not None:
            return index_table(self.system.antideriv, ks, us)
        us = np.atleast_1d(np.asarray(us, dtype=float))
        out = np.zeros((len(ks), len(us)))
        if len(us):
            order = np.argsort(us, kind="stable")
            out[:, order] = _cell_cumulative(
                partial(index_table, self.system.eval, ks), us[order],
                self.rule)
        return out

    # -- shared tables -------------------------------------------------

    def prefix_table(self) -> np.ndarray:
        """``int_0^{i/n} g_k`` for every index k and mesh point i/n, cached."""
        with self._lock:
            table = self._prefix_table
        if table is None:
            table = _prefix_rows(self, np.arange(1, self.n + 1),
                                 np.arange(1, self.n + 1) / self.n)
            with self._lock:
                self._prefix_table = table
        return table


def _prefix_rows(ctx: KernelContext, ks: np.ndarray, ts) -> np.ndarray:
    """Rows ``R[r, j] = int_0^{ts[j]} g_{ks[r]}`` on a sorted grid in [0, 1].

    The one place prefix integrals of ``g_k`` are made: the closed-form
    second antiderivative when the system has one, otherwise one
    :func:`_cell_cumulative` pass over the ``g_k`` rows.
    """
    if ctx.system.antideriv2 is not None:
        return index_table(ctx.system.antideriv2, ks, ts)
    return _cell_cumulative(partial(ctx.g_values, ks), ts, ctx.rule)


def _cell_cumulative(f, ts, rule: QuadratureRule) -> np.ndarray:
    """:func:`cumulative_integral` of f on a sorted grid with the widest
    cell's :func:`_cell_rule`."""
    return cumulative_integral(
        f, ts, _cell_rule(rule, np.diff(ts, prepend=0.0).max()))


def _cell_rule(rule: QuadratureRule, width: float) -> QuadratureRule:
    """The rule with, per breakpoint segment, the share of its panels for
    [0, 1] that falls on a cell of the given width, at least two.  A width
    that exceeds a share only by the rounding of a grid's differences keeps
    that share."""
    return dataclasses.replace(
        rule, panels=max(2, math.ceil(rule.panels * width * (1.0 - 1e-9))))


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def dirichlet_kernel(ctx: KernelContext, u, x: float):
    """Kernel ``sum_{k<=n} phi_k(u) phi_k(x)``."""
    return _live_sum(partial(index_table, ctx.system.eval),
                     *_live_rows(ctx, x), u)


def antiderivative_kernel(ctx: KernelContext, u, x: float):
    """Kernel ``sum_{k<=n} g_k(u) phi_k(x)``."""
    return _live_sum(ctx.g_values, *_live_rows(ctx, x), u)


def _live_rows(ctx: KernelContext, x: float):
    """Indices k with ``phi_k(x) != 0`` and those values: the only rows a
    kernel at x needs (a Haar vector has at most log2(n) + 2)."""
    phi_x = system_values(ctx.system, ctx.n, x)
    live = np.flatnonzero(phi_x)
    return live + 1, phi_x[live]


def _live_sum(table, ks: np.ndarray, weights: np.ndarray, u):
    """``sum_r table(ks, u)[r] * weights[r]``; a scalar u sums exactly."""
    u_arr = np.asarray(u, dtype=float)
    vals = table(ks, np.atleast_1d(u_arr))
    if u_arr.ndim == 0:
        return math.fsum(vals[:, 0] * weights)
    return weights @ vals


def kernel_prefix_integral(ctx: KernelContext, t: float, x: float) -> float:
    """Prefix integral ``int_0^t`` of the antiderivative kernel at x.

    A ``math.fsum`` over the rows of :func:`_prefix_rows` where
    ``phi_k(x) != 0``.
    """
    _check_x(t, "t")
    ks, weights = _live_rows(ctx, x)
    return math.fsum(_prefix_rows(ctx, ks, [t])[:, 0] * weights)


def boundedness_functional(ctx: KernelContext, x: float) -> float:
    """Mean absolute prefix integral of the antiderivative kernel.

    All n - 1 prefix integrals come from one pass (see
    :func:`_prefix_values`): an FFT for the cosine system, and otherwise
    the rows of the indices where ``phi(x)`` is nonzero, or the shared
    prefix table when it has no zeros.
    """
    if ctx.n < 2:
        raise ValueError("boundedness functional needs n >= 2")
    prefixes = _prefix_values(ctx, x)
    return float(np.abs(prefixes[:ctx.n - 1]).sum() / ctx.n)


def _prefix_values(ctx: KernelContext, x: float) -> np.ndarray:
    """Prefix integrals of the antiderivative kernel at i/n for i = 1..n.

    A system whose second antiderivative is ``c_k (1 - cos 2 pi k u)``
    takes one real DFT of ``c_k phi_k(x)``.  Otherwise the prefixes are
    ``phi(x)`` times rows of :func:`_prefix_rows` on the mesh: a
    ``phi(x)`` with zeros (a Haar vector has at most log2(n) + 2 nonzero
    entries) takes only the rows of its nonzero entries, and a
    full-support one the shared table.
    """
    phi_x = system_values(ctx.system, ctx.n, x)
    if ctx.system.antideriv2_cos is not None:
        return _cosine_prefix_values(ctx, phi_x)
    live = np.flatnonzero(phi_x)
    if len(live) < ctx.n:
        return phi_x[live] @ _prefix_rows(ctx, live + 1,
                                         np.arange(1, ctx.n + 1) / ctx.n)
    return ctx.prefix_table().T @ phi_x


def _cosine_prefix_values(ctx: KernelContext, phi_x: np.ndarray) -> np.ndarray:
    # P_i = sum_k w_k (1 - cos(2 pi k i / n)) with w_k = c_k phi_k(x): placing
    # w_k at k mod n makes Re DFT(w)[i] the cosine sum, and a real input's DFT
    # is symmetric, so rfft gives every i.  The plain sum is taken directly,
    # because DFT(w)[0] carries the FFT's larger roundoff at prime n.
    n = ctx.n
    w = ctx.system.antideriv2_cos(np.arange(1, n + 1)) * phi_x
    re = np.fft.rfft(np.concatenate((w[-1:], w[:-1]))).real
    return w.sum() - np.concatenate((re[1:], re[(n + 1) // 2 - 1:0:-1], re[:1]))


def boundedness_functional_naive(ctx: KernelContext, x: float) -> float:
    """Reference evaluation with one independent integral per prefix.

    Integrates the kernel from 0 to i/n afresh for every i by quadrature,
    ignoring closed forms and shared cell accumulation.  Quadratically
    slower than :func:`boundedness_functional`; used as its oracle.
    """
    if ctx.n < 2:
        raise ValueError("boundedness functional needs n >= 2")
    total = 0.0
    for i in range(1, ctx.n):
        res = integrate(lambda u: antiderivative_kernel(ctx, u, x),
                        ctx.rule, 0.0, i / ctx.n)
        total += abs(res.value)
    return total / ctx.n


def cell_abs_integral(ctx: KernelContext, i: int, x: float) -> IntegrationResult:
    """Integral of the absolute antiderivative kernel over cell i of n.

    The cell ``[(i - 1)/n, i/n]`` is integrated by :func:`integrate_abs`
    with the rule's breakpoints but cell-sized panels: ``max(2,
    ceil(rule.panels / n))`` per breakpoint segment, the share of the
    panels for [0, 1] that falls on one cell (:func:`_cell_rule`).  The
    kernel's zeros in the cell are found in one sampled scan and refined
    together, and the kernel takes only the rows where ``phi_k(x) != 0``.
    """
    if not 1 <= i <= ctx.n:
        raise ValueError("cell index must satisfy 1 <= i <= n")
    rows = _live_rows(ctx, x)
    return integrate_abs(lambda u: _live_sum(ctx.g_values, *rows, u),
                         _cell_rule(ctx.rule, 1.0 / ctx.n),
                         (i - 1) / ctx.n, i / ctx.n)


def dirichlet_mean(ctx: KernelContext, x: float) -> float:
    """Quadrature value of ``int_0^1`` of the Dirichlet-type kernel at x."""
    return integrate(lambda u: dirichlet_kernel(ctx, u, x), ctx.rule).value


def antiderivative_square_sum(system: SystemHandle, n: int, us) -> np.ndarray:
    """Values ``sum_{k<=n} g_k(u)^2`` on a grid of abscissae.

    The classical Bessel bound caps this by 1 for any orthonormal system,
    uniformly in ``n``.
    """
    table = KernelContext(system, n).g_values(range(1, n + 1), us)
    return (table ** 2).sum(axis=0)
