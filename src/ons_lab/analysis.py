"""Boundedness diagnostics, sweep experiments, and extremal functions.

A sequence of nonnegative diagnostics indexed by ``n`` is summarized by a
:class:`GrowthReport`: its running maximum, a least-squares slope of that
maximum against ``log n`` over the top half of the range, and a
three-way classification.  The classification is evidence, never proof:
O(1) versus divergence cannot be decided from finitely many indices, so
the thresholds are explicit and overridable.
The Theorem 3 pairing split reads the mesh prefixes of ``Q_n(., t)`` that
the ``M_n(t)`` sweep reads, and integrates only the direct pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfig
from .fourier import CoefficientTable, coefficients, partial_sum_sweep
from .kernels import (
    KernelContext,
    _cell_rule,
    _live_rows,
    _rows,
    _section,
    boundedness_functional,
)
from .quadrature import cell_integrals
from .systems import (
    FunctionSpec,
    SystemHandle,
    _check_x,
    eval_matrix,
    get_function,
    system_values,
)

DEFAULT_X_GRID = (0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0)


@dataclass(frozen=True)
class ClassificationThresholds:
    """Cutoffs for the bounded / growing / inconclusive decision.

    ``zero_floor`` is an absolute slack under which a running-maximum rise
    counts as flat; it keeps roundoff-scale noise on numerically zero
    sequences from blocking the plateau test.
    """

    slope_bounded: float = 0.05
    slope_growing: float = 0.5
    plateau_rise: float = 0.01
    zero_floor: float = 1e-12


@dataclass(frozen=True)
class GrowthReport:
    """Diagnostic sequence with a boundedness classification.

    ``slope_log`` is the least-squares slope of the running maximum
    against ``log n`` over the top half of the index range;
    ``bound_estimate`` is the largest diagnostic value seen.
    """

    label: str
    indices: tuple[int, ...]
    values: tuple[float, ...]
    running_max: tuple[float, ...]
    classification: str
    bound_estimate: float
    slope_log: float


def growth_report(label: str, indices: Sequence[int], values: Sequence[float],
                  thresholds: Optional[ClassificationThresholds] = None
                  ) -> GrowthReport:
    """Classify a nonnegative diagnostic sequence.

    Bounded requires both a flat log-slope and a running maximum that
    rises less than ``plateau_rise`` over the last quarter of the range;
    a steep log-slope classifies as growing; anything else, including
    sequences too short to fit, is inconclusive.  A NaN or infinite value
    raises :class:`InvalidConfig`: no classification describes it.
    """
    th = thresholds or ClassificationThresholds()
    idx = tuple(int(i) for i in indices)
    vals = np.asarray(values, dtype=float)
    if len(idx) != len(vals) or len(idx) == 0:
        raise ValueError("indices and values must be equal-length and non-empty")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise InvalidConfig(f"{label}: non-finite value {vals[bad[0]]} at "
                            f"n={idx[bad[0]]}")
    rm = np.maximum.accumulate(vals)

    if len(idx) >= 4:
        half = len(idx) // 2
        design = np.vstack([np.log(np.asarray(idx[half:], dtype=float)),
                            np.ones(len(idx) - half)]).T
        slope = float(np.linalg.lstsq(design, rm[half:], rcond=None)[0][0])
        q = (3 * len(idx)) // 4
        plateau = (rm[-1] - rm[q - 1]) <= (th.plateau_rise * rm[q - 1]
                                           + th.zero_floor)
        if slope < th.slope_bounded and plateau:
            classification = "bounded"
        elif slope > th.slope_growing:
            classification = "growing"
        else:
            classification = "inconclusive"
    else:
        slope = 0.0
        classification = "inconclusive"

    return GrowthReport(label, idx, tuple(float(v) for v in vals),
                        tuple(float(v) for v in rm), classification,
                        float(rm[-1]), slope)


# ---------------------------------------------------------------------------
# pointwise diagnostics
# ---------------------------------------------------------------------------

def square_sum_ratio(system: SystemHandle, x: float, n_max: int,
                     thresholds: Optional[ClassificationThresholds] = None
                     ) -> GrowthReport:
    """Rescaled square sums ``n^{1/2} * n^{-2} * sum_{k<=n} phi_k(x)^2``.

    For any orthonormal system this stays bounded at almost every point;
    probing it flags evaluation points where kernel mass concentrates.
    """
    phi = system_values(system, n_max, x)
    ns = np.arange(1, n_max + 1, dtype=float)
    vals = np.cumsum(phi ** 2) * ns ** -1.5
    return growth_report(f"square-sum-ratio[{system.name}, x={x:g}]",
                         np.arange(1, n_max + 1), vals, thresholds)


def partial_sum_boundedness(table: CoefficientTable, x: float,
                            thresholds: Optional[ClassificationThresholds] = None
                            ) -> GrowthReport:
    """Sequence ``|S_n(x, f)|`` for n = 1..n_max of the table, classified."""
    vals = np.abs(partial_sum_sweep(table, x))
    return growth_report(
        f"partial-sums[{table.system.name}, {table.function.name}, x={x:g}]",
        np.arange(1, table.n_max + 1), vals, thresholds)


# ---------------------------------------------------------------------------
# boundedness-functional sweeps
# ---------------------------------------------------------------------------

def boundedness_values(system: SystemHandle, x_grid: Sequence[float],
                       n_max: int) -> np.ndarray:
    """Matrix ``M[j, i]`` of the boundedness functional at x_grid[j], n = 2 + i.

    Every point is checked, and ``phi`` evaluated at the grid up to n_max,
    once.  The kernel context of each ``n`` holds the grid and the first n
    rows of that block, so one prefix pass per index serves every point.
    """
    if n_max < 2:
        raise InvalidConfig(
            f"n_max: boundedness sweeps need n_max >= 2, got {n_max}")
    xs = list(x_grid)
    for x in xs:
        _check_x(x)
    phi = eval_matrix(system, n_max, xs)
    out = np.empty((len(xs), n_max - 1))
    for i, n in enumerate(range(2, n_max + 1)):
        ctx = KernelContext(system, n, points=xs, phi=phi[:n])
        out[:, i] = [boundedness_functional(ctx, x) for x in xs]
    return out


def boundedness_experiment(system: SystemHandle,
                           x_grid: Sequence[float] = DEFAULT_X_GRID,
                           n_max: int = 512,
                           thresholds: Optional[ClassificationThresholds] = None
                           ) -> dict[float, GrowthReport]:
    """Boundedness-functional sweep over a grid of evaluation points."""
    matrix = boundedness_values(system, x_grid, n_max)
    ns = np.arange(2, n_max + 1)
    return {
        float(x): growth_report(f"boundedness[{system.name}, x={x:g}]",
                                ns, matrix[j], thresholds)
        for j, x in enumerate(x_grid)
    }


def inverse_square_root_sum(ns) -> np.ndarray:
    """The shape bound ``sqrt(sum_{k<=n} k^-2)`` for each n in ``ns``."""
    ns = np.atleast_1d(np.asarray(ns, dtype=int))
    n_top = int(ns.max())
    csum = np.cumsum(1.0 / np.arange(1, n_top + 1, dtype=float) ** 2)
    return np.sqrt(csum[ns - 1])


# ---------------------------------------------------------------------------
# hypothesis-to-conclusion transfer experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferCase:
    """One evaluation point of the boundedness transfer experiment."""

    x: float
    constant_report: GrowthReport
    identity_report: GrowthReport
    functional_report: GrowthReport
    target_report: GrowthReport
    hypothesis_bounded: bool
    conclusion_bounded: bool
    consistent: bool


def boundedness_transfer(system: SystemHandle, f: FunctionSpec,
                         x_grid: Sequence[float], n_max: int,
                         thresholds: Optional[ClassificationThresholds] = None
                         ) -> list[TransferCase]:
    """Probe: bounded partial sums of 1 and u plus a bounded functional
    should transfer boundedness to any function with a Lipschitz
    derivative.

    An unmet hypothesis or an inconclusive conclusion yields
    ``consistent=True`` vacuously or ``False`` only when the hypothesis
    holds and the conclusion is classified growing/inconclusive; failures
    at small ``n_max`` therefore read as evidence gaps, not errors.  The
    three coefficient tables share one context, and so its rule.
    """
    if f.class_tag != "CL":
        raise ValueError("transfer experiment expects a function with "
                         "a Lipschitz derivative (class_tag='CL')")
    ctx = KernelContext(system, n_max)
    q_table, p_table, f_table = (coefficients(ctx, g) for g in (
        get_function("one"), get_function("id"), f))
    m_reports = boundedness_experiment(system, x_grid, n_max, thresholds)

    cases = []
    for x in x_grid:
        q_rep = partial_sum_boundedness(q_table, x, thresholds)
        p_rep = partial_sum_boundedness(p_table, x, thresholds)
        m_rep = m_reports[float(x)]
        f_rep = partial_sum_boundedness(f_table, x, thresholds)
        hypothesis = all(rep.classification == "bounded"
                         for rep in (q_rep, p_rep, m_rep))
        conclusion = f_rep.classification == "bounded"
        cases.append(TransferCase(
            x=float(x),
            constant_report=q_rep,
            identity_report=p_rep,
            functional_report=m_rep,
            target_report=f_rep,
            hypothesis_bounded=hypothesis,
            conclusion_bounded=conclusion,
            consistent=(not hypothesis) or conclusion,
        ))
    return cases


# ---------------------------------------------------------------------------
# prefix-mean linkage diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkageReport:
    """Growth reports tied by the by-parts identity for the function u -> u.

    That identity makes the partial sum equal the Dirichlet-kernel mean
    minus the antiderivative-kernel mean, so if the former stays bounded
    while the latter grows, the partial sums must grow with it.
    """

    dirichlet_report: GrowthReport
    antiderivative_report: GrowthReport
    identity_report: GrowthReport
    consistent: bool


def prefix_mean_linkage(system: SystemHandle, x: float, n_max: int,
                        thresholds: Optional[ClassificationThresholds] = None
                        ) -> LinkageReport:
    """Diagnostic-level check of the mean-kernel linkage at one point.

    The means are ``int_0^1 phi_k = g_k(1)`` and the prefix rows at 1.
    """
    phi_x = system_values(system, n_max, x)
    ctx = KernelContext(system, n_max)
    ks = np.arange(1, n_max + 1)
    phi_means = ctx.g_values(ks, [1.0])[:, 0]
    g_means = _rows(ctx, 2, ks, [1.0])[:, 0]
    b_vals = np.abs(np.cumsum(phi_means * phi_x))
    q_vals = np.abs(np.cumsum(g_means * phi_x))
    ns = np.arange(1, n_max + 1)
    b_rep = growth_report(f"dirichlet-mean[{system.name}, x={x:g}]",
                          ns, b_vals, thresholds)
    q_rep = growth_report(f"antiderivative-mean[{system.name}, x={x:g}]",
                          ns, q_vals, thresholds)
    p_rep = partial_sum_boundedness(coefficients(ctx, get_function("id")), x,
                                    thresholds)
    premise = (b_rep.classification == "bounded"
               and q_rep.classification == "growing")
    consistent = (not premise) or p_rep.classification == "growing"
    return LinkageReport(b_rep, q_rep, p_rep, consistent)


# ---------------------------------------------------------------------------
# extremal Lipschitz construction
# ---------------------------------------------------------------------------

def extremal_lipschitz(ctx: KernelContext, t: float,
                       grid_size: int = 1024) -> FunctionSpec:
    """Worst-case Lipschitz-1 function for the kernel pairing at ``t``.

    Integrates the sign of the kernel prefix integral: the slope at each
    point pushes the pairing ``int f * Q(., t)`` toward its supremum over
    the unit Lipschitz ball.  Returned as a piecewise-linear interpolant
    on a uniform grid; ``sign(0)`` is taken as 0, which keeps the
    Lipschitz modulus at most 1 exactly.  A prefix within the rounding
    bound of its dot product, ``4 n eps sum_k |phi_k(t) A2_k(y)|`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 3.1), counts as
    0, so the slopes do not follow the summation order's rounding noise.
    """
    if grid_size < 64:
        raise InvalidConfig(f"grid_size: extremal construction needs "
                            f"grid_size >= 64, got {grid_size}")
    _check_x(t, "t")
    ys = np.linspace(0.0, 1.0, grid_size + 1)
    ks, phi_t = _live_rows(ctx, t)
    rows = _rows(ctx, 2, ks, ys)
    prefix = rows.T @ phi_t
    noise = 4 * ctx.n * np.finfo(float).eps * (np.abs(rows.T) @ np.abs(phi_t))
    slopes = np.where(np.abs(prefix) <= noise, 0.0, np.sign(prefix))
    step = 1.0 / grid_size
    values = np.concatenate([[0.0],
                             np.cumsum((slopes[:-1] + slopes[1:]) / 2.0 * step)])

    def interpolant(u):
        return np.interp(np.asarray(u, dtype=float), ys, values)

    return FunctionSpec(
        name=f"extremal[{ctx.system.name}, n={ctx.n}, t={t:g}]",
        eval=interpolant,
        deriv=None,
        class_tag="Lip1",
        breakpoints=ys[1:-1],
    )


@dataclass(frozen=True)
class PairingSplit:
    """Kernel pairing with its summation-by-parts decomposition."""

    direct: float
    boundary_sum: float
    local_sum: float
    tail_term: float

    @property
    def split_total(self) -> float:
        return self.boundary_sum + self.local_sum + self.tail_term

    @property
    def residual(self) -> float:
        return self.direct - self.split_total


def pairing_split(ctx: KernelContext, f: FunctionSpec, t: float) -> PairingSplit:
    """Decompose ``int_0^1 f(u) Q(u, t) du`` over the mesh ``i/n``.

    The three pieces are the Abel-summed boundary differences against the
    prefix integrals, the within-cell variation term, and the endpoint
    term ``f(1) * int_0^1 Q``; their sum reproduces the direct pairing
    exactly in exact arithmetic.  The prefixes ``int_0^{i/n} Q`` are the
    context's mesh prefixes, bit for bit those of the sweep's ``M_n(t)``;
    the direct pairing is one quadrature pass with cell-sized panels.
    """
    _check_x(t, "t")
    n = ctx.n
    rule = _cell_rule(ctx.rule, 1.0 / n).with_breakpoints(f.breakpoints)
    grid = np.arange(1, n + 1) / n
    kernel = _section(ctx, t)
    q_prefix = ctx.prefixes(t)
    f_grid = np.asarray(f.eval(grid), dtype=float)

    direct = float(cell_integrals(
        lambda u: np.asarray(f.eval(u), dtype=float) * kernel(u),
        grid, rule).sum())
    boundary = float(np.dot(f_grid[:-1] - f_grid[1:], q_prefix[:-1]))
    local = direct - float(np.dot(f_grid, np.diff(q_prefix, prepend=0.0)))
    tail = float(f.value_at_1 * q_prefix[-1])
    return PairingSplit(direct, boundary, local, tail)


def extremal_pairing_sweep(system: SystemHandle, t: float,
                           n_values: Sequence[int], grid_size: int = 1024,
                           thresholds: Optional[ClassificationThresholds] = None):
    """Pairing of each extremal function with its own kernel, per index.

    Returns the list of (n, FunctionSpec, PairingSplit) plus a growth
    report of the absolute pairing values.
    """
    rows = []
    for n in n_values:
        ctx = KernelContext(system, n)
        f_n = extremal_lipschitz(ctx, t, grid_size)
        rows.append((int(n), f_n, pairing_split(ctx, f_n, t)))
    report = growth_report(
        f"extremal-pairing[{system.name}, t={t:g}]",
        [r[0] for r in rows], [abs(r[2].direct) for r in rows], thresholds)
    return rows, report
