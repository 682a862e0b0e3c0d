"""Breakpoint-aware Gauss-Legendre quadrature on subintervals of [0, 1].

Every inner product, Fourier coefficient and kernel integral in the
library goes through :func:`integrate`, so the machinery is deliberately
plain: fixed-order Gauss-Legendre panels laid uniformly between declared
breakpoints, with the error estimated by re-running at twice the panel
count.  Piecewise-constant integrands whose jumps are declared as
breakpoints are integrated exactly up to rounding; smooth oscillatory
integrands converge spectrally once the panel width resolves the
oscillation.

Every node set comes from :func:`cell_mesh`, which lays those panels
over the cells of a grid.

Integrands must accept a numpy array of abscissae and return values of
the same shape (scalar returns are broadcast).  All functions here are
pure and safe for concurrent use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInterval, NonFiniteIntegrand

#: Default absolute-error target for integrands built from smooth systems.
SMOOTH_ABS_TOL = 1e-10

#: Default absolute-error target when all jumps are declared as breakpoints.
PIECEWISE_ABS_TOL = 1e-13

# Nodes per integrand call in cumulative_integral.  Kernel integrands build an
# (n, nodes) table, which for a whole sign-system mesh (2^16 breakpoints)
# takes gigabytes; blocks that fit in cache also measured fastest.
_SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Configuration for composite Gauss-Legendre integration.

    Parameters
    ----------
    order : int
        Gauss-Legendre points per panel (>= 2).  A rule of order ``p``
        integrates polynomials of degree ``2p - 1`` exactly per panel.
    panels : int
        Uniform panels laid between each pair of adjacent breakpoints.
    breakpoints : tuple of float
        Strictly increasing points in [0, 1] that every panel boundary
        must respect; declare jump or kink locations here.
    abs_tol : float
        Target absolute error, used as the reference for the estimate
        reported by :func:`integrate`.
    """

    order: int = 16
    panels: int = 1
    breakpoints: tuple[float, ...] = ()
    abs_tol: float = SMOOTH_ABS_TOL

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        pts = tuple(float(p) for p in self.breakpoints)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if pts and (pts[0] < 0.0 or pts[-1] > 1.0):
            raise ValueError("breakpoints must lie within [0, 1]")
        object.__setattr__(self, "breakpoints", pts)

    def with_breakpoints(self, extra: Iterable[float]) -> "QuadratureRule":
        """Return a copy whose breakpoint set also contains ``extra``."""
        merged = np.unique(np.concatenate([
            np.asarray(self.breakpoints, dtype=float),
            np.asarray(list(extra), dtype=float),
        ]))
        merged = merged[(merged >= 0.0) & (merged <= 1.0)]
        return dataclasses.replace(self, breakpoints=tuple(merged))


@dataclass(frozen=True)
class IntegrationResult:
    """Value of an integral together with a refinement-based error estimate."""

    value: float
    est_error: float
    panels_used: int


@lru_cache(maxsize=64)
def _gauss_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_points(edges: np.ndarray, order: int, panels: int):
    """Nodes and weights for `panels` uniform panels inside each segment."""
    xs, ws = _gauss_nodes(order)
    width = np.repeat(np.diff(edges) / panels, panels)
    lo = np.repeat(edges[:-1], panels) + width * (np.arange(len(width)) % panels)
    half = width / 2
    nodes = ((lo + half)[:, None] + half[:, None] * xs).ravel()
    weights = (half[:, None] * ws).ravel()
    return nodes, weights


def cell_mesh(grid: Sequence[float], rule: QuadratureRule, panels: int):
    """Gauss-Legendre nodes covering the cells between consecutive grid points.

    Each cell ``[grid[j], grid[j + 1]]`` is split at the breakpoints of
    ``rule`` that lie strictly inside it, and each piece gets ``panels``
    uniform panels of ``rule.order`` nodes.  The grid must be sorted
    within [0, 1]; repeated points make empty cells.

    Returns
    -------
    nodes, weights : ndarray
        Abscissae in ascending order and their weights.
    starts : ndarray of int
        ``starts[j]`` is the index of the first node of cell j, so
        ``np.add.reduceat(weights * f(nodes), starts)`` sums each cell.  An
        empty cell has the start of the next one, and ``reduceat`` gives it
        a value that the caller must discard.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or len(pts) < 2:
        raise InvalidInterval("grid must be a 1-d sequence of at least two points")
    if not 0.0 <= pts[0] <= pts[-1] <= 1.0:
        raise InvalidInterval("grid must lie within [0, 1]")
    if not (pts[1:] >= pts[:-1]).all():     # also rejects NaN
        raise InvalidInterval("grid must be sorted ascending")
    bps = np.asarray(rule.breakpoints, dtype=float)
    inner = bps[np.searchsorted(bps, pts[0], "right"):
                np.searchsorted(bps, pts[-1], "left")]
    edges = np.sort(np.concatenate((pts, inner)))
    edges = edges[np.concatenate(([True], edges[1:] > edges[:-1]))]
    nodes, weights = _panel_points(edges, rule.order, panels)
    starts = np.searchsorted(edges, pts[:-1]) * (panels * rule.order)
    return nodes, weights, starts


def _sample(f: Callable, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        vals = np.broadcast_to(vals, nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return vals


def integrate(f: Callable, rule: QuadratureRule,
              a: float = 0.0, b: float = 1.0) -> IntegrationResult:
    """Integrate ``f`` over ``[a, b]`` inside [0, 1].

    The value is computed with ``2 * rule.panels`` uniform panels between
    adjacent breakpoints and the reported error estimate is the difference
    against the single-refinement coarse pass.  No further adaptivity is
    attempted.

    Raises
    ------
    InvalidInterval
        If ``a > b`` or the interval leaves [0, 1].
    NonFiniteIntegrand
        If ``f`` evaluates to NaN or infinity at a quadrature node.
    """
    if a > b:
        raise InvalidInterval(f"empty interval: a={a} > b={b}")
    if a < 0.0 or b > 1.0:
        raise InvalidInterval(f"interval [{a}, {b}] leaves [0, 1]")
    if a == b:
        return IntegrationResult(0.0, 0.0, 1)

    coarse_nodes, coarse_w, _ = cell_mesh((a, b), rule, rule.panels)
    fine_nodes, fine_w, _ = cell_mesh((a, b), rule, 2 * rule.panels)
    coarse = float(np.dot(coarse_w, _sample(f, coarse_nodes)))
    fine = float(np.dot(fine_w, _sample(f, fine_nodes)))
    return IntegrationResult(fine, abs(fine - coarse),
                             len(fine_nodes) // rule.order)


def cumulative_integral(f: Callable, grid: Sequence[float],
                        rule: QuadratureRule) -> np.ndarray:
    """Antiderivative values ``F(t_j) = int_0^{t_j} f`` on a sorted grid.

    The cells of ``(0, *grid)`` get the nodes of the fine pass of
    :func:`integrate` (``2 * rule.panels`` panels per breakpoint segment);
    ``f`` is sampled over that whole mesh, in blocks of nodes, summed per
    cell and prefix-summed.  No error estimate is formed.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise InvalidInterval("grid must be a non-empty 1-d sequence")
    nodes, weights, starts = cell_mesh(np.concatenate([[0.0], pts]), rule,
                                       2 * rule.panels)
    cells = np.zeros(len(pts))
    filled = np.diff(starts, append=len(nodes)) > 0
    if np.any(filled):
        vals = np.concatenate([_sample(f, nodes[i:i + _SAMPLE_BLOCK])
                               for i in range(0, len(nodes), _SAMPLE_BLOCK)])
        cells[filled] = np.add.reduceat(weights * vals, starts[filled])
    return np.cumsum(cells)


def integrate_abs(f: Callable, rule: QuadratureRule,
                  a: float = 0.0, b: float = 1.0,
                  scan_points: int = 256) -> IntegrationResult:
    """Integrate ``|f|`` over ``[a, b]`` with sign-change refinement.

    Zeros of ``f`` are bracketed on a uniform scan of ``scan_points``
    samples per breakpoint segment, refined with Brent's method, and added
    to the breakpoint set so that every panel sees a single-signed smooth
    integrand.  Tight zero pairs below the scan resolution degrade the
    estimate gracefully rather than failing.
    """
    if a > b:
        raise InvalidInterval(f"empty interval: a={a} > b={b}")
    if a == b:
        return IntegrationResult(0.0, 0.0, 1)
    # imported here: scipy.optimize dominates the import time of the package
    from scipy.optimize import brentq

    def scalar_f(t: float) -> float:
        return float(np.asarray(f(np.array([t])), dtype=float).ravel()[0])

    edges = np.array([a, *[p for p in rule.breakpoints if a < p < b], b],
                     dtype=float)
    zeros = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ts = np.linspace(lo, hi, scan_points + 1)
        vals = _sample(f, ts)
        signs = np.sign(vals)
        for j in range(scan_points):
            if signs[j] != 0 and signs[j + 1] != 0 and signs[j] != signs[j + 1]:
                # re-evaluate pointwise: vectorized and scalar summation
                # orders can disagree in the last ulp near a zero
                fa, fb = scalar_f(ts[j]), scalar_f(ts[j + 1])
                if fa == 0.0:
                    zeros.append(ts[j])
                elif fb == 0.0:
                    zeros.append(ts[j + 1])
                elif (fa > 0.0) != (fb > 0.0):
                    zeros.append(brentq(scalar_f, ts[j], ts[j + 1], xtol=1e-15))
                else:
                    zeros.append(0.5 * (ts[j] + ts[j + 1]))
            elif signs[j + 1] == 0 and j + 1 < scan_points:
                zeros.append(ts[j + 1])
    refined = rule.with_breakpoints(zeros) if zeros else rule
    return integrate(lambda u: np.abs(f(u)), refined, a, b)
