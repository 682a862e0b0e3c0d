"""Breakpoint-aware Gauss-Legendre quadrature on subintervals of [0, 1].

Every inner product, Fourier coefficient and kernel integral in the
library goes through :func:`integrate`, so the machinery is deliberately
plain: fixed-order Gauss-Legendre panels laid uniformly between declared
breakpoints, with the error estimated by re-running at twice the panel
count.  Piecewise-constant integrands whose jumps are declared as
breakpoints are integrated exactly up to rounding; smooth oscillatory
integrands converge spectrally once the panel width resolves the
oscillation.

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


def _segment_edges(a: float, b: float, breakpoints: Sequence[float]) -> np.ndarray:
    inner = [p for p in breakpoints if a < p < b]
    return np.array([a, *inner, b], dtype=float)


def _panel_points(edges: np.ndarray, order: int, panels: int):
    """Nodes and weights for `panels` uniform panels inside each segment."""
    xs, ws = _gauss_nodes(order)
    lo = np.repeat(edges[:-1], panels)
    width = np.repeat(np.diff(edges), panels) / panels
    lo = lo + width * np.tile(np.arange(panels), len(edges) - 1)
    mid = lo + width / 2
    half = width / 2
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


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

    edges = _segment_edges(a, b, rule.breakpoints)
    coarse_nodes, coarse_w = _panel_points(edges, rule.order, rule.panels)
    fine_nodes, fine_w = _panel_points(edges, rule.order, 2 * rule.panels)
    coarse = float(np.dot(coarse_w, _sample(f, coarse_nodes)))
    fine = float(np.dot(fine_w, _sample(f, fine_nodes)))
    panels_used = 2 * rule.panels * (len(edges) - 1)
    return IntegrationResult(fine, abs(fine - coarse), panels_used)


def integrate_value(f: Callable, rule: QuadratureRule,
                    a: float = 0.0, b: float = 1.0) -> float:
    """Shorthand for ``integrate(...).value``."""
    return integrate(f, rule, a, b).value


def cumulative_integral(f: Callable, grid: Sequence[float],
                        rule: QuadratureRule) -> np.ndarray:
    """Antiderivative values ``F(t_j) = int_0^{t_j} f`` on a sorted grid.

    Adjacent grid cells are integrated once each and prefix-summed, so the
    cost is one pass over [0, max(grid)] regardless of the grid size.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise InvalidInterval("grid must be a non-empty 1-d sequence")
    if np.any(np.diff(pts) < 0):
        raise InvalidInterval("grid must be sorted ascending")
    if pts[0] < 0.0 or pts[-1] > 1.0:
        raise InvalidInterval("grid must lie within [0, 1]")

    cells = np.concatenate([[0.0], pts])
    increments = np.zeros(len(pts))
    for j in range(len(pts)):
        lo, hi = cells[j], cells[j + 1]
        if hi > lo:
            increments[j] = integrate(f, rule, lo, hi).value
    return np.cumsum(increments)


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

    edges = _segment_edges(a, b, rule.breakpoints)
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
