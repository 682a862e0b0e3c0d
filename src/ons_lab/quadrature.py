"""Breakpoint-aware Gauss-Legendre quadrature on subintervals of [0, 1].

The machinery is deliberately plain: fixed-order Gauss-Legendre panels
laid uniformly between declared breakpoints.  :func:`integrate` returns a
value with an error estimate from re-running at twice the panel count.
The grid functions take the fine pass alone, with no estimate:
:func:`cell_integrals` per cell, :func:`cumulative_integral` as its prefix
sums, and :func:`integrate_abs` per cell of ``|f|``, split at the zeros
of ``f``.  Not every integral goes through these.
The tables ``<f, phi_k>`` of smooth systems and ``<f', g_k>`` of every
system are sums over :func:`cell_mesh` nodes: one FFT per breakpoint
segment for the cosine family (its ``mesh_coefficients`` hook), a dense
product in blocks of nodes otherwise.  Gram matrices of smooth systems
are one dense product.  Step systems' coefficients weigh per-cell
integrals of ``f`` by element values at cell midpoints, and their Gram
rows and Lemma 3 cell integrals are exact sums over antiderivative values
at breakpoints.  The boundedness sweeps, and the prefixes of the Theorem 3
pairing, read closed-form antiderivatives wherever a system has them.
Piecewise-constant integrands whose jumps are declared as breakpoints are
integrated exactly up to rounding; smooth oscillatory integrands converge
spectrally once the panel width resolves the oscillation.

Every node set comes from :func:`cell_mesh`, which lays those panels
over the cells of a grid.

Integrands must accept a numpy array of abscissae and return values of
the same shape (scalar returns are broadcast); :func:`cell_integrals` and
:func:`cumulative_integral` also take integrands that return a table with
one row per function.  All functions here are pure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInterval, NonFiniteIntegrand

# Nodes per integrand call in every sampling pass, integrate_abs's scan and
# zero refinement included.  Kernel integrands build an (n, nodes) table,
# which for a whole sign-system mesh (2^16 breakpoints) takes gigabytes;
# blocks that fit in cache also measured fastest.
_SAMPLE_BLOCK = 4096

# integrate_abs scans for sign changes on this many uniform intervals of
# every breakpoint segment.
_SCAN_POINTS = 256

# integrate_abs narrows a zero bracket until it is no wider than
# _ZERO_XTOL + _ZERO_RTOL * |position|: 1e-15 plus four ulps.
_ZERO_XTOL = 1e-15
_ZERO_RTOL = 4 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Configuration for composite Gauss-Legendre integration.

    Rules compare by identity: their breakpoints are an array.

    Parameters
    ----------
    order : int
        Gauss-Legendre points per panel (>= 2).  A rule of order ``p``
        integrates polynomials of degree ``2p - 1`` exactly per panel.
    panels : int
        Uniform panels laid between each pair of adjacent breakpoints.
    breakpoints : sequence of float
        Strictly increasing points in [0, 1] that every panel boundary
        must respect; declare jump or kink locations here.  Stored as a
        read-only float64 copy, which readers slice without converting.
    """

    order: int = 16
    panels: int = 1
    breakpoints: np.ndarray = ()

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        # each test asks for what must hold, so a NaN (false in every
        # comparison) fails it
        pts = np.array(self.breakpoints, dtype=float)
        if not np.all(pts[1:] > pts[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise ValueError("breakpoints must lie within [0, 1]")
        pts.flags.writeable = False
        object.__setattr__(self, "breakpoints", pts)

    def with_breakpoints(self, extra: Sequence[float]) -> "QuadratureRule":
        """Return a rule whose breakpoint set also contains ``extra``: this
        rule itself when ``extra`` is empty."""
        extra = np.asarray(extra, dtype=float)
        if extra.size == 0:
            return self
        merged = np.unique(np.concatenate((self.breakpoints, extra)))
        return dataclasses.replace(
            self, breakpoints=merged[(merged >= 0.0) & (merged <= 1.0)])


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
    pts, edges = _cell_edges(grid, rule)
    nodes, weights = _panel_points(edges, rule.order, panels)
    starts = np.searchsorted(edges, pts[:-1]) * (panels * rule.order)
    return nodes, weights, starts


def _cell_edges(grid: Sequence[float], rule: QuadratureRule):
    """The grid as a checked float array, and the distinct edges of its cells
    split at the breakpoints of ``rule`` between its ends, ascending."""
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or len(pts) < 2:
        raise InvalidInterval("grid must be a 1-d sequence of at least two points")
    if not 0.0 <= pts[0] <= pts[-1] <= 1.0:
        raise InvalidInterval("grid must lie within [0, 1]")
    if not (pts[1:] >= pts[:-1]).all():     # also rejects NaN
        raise InvalidInterval("grid must be sorted ascending")
    edges = np.sort(np.concatenate((pts, _inner_breakpoints(rule, pts[0],
                                                            pts[-1]))))
    return pts, edges[np.concatenate(([True], edges[1:] > edges[:-1]))]


def _inner_breakpoints(rule: QuadratureRule, a: float, b: float) -> np.ndarray:
    """The breakpoints of ``rule`` strictly between a and b, as a view."""
    bps = rule.breakpoints
    return bps[np.searchsorted(bps, a, "right"):np.searchsorted(bps, b, "left")]


def _sample(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """``f(nodes)``; values whose last axis runs over the nodes keep their
    leading (row) axes, anything else is broadcast to the nodes' shape."""
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape[-1:] != nodes.shape:
        vals = np.broadcast_to(vals, nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return vals


def _sample_blocks(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """``f`` on many nodes, one call per ``_SAMPLE_BLOCK`` of them, written
    into one array; no nodes still make one call, which tells how many rows
    ``f`` returns."""
    first = _sample(f, nodes[:_SAMPLE_BLOCK])
    out = np.empty(first.shape[:-1] + nodes.shape)
    out[..., :first.shape[-1]] = first
    for i in range(_SAMPLE_BLOCK, len(nodes), _SAMPLE_BLOCK):
        out[..., i:i + _SAMPLE_BLOCK] = _sample(f, nodes[i:i + _SAMPLE_BLOCK])
    return out


def integrate(f: Callable, rule: QuadratureRule,
              a: float = 0.0, b: float = 1.0) -> IntegrationResult:
    """Integrate ``f`` over ``[a, b]`` inside [0, 1].

    The value is computed with ``2 * rule.panels`` uniform panels between
    adjacent breakpoints and the reported error estimate is the difference
    against the single-refinement coarse pass; ``f`` is sampled in blocks
    of nodes.  No further adaptivity is attempted.

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
    coarse = float(np.dot(coarse_w, _sample_blocks(f, coarse_nodes)))
    fine = float(np.dot(fine_w, _sample_blocks(f, fine_nodes)))
    return IntegrationResult(fine, abs(fine - coarse),
                             len(fine_nodes) // rule.order)


def cell_integrals(f: Callable, grid: Sequence[float],
                   rule: QuadratureRule) -> np.ndarray:
    """Integrals of ``f`` over the cells ``[t_{j-1}, t_j]`` of ``(0, *grid)``.

    The cells get the nodes of the fine pass of :func:`integrate`
    (``2 * rule.panels`` panels per breakpoint segment); ``f`` is sampled
    over that whole mesh, in blocks of nodes, and summed per cell.  No
    error estimate is formed; an empty cell gives 0.

    ``f`` may return a table ``(rows, nodes)``, one row per integrand; the
    result is then ``(rows, len(grid))``, and each row is bitwise the value
    of the call on that row's integrand alone.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise InvalidInterval("grid must be a non-empty 1-d sequence")
    return _fine_cells(f, np.concatenate([[0.0], pts]), rule)


def _fine_cells(f: Callable, grid: Sequence[float],
                rule: QuadratureRule) -> np.ndarray:
    """Fine-pass integrals of ``f`` over the cells between consecutive grid
    points, with the row contract of :func:`cell_integrals`."""
    nodes, weights, starts = cell_mesh(grid, rule, 2 * rule.panels)
    vals = _sample_blocks(f, nodes)
    vals *= weights
    cells = np.zeros(vals.shape[:-1] + starts.shape)
    filled = np.diff(starts, append=len(nodes)) > 0
    if np.any(filled):
        cells[..., filled] = np.add.reduceat(vals, starts[filled], axis=-1)
    return cells


def cumulative_integral(f: Callable, grid: Sequence[float],
                        rule: QuadratureRule) -> np.ndarray:
    """Antiderivative values ``F(t_j) = int_0^{t_j} f`` on a sorted grid:
    the prefix sums of :func:`cell_integrals`, with the same row contract."""
    return np.cumsum(cell_integrals(f, grid, rule), axis=-1)


def integrate_abs(f: Callable, rule: QuadratureRule,
                  grid: Sequence[float] = (0.0, 1.0)) -> np.ndarray:
    """Integrals of ``|f|`` over the cells between consecutive points of a
    sorted grid, split at f's zeros; an empty cell gives 0.

    One scan samples ``f``, in blocks of nodes, on ``_SCAN_POINTS`` uniform
    intervals of every piece between the grid points and the rule's
    breakpoints; each sign change brackets a zero, and all brackets are
    refined together (:func:`_refine_zeros`).  The zeros, and scan points
    where ``f`` is exactly zero, join the breakpoints of one fine pass
    (the panels of :func:`cell_integrals`), so that every panel sees a
    single-signed integrand.  Zero pairs closer than the scan resolves
    degrade the values gracefully rather than failing.
    """
    pts, edges = _cell_edges(grid, rule)
    ts = np.linspace(edges[:-1], edges[1:], _SCAN_POINTS + 1, axis=1)
    signs = np.sign(_sample_blocks(f, ts.ravel()).reshape(ts.shape))
    change = signs[:, :-1] * signs[:, 1:] < 0
    zeros = np.concatenate((ts[:, 1:-1][signs[:, 1:-1] == 0],
                            _refine_zeros(f, ts[:, :-1][change],
                                          ts[:, 1:][change])))
    return _fine_cells(lambda u: np.abs(f(u)), pts,
                       rule.with_breakpoints(zeros))


def _refine_zeros(f: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One zero of ``f`` in each bracket ``[lo[r], hi[r]]``.

    The endpoints are evaluated again first: a value taken in another call
    can differ in the last ulp near a zero.  An endpoint where ``f`` is zero
    is the zero, and a bracket whose endpoints no longer differ in sign
    gives its midpoint.  The rest are bisected together, one blocked pass
    of ``f`` per step: a bracket ends with the step where ``f`` is zero, or
    once no wider than 1e-15 plus four ulps of its position, when its
    midpoint is the zero.
    """
    if len(lo) == 0:
        return lo
    ends = _sample_blocks(f, np.concatenate((lo, hi)))
    flo, fhi = ends[:len(lo)], ends[len(lo):]
    out = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, 0.5 * (lo + hi)))
    act = np.flatnonzero((flo != 0.0) & (fhi != 0.0)
                         & ((flo > 0.0) != (fhi > 0.0)))
    lo, hi, hi_pos = lo[act], hi[act], fhi[act] > 0.0
    while len(act):
        mid = 0.5 * (lo + hi)
        fm = _sample_blocks(f, mid)
        move_hi = (fm > 0.0) == hi_pos
        lo, hi = np.where(move_hi, lo, mid), np.where(move_hi, mid, hi)
        done = (fm == 0.0) | (hi - lo <= _ZERO_XTOL + _ZERO_RTOL * np.abs(hi))
        out[act[done]] = np.where(fm == 0.0, mid, 0.5 * (lo + hi))[done]
        act, lo, hi, hi_pos = (v[~done] for v in (act, lo, hi, hi_pos))
    return out
