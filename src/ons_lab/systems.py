"""Orthonormal systems on [0, 1] and the catalog of named test functions.

Shipped systems: the full-period cosine system, the dyadic step (Haar)
system, the sign system (Rademacher), and a compress-and-reflect
transform that squeezes any system into [0, 1/2) and repeats it with
flipped sign on [1/2, 1].  Applying the transform kills the mean of every
element; applying it twice also kills the first moment.

Element indices are 1-based throughout.  Every evaluator broadcasts the
index against the abscissa natively, so ``(k, u)`` tables are one call, and
returns a Python float for scalar input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidConfig, OnsLabError, UnknownFunction, UnknownSystem
from .quadrature import QuadratureRule, _gauss_nodes, cell_mesh, integrate

SQRT2 = np.sqrt(2.0)

#: Most jumps a repeating element is listed with: sign-system element 16's.
MAX_LISTED_JUMPS = 2 ** 16 - 1

#: Largest sign-system index whose first-period jump 2^-k, and the midpoints
#: on either side of it, are doubles (the smallest positive double is
#: 2^-1074); exact inner products of two elements past it are refused.
SIGN_SYSTEM_K_MAX = 1073


@dataclass(frozen=True)
class SystemHandle:
    """An orthonormal system: evaluators plus structural metadata.

    ``eval``, ``antideriv`` and ``antideriv2`` broadcast ``k`` against
    ``u`` natively, as numpy operations do: ``fn(ks[:, None], us[None, :])``
    is the whole ``(len(ks), len(us))`` table, and scalar ``k`` and ``u``
    give a Python float.  Tables that ignore ``k`` may omit that axis; the
    table builders repeat them per index.

    Parameters
    ----------
    name : str
        Identifier, also accepted by :func:`get_system`.
    eval : callable
        ``(k, u) -> value`` of the k-th element.
    antideriv : callable or None
        Closed-form ``int_0^u`` of the k-th element, when known.
    piecewise_constant : bool
        True when every element is a step function between its breakpoints;
        :func:`recommended_rule` then lays 2 panels per breakpoint segment
        instead of ``max(4, k_max)``.
    antideriv2 : callable or None
        Closed-form second antiderivative ``int_0^u int_0^t``, when known.
    period : callable
        ``k -> (repeats, jumps)``: element k repeats an integer ``repeats``
        times on [0, 1]; it jumps at ``jumps`` inside the first repetition
        and at the boundaries between repetitions.  ``(1, ())`` by default.
        :func:`element_breakpoints` lists every jump; an exact Gram row sums
        over one repetition, so it also serves elements with too many.
    mesh_prefix : callable or None
        Closed-form ``w -> P`` for an ``(X, n)`` block of weights, with
        ``P[j, i - 1] = sum_k w[j, k - 1] antideriv2(k, i / n)``; linear in
        w, and row j of P depends on row j of w alone, bit for bit.  A
        handle without ``antideriv2`` must drop it too (checked).
    mesh_coefficients : callable or None
        Closed-form sums over one breakpoint segment ``[lo, hi]`` of a
        quadrature mesh, ``(a, lo, hi, n) -> (C, G)`` or None.  ``a[r, p,
        q]`` is a weighted value at node ``lo + (p + t_q) h`` of the
        segment's uniform panels of width ``h = (hi - lo) / panels``, where
        ``t_q`` are the Gauss-Legendre nodes of order ``a.shape[2]`` on [0,
        1]; then ``C[r, k - 1] = sum a[r] eval(k, .)`` and ``G[r, k - 1] =
        sum a[r] antideriv(k, .)`` over the segment's nodes, k = 1..n.  None
        declines the segment, which then takes a dense product.  A handle
        without ``antideriv`` must drop it too (checked).
    """

    name: str
    eval: Callable
    antideriv: Optional[Callable]
    piecewise_constant: bool = False
    antideriv2: Optional[Callable] = None
    period: Callable[[int], tuple] = lambda k: (1, ())
    mesh_prefix: Optional[Callable] = None
    mesh_coefficients: Optional[Callable] = None

    def __post_init__(self):
        # a hook would otherwise answer for a closed form the handle lacks
        for hook, closed in (("mesh_prefix", "antideriv2"),
                             ("mesh_coefficients", "antideriv")):
            if getattr(self, hook) is not None and getattr(self, closed) is None:
                raise ValueError(f"system {self.name!r}: {hook} needs {closed}")

    @property
    def exact_steps(self) -> bool:
        """Step elements with closed-form antiderivatives: inner products,
        and integrals of the kernels over ``u``, are then sums over
        antiderivative values at breakpoints, exact up to rounding."""
        return self.piecewise_constant and self.antideriv is not None


@dataclass(frozen=True)
class FunctionSpec:
    """A target function together with the metadata the experiments need.

    ``class_tag`` is one of ``continuous``, ``Lip1`` (bounded difference
    quotients) or ``CL`` (derivative present with bounded difference
    quotients of its own).  ``breakpoints`` lists kink/jump points, as any
    float sequence, so that quadrature of products with system elements
    stays accurate.
    """

    name: str
    eval: Callable
    deriv: Optional[Callable]
    class_tag: str
    breakpoints: Sequence[float] = ()

    @property
    def value_at_1(self) -> float:
        """``f(1)``, the boundary value in the integration-by-parts split."""
        return float(np.asarray(self.eval(1.0), dtype=float))


def _evaluator(fn: Callable) -> Callable:
    """Evaluator passing int64 ``k`` and float ``u`` arrays to ``fn``, which
    broadcasts them natively; a 0-d result comes back as a Python float."""

    def wrapped(k, u):
        out = fn(np.asarray(k, dtype=np.int64), np.asarray(u, dtype=float))
        return out if out.ndim else float(out)

    return wrapped


# ---------------------------------------------------------------------------
# cosine system: sqrt(2) cos(2 pi k u)
# ---------------------------------------------------------------------------

@_evaluator
def _cosine_eval(k, u):
    return SQRT2 * np.cos(2.0 * np.pi * k * u)


@_evaluator
def _cosine_antideriv(k, u):
    return SQRT2 * np.sin(2.0 * np.pi * k * u) / (2.0 * np.pi * k)


@_evaluator
def _cosine_antideriv2(k, u):
    return SQRT2 * (1.0 - np.cos(2.0 * np.pi * k * u)) / (2.0 * np.pi * k) ** 2


def _cosine_mesh_prefix(w):
    # P_i = sum_k c_k w_k (1 - cos(2 pi k i / n)): placing c_k w_k at k mod n
    # makes Re DFT[i] the cosine sum, and rfft gives every i by symmetry.  The
    # plain sum is taken directly, because DFT[0] carries the FFT's larger
    # roundoff at prime n.  Rows stay C-ordered, so each sums on its own
    n = w.shape[1]
    w = SQRT2 / (2.0 * np.pi * np.arange(1, n + 1, dtype=float)) ** 2 * w
    re = np.fft.rfft(np.concatenate((w[:, -1:], w[:, :-1]), axis=1)).real
    return w.sum(axis=1, keepdims=True) - np.concatenate(
        (re[:, 1:], re[:, (n + 1) // 2 - 1:0:-1], re[:, :1]), axis=1)


def _cosine_mesh_coefficients(a, lo, hi, n):
    # With h = (hi - lo) / panels = 1 / L for an integer L, the node
    # lo + (p + t_q) h gives sum_p a[p, q] e^(-2 pi i k u) = e^(-2 pi i k lo)
    # e^(-2 pi i k t_q / L) FFT_L(a[:, q])[k mod L]: one zero-padded FFT per
    # Gauss node.  Every phase is reduced first, k lo mod 1 in integers (lo
    # is dyadic) and k mod L, so no argument of exp exceeds 2 pi.  A segment
    # whose L is no integer, or whose FFTs (about L log2 L per node) would
    # cost more than a quarter of the dense product's n * panels, is declined
    _, panels, order = a.shape
    start = Fraction(lo)
    length = panels / (Fraction(hi) - start)
    if (length.denominator != 1 or start.denominator > 2 ** 31
            or length * int(length).bit_length() > 4 * n * panels):
        return None
    length = int(length)
    ks = np.arange(1, n + 1)
    spectra = np.fft.fft(a.transpose(0, 2, 1), length)[:, :, ks % length]
    tau = (_gauss_nodes(order)[0] + 1.0) / 2.0
    turns = np.mod(ks[:, None] * tau / length, 1.0)
    sums = np.einsum("rqk,kq->rk", spectra, np.exp(-2j * np.pi * turns))
    sums *= np.exp(-2j * np.pi * (ks * start.numerator % start.denominator)
                   / start.denominator)
    return SQRT2 * sums.real, -SQRT2 / (2.0 * np.pi * ks) * sums.imag


def cosine_system() -> SystemHandle:
    """Full-period cosine system ``sqrt(2) cos(2 pi k u)``, k >= 1."""
    return SystemHandle(
        name="cosine",
        eval=_cosine_eval,
        antideriv=_cosine_antideriv,
        antideriv2=_cosine_antideriv2,
        mesh_prefix=_cosine_mesh_prefix,
        mesh_coefficients=_cosine_mesh_coefficients,
    )


# ---------------------------------------------------------------------------
# Haar system, dyadic blocks 2^s < m <= 2^{s+1}, X_1 = 1
# ---------------------------------------------------------------------------

def _haar_params(m: np.ndarray):
    """Block data for indices m >= 2: scale s, support [a, b], midpoint c."""
    s = np.frexp(m - 1)[1] - 1          # exact: 2^s < m <= 2^{s+1}
    block = np.ldexp(1.0, s)
    j = m - block.astype(np.int64)
    a = (j - 1) / block
    b = j / block
    c = (2 * j - 1) / (2.0 * block)
    amp = np.sqrt(block)
    return a, b, c, amp


# Haar evaluators broadcast k against u, so block data is computed once per
# index, not once per (k, u) entry; for k = 1 it is unused (and finite)

@_evaluator
def _haar_eval(k, u):
    a, b, c, amp = _haar_params(k)
    vals = np.where((u >= a) & (u < c), amp,
                    np.where((u >= c) & (u < b), -amp, 0.0))
    # value at u = 1 is the left limit when the support touches 1
    vals = np.where((u == 1.0) & (b == 1.0), -amp, vals)
    return np.where(k == 1, 1.0, vals)


@_evaluator
def _haar_antideriv(k, u):
    a, b, c, amp = _haar_params(k)
    half = (b - a) / 2.0
    tent = amp * np.maximum(0.0, half - np.abs(np.clip(u, a, b) - c))
    return np.where(k == 1, u, tent)


@_evaluator
def _haar_antideriv2(k, u):
    # the tent g_m integrates to a quadratic on [a, c] and on [c, b], then
    # stays at the tent's area amp * half^2
    a, b, c, amp = _haar_params(k)
    v = np.clip(u, a, b)
    half = (b - a) / 2.0
    tent = amp * np.where(v < c, 0.5 * (v - a) ** 2,
                          half * half - 0.5 * (b - v) ** 2)
    return np.where(k == 1, 0.5 * u * u, tent)


def _haar_mesh_prefix(w):
    # row 1 is u^2/2.  A live row m >= 2 of scale B = 2^s and support
    # [(j-1)/B, j/B] is 0 up to mesh index lo - 1 = (j-1)n // B, then
    # amp/2 (u - a)^2 up to its midpoint, the tent's area amp/(4B^2) less
    # amp/2 (b - u)^2 up to hi - 1 = ceil(jn/B) - 1, and the area from hi on.
    # In mesh units i = nu both halves are +-amp/(2n^2) (i - e)^2 with e =
    # (j-1)n/B or jn/B: one flat bincount scatters them, and the areas enter
    # at the midpoint through one cumsum.  Supports nest around a point, so
    # it takes about 2n entries.  A point's entries add in row order, apart
    # from the other points', so its prefixes are those of a block of its own
    points, n = w.shape
    point, col = np.nonzero(w[:, 1:])
    m = col + 2
    block = np.left_shift(1, np.frexp(m - 1)[1] - 1)
    j = m - block
    lo = (j - 1) * n // block + 1
    mid, hi = -(-n * (2 * j - np.array([[1], [0]])) // (2 * block))
    wamp = w[point, m - 1] * np.sqrt(block)
    first = point * n - 1               # + i: the flat index of mesh index i
    counts = np.concatenate((mid - lo, hi - mid))
    flat = np.arange(counts.sum()) + np.repeat(
        np.concatenate((first + lo, first + mid)) - np.cumsum(counts)
        + counts, counts)
    vertex = (first + n * np.stack((j - 1, j)) / block).ravel()
    coef = np.concatenate((wamp, -wamp)) / (2.0 * n * n)
    inside = np.bincount(flat, (flat - np.repeat(vertex, counts)) ** 2
                         * np.repeat(coef, counts), minlength=points * n)
    areas = np.bincount(point * n + mid - 1, wamp / (4.0 * block * block),
                        minlength=points * n).reshape(points, n)
    i = np.arange(1, n + 1)
    return (inside.reshape(points, n) + areas.cumsum(axis=1)
            + w[:, :1] * (i * i / (2.0 * n * n)))


def _haar_period(k: int) -> tuple:
    # no repeats: the support's ends and midpoint inside (0, 1); k = 1,
    # whose block data is a = 0, c = 1, b = 2, has none
    a, b, c, _ = _haar_params(np.int64(k))
    return 1, tuple(float(p) for p in (a, c, b) if 0.0 < p < 1.0)


def haar_system() -> SystemHandle:
    """Dyadic step system normalized in L2; jumps sit on dyadic rationals."""
    return SystemHandle(
        name="haar",
        eval=_haar_eval,
        antideriv=_haar_antideriv,
        piecewise_constant=True,
        antideriv2=_haar_antideriv2,
        period=_haar_period,
        mesh_prefix=_haar_mesh_prefix,
    )


# ---------------------------------------------------------------------------
# sign (Rademacher) system: sign(sin(2^k pi u))
# ---------------------------------------------------------------------------

@_evaluator
def _rademacher_eval(k, u):
    # parity of floor(u 2^k) = floor(2^k (u mod 2^(1-k))), exact on doubles;
    # past k = 1075 every double lies on an even cell, as at k = 1075
    k = np.minimum(k, 1075)
    parity = np.floor(np.ldexp(np.mod(u, np.ldexp(1.0, 1 - k)), k))
    # left limit at u = 1: cell 2^k - 1 is always odd
    return np.where(u == 1.0, -1.0, 1.0 - 2.0 * parity)


@_evaluator
def _rademacher_antideriv(k, u):
    # a triangle wave of period p: min(y, p - y) with y = u mod p, exact
    # since p - y is exact whenever it is the smaller one; past k = 1075
    # every double is a multiple of the period: 0, as at 1075
    period = np.ldexp(1.0, 1 - np.minimum(k, 1075))
    y = np.mod(u, period)
    return np.minimum(y, period - y)


@_evaluator
def _rademacher_antideriv2(k, u):
    # full periods p of the triangle wave below u add (u - y) p/4; within a
    # period it integrates to y^2/2 up to p/2 and to p^2/4 - (p-y)^2/2
    # after.  u - y is exact and ldexp rounds once, so no p^2 underflows
    period = np.ldexp(1.0, 1 - np.minimum(k, 1075))
    y = np.mod(u, period)
    within = np.where(y < period / 2.0, 0.5 * y * y,
                      0.25 * period * period - 0.5 * (period - y) ** 2)
    return np.ldexp(u - y, -1 - k) + within


#: Rows the sign system's mesh prefixes take in full; past them, row k is
#: ``u 2^(-1-k)`` up to periodic parts of at most 4^(1-k)/32, < 2e-19 in all.
RADEMACHER_FULL_ROWS = 30


def _rademacher_mesh_prefix(w):
    # the first rows in full, and one slope per point times i/n for the
    # rest; each row of w is reduced on its own
    ks = np.arange(1, w.shape[1] + 1)
    top, mesh = RADEMACHER_FULL_ROWS, ks / len(ks)
    slope = (w[:, top:] * np.ldexp(1.0, -1 - ks[top:])).sum(axis=1)
    head = (w[:, :top, None]
            * _rademacher_antideriv2(ks[:top, None], mesh)).sum(axis=1)
    return head + slope[:, None] * mesh


def _rademacher_period(k: int) -> tuple:
    # 2^(k-1) periods, each jumping at its middle; the jump underflows to
    # 0.0 past k = 1074, which only matters to a row of that element
    k = int(k)
    return 1 << (k - 1), (math.ldexp(1.0, -k),)


def rademacher_system() -> SystemHandle:
    """Sign system ``sign(sin(2^k pi u))`` with dyadic jump points."""
    return SystemHandle(
        name="rademacher",
        eval=_rademacher_eval,
        antideriv=_rademacher_antideriv,
        piecewise_constant=True,
        antideriv2=_rademacher_antideriv2,
        period=_rademacher_period,
        mesh_prefix=_rademacher_mesh_prefix,
    )


# ---------------------------------------------------------------------------
# compress-and-reflect transform
# ---------------------------------------------------------------------------

def compress_reflect(base: SystemHandle) -> SystemHandle:
    """System ``u -> base_k(2u)`` on [0, 1/2), ``-base_k(2u - 1)`` on [1/2, 1].

    Orthonormality is preserved and every output element has zero mean.
    Applying the transform twice additionally removes the first moment of
    every element.
    """
    ev, anti, anti2 = base.eval, base.antideriv, base.antideriv2

    def halves(u):
        # the point 1/2 (and NaN) belongs to the right half, which the base
        # sees through v = 2u - 1; the left half sees v = 2u
        right = ~(u < 0.5)
        return right, np.where(right, 2.0 * (u - 0.5), 2.0 * u)

    @_evaluator
    def reflected_eval(k, u):
        right, v = halves(u)
        e = ev(k, v)
        return np.where(right, -e, e)

    @_evaluator
    def reflected_anti(k, u):
        right, v = halves(u)
        a = anti(k, v)
        return np.where(right, 0.5 * anti(k, 1.0) - 0.5 * a, 0.5 * a)

    @_evaluator
    def reflected_anti2(k, u):
        right, v = halves(u)
        a2 = anti2(k, v)
        return np.where(right, 0.25 * anti2(k, 1.0)
                        + 0.5 * anti(k, 1.0) * (u - 0.5) - 0.25 * a2,
                        0.25 * a2)

    def reflected_mesh_prefix(w):
        # reflected_anti2 at i/n reads the base's prefixes of the same w at
        # the mesh indices 2i and 2i - n, with P_B[0] = 0; w . g_B(1) by rows
        n = w.shape[1]
        pb = np.pad(base.mesh_prefix(w), ((0, 0), (1, 0)))
        i = np.arange(1, n + 1)
        right = ~(2 * i < n)
        a2 = pb[:, np.where(right, 2 * i - n, 2 * i)]
        mean = (w * anti(i, 1.0)).sum(axis=1, keepdims=True)
        return np.where(right, 0.25 * pb[:, n:]
                        + 0.5 * mean * (i / n - 0.5) - 0.25 * a2, 0.25 * a2)

    def reflected_mesh_coefficients(a, lo, hi, n):
        # a segment inside one half is a segment of the base's mesh, twice as
        # wide; one across 1/2 is declined.  On the right half the elements
        # flip sign and g_k = g_B(1)/2 - g_B(2u - 1)/2
        if lo < 0.5 < hi:
            return None
        shift = 1.0 if lo >= 0.5 else 0.0
        tables = base.mesh_coefficients(a, 2.0 * lo - shift,
                                        2.0 * hi - shift, n)
        if tables is None:
            return None
        if not shift:
            return tables[0], 0.5 * tables[1]
        mass = a.sum(axis=(1, 2))[:, None]
        return -tables[0], 0.5 * (mass * anti(np.arange(1, n + 1), 1.0)
                                  - tables[1])

    def period(k: int) -> tuple:
        # the base element's jumps in each half, and the joint at 1/2
        half = element_breakpoints(base, k) / 2.0
        return 1, np.concatenate((half, [0.5], 0.5 + half))

    return SystemHandle(
        name=f"reflect({base.name})",
        eval=reflected_eval,
        antideriv=None if anti is None else reflected_anti,
        piecewise_constant=base.piecewise_constant,
        antideriv2=None if anti is None or anti2 is None else reflected_anti2,
        period=period,
        mesh_prefix=(None if anti is None or base.mesh_prefix is None
                     else reflected_mesh_prefix),
        mesh_coefficients=(None if anti is None
                           or base.mesh_coefficients is None
                           else reflected_mesh_coefficients),
    )


# ---------------------------------------------------------------------------
# catalog lookup
# ---------------------------------------------------------------------------

_SYSTEM_BUILDERS = {
    "cosine": cosine_system,
    "haar": haar_system,
    "rademacher": rademacher_system,
}

_REFLECT_RE = re.compile(r"^reflect(2?)\((.+)\)$")


def get_system(name: str) -> SystemHandle:
    """Resolve a system name such as ``haar`` or ``reflect2(cosine)``."""
    key = name.strip()
    if key in _SYSTEM_BUILDERS:
        return _SYSTEM_BUILDERS[key]()
    m = _REFLECT_RE.match(key)
    if m:
        inner = get_system(m.group(2))
        out = compress_reflect(inner)
        if m.group(1) == "2":
            out = compress_reflect(out)
        return out
    raise UnknownSystem(f"unknown system name: {name!r}")


def system_names() -> list[str]:
    """Base system names; ``reflect(...)`` and ``reflect2(...)`` also resolve."""
    return sorted(_SYSTEM_BUILDERS)


# ---------------------------------------------------------------------------
# named test functions
# ---------------------------------------------------------------------------

def _bump(u):
    return 1.0 - np.cos(4.0 * np.pi * (np.asarray(u, dtype=float) - 0.5))


def _bump_deriv(u):
    return 4.0 * np.pi * np.sin(4.0 * np.pi * (np.asarray(u, dtype=float) - 0.5))


def _compressed_bump(name: str, scale: float,
                     breakpoints: tuple[float, ...]) -> FunctionSpec:
    # bump squeezed into [0, 1/scale), zero after; C^1 across the joint
    # since bump'(1) = 0
    def squeezed(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 1.0 / scale, _bump(scale * u), 0.0)

    def squeezed_deriv(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 1.0 / scale, scale * _bump_deriv(scale * u), 0.0)

    return FunctionSpec(name=name, eval=squeezed, deriv=squeezed_deriv,
                        class_tag="CL", breakpoints=breakpoints)


#: The named test functions, built once: specs are frozen and their
#: callables keep no state, so every lookup shares them.
_FUNCTIONS = {spec.name: spec for spec in (
    FunctionSpec("one", lambda u: np.ones_like(np.asarray(u, dtype=float)),
                 lambda u: np.zeros_like(np.asarray(u, dtype=float)), "CL"),
    FunctionSpec("id", lambda u: np.asarray(u, dtype=float),
                 lambda u: np.ones_like(np.asarray(u, dtype=float)), "CL"),
    FunctionSpec("cos-bump", _bump, _bump_deriv, "CL"),
    _compressed_bump("g-compressed", 2.0, (0.5,)),
    _compressed_bump("h-compressed", 4.0, (0.25, 0.5)),
    FunctionSpec("half-square",
                 lambda u: np.asarray(u, dtype=float) ** 2 / 2.0,
                 lambda u: np.asarray(u, dtype=float), "CL"),
)}


def get_function(name: str) -> FunctionSpec:
    """Resolve a catalog function by name."""
    key = name.strip()
    try:
        return _FUNCTIONS[key]
    except KeyError:
        raise UnknownFunction(f"unknown function name: {name!r}") from None


def function_names() -> list[str]:
    return list(_FUNCTIONS)


def function_catalog() -> list[FunctionSpec]:
    """All named test functions, in registry order."""
    return list(_FUNCTIONS.values())


# ---------------------------------------------------------------------------
# rules, tables and inner products
# ---------------------------------------------------------------------------

def element_breakpoints(system: SystemHandle, k: int) -> np.ndarray:
    """Sorted jumps of element k, the period hook tiled over [0, 1]; past
    :data:`MAX_LISTED_JUMPS` refused, unless the hook lists them itself."""
    repeats, jumps = system.period(k)
    jumps = np.asarray(jumps, dtype=float)
    if repeats == 1:
        return jumps
    count = repeats * (len(jumps) + 1) - 1
    if count > MAX_LISTED_JUMPS:
        raise OnsLabError(f"{system.name} element {k} has {count} jumps; "
                          f"breakpoint lists stop at {MAX_LISTED_JUMPS}")
    starts = np.arange(repeats) / repeats
    return (starts[:, None] + np.concatenate(([0.0], jumps))).ravel()[1:]


def breakpoints_upto(system: SystemHandle, k_max: int) -> np.ndarray:
    """Sorted union of element breakpoints for indices 1..k_max, as one
    read-only float64 array."""
    union = np.unique(np.concatenate(
        [np.empty(0)] + [element_breakpoints(system, k)
                         for k in range(1, k_max + 1)]))
    union.flags.writeable = False
    return union


def recommended_rule(system: SystemHandle, k_max: int) -> QuadratureRule:
    """A quadrature rule adequate for integrands built from indices <= k_max.

    Order 16 with every breakpoint of elements 1..k_max.  A step system is
    constant between breakpoints, so 2 panels per segment suffice; any
    other element k oscillates at most k times, so ``max(4, k_max)``
    panels resolve it.
    """
    panels = 2 if system.piecewise_constant else max(4, k_max)
    return QuadratureRule(order=16, panels=panels,
                          breakpoints=breakpoints_upto(system, k_max))


def index_table(fn: Callable, ks, us) -> np.ndarray:
    """Table ``T[r, j] = fn(ks[r], us[j])`` of a broadcasting evaluator."""
    ks = np.asarray(ks)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vals = np.asarray(fn(ks[:, None], us[None, :]), dtype=float)
    shape = (len(ks), len(us))
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def eval_matrix(system: SystemHandle, n: int, us) -> np.ndarray:
    """Table ``M[k-1, j] = phi_k(us[j])``."""
    return index_table(system.eval, np.arange(1, n + 1), us)


def system_values(system: SystemHandle, n: int, x: float) -> np.ndarray:
    """Vector ``(phi_1(x), ..., phi_n(x))``; x outside [0, 1] raises."""
    _check_x(x)
    return eval_matrix(system, n, [x])[:, 0]


def _check_x(x: float, name: str = "x") -> None:
    if not 0.0 <= x <= 1.0:             # also rejects NaN
        raise InvalidConfig(f"{name} must lie in [0, 1], got {x}")


def _step_gram_row(system: SystemHandle, j: int, ks,
                   repeats_k=None) -> np.ndarray:
    """Exact inner products of element j with elements ``ks`` (each >= j) of
    a piecewise-constant system.

    Over the constant pieces of element j, its value times the increment of
    ``g_k`` across the piece, summed: one antiderivative table for the whole
    row.  When the period hook gives element j ``repeats`` repetitions and
    every ``k`` a multiple of that many, each k repeats whole inside one
    repetition of j, so the sum runs over that repetition and is scaled
    by ``repeats``: sign-system rows with ~2**j jumps stay two pieces wide.
    ``repeats_k`` holds the hook's repeat counts of ``ks`` when the caller
    has them; they are Python ints, as they pass 2**1072.
    """
    ks = np.asarray(ks, dtype=np.int64)
    repeats, jumps = system.period(j)
    if repeats != 1:
        if repeats_k is None:
            repeats_k = [system.period(k)[0] for k in ks.tolist()]
        if any(r % repeats for r in repeats_k):
            repeats, jumps = 1, element_breakpoints(system, j)
    # 1 / repeats as a Fraction: 1.0 / 2^1072 overflows the divisor
    edges = np.array([0.0, *jumps, float(Fraction(1, repeats))])
    mids = (edges[:-1] + edges[1:]) / 2.0
    if not np.all((edges[:-1] < mids) & (mids < edges[1:])):
        raise InvalidConfig(f"{system.name} element {j}: the pieces between "
                            f"its jumps are too narrow for doubles")
    values = np.asarray(system.eval(j, mids), dtype=float)
    increments = np.diff(index_table(system.antideriv, ks, edges), axis=1)
    row = increments @ values + 0.0     # -0.0 becomes 0.0, as Fraction does
    if repeats != 1:
        live = np.flatnonzero(row)
        # exact: repeats reaches 2^1072, past the largest double
        row[live] = [float(repeats * Fraction(v)) for v in row[live].tolist()]
    return row


def inner_product(system: SystemHandle, j: int, k: int) -> float:
    """L2 inner product of elements j and k of a system."""
    if system.exact_steps:
        return float(_step_gram_row(system, min(j, k), [max(j, k)])[0])
    rule = recommended_rule(system, max(j, k))
    return integrate(lambda u: np.asarray(system.eval(j, u), dtype=float)
                     * np.asarray(system.eval(k, u), dtype=float), rule).value


def gram_matrix(system: SystemHandle, n: int) -> np.ndarray:
    """Matrix of pairwise inner products of the first n elements."""
    if n < 1:
        raise InvalidConfig(f"n: Gram matrix needs n >= 1, got {n}")
    if system.exact_steps:
        # each element's repeat count once, not once per (row, column) pair
        repeats = [system.period(k)[0] for k in range(1, n + 1)]
        out = np.empty((n, n))
        for j in range(1, n + 1):
            out[j - 1, j - 1:] = out[j - 1:, j - 1] = _step_gram_row(
                system, j, np.arange(j, n + 1), repeats[j - 1:])
        return out
    rule = recommended_rule(system, n)
    nodes, weights, _ = cell_mesh((0.0, 1.0), rule, 2 * rule.panels)
    table = eval_matrix(system, n, nodes)
    return (table * weights) @ table.T


def lipschitz_quotient(fn: Callable, samples: int = 513) -> float:
    """Largest sampled difference quotient of ``fn`` on a uniform grid."""
    us = np.linspace(0.0, 1.0, samples)
    vals = np.asarray(fn(us), dtype=float)
    return float(np.max(np.abs(np.diff(vals)) / np.diff(us)))
