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
from .quadrature import (
    PIECEWISE_ABS_TOL,
    SMOOTH_ABS_TOL,
    QuadratureRule,
    cell_mesh,
    integrate,
)

SQRT2 = np.sqrt(2.0)

#: Largest index for which a sign-system breakpoint list is enumerated
#: (2**k - 1 entries); beyond this only windowed enumeration is offered.
SIGN_SYSTEM_BP_MAX = 16

#: Largest sign-system index whose jumps j / 2^k, and the midpoints between
#: them, are doubles (the smallest positive double is 2^-1074); windowed
#: enumeration, and with it exact inner products, stop here.
SIGN_SYSTEM_K_MAX = 1073

_MAX_WINDOW_PIECES = 1 << 20


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
    breakpoints : callable
        ``k -> tuple`` of interior discontinuity points of element k.
    smooth : bool
        True when no element has a jump anywhere.
    piecewise_constant : bool
        True when every element is a step function between its breakpoints.
    antideriv2 : callable or None
        Closed-form second antiderivative ``int_0^u int_0^t``, when known.
    period : callable or None
        ``k -> Fraction`` period of element k, when the element is periodic.
    breakpoints_in : callable or None
        ``(k, lo, hi) -> tuple`` of breakpoints inside a window; only needed
        when the full list is too large to enumerate.
    panels_hint : callable or None
        ``k -> int`` panels per breakpoint segment that resolve element k.
    antideriv2_cos : callable or None
        ``k -> c_k``, set when ``antideriv2(k, u) = c_k * (1 - cos(2 pi k u))``;
        prefix integrals on the mesh ``i/n`` are then one length-n DFT.
    """

    name: str
    eval: Callable
    antideriv: Optional[Callable]
    breakpoints: Callable[[int], tuple]
    smooth: bool
    piecewise_constant: bool = False
    antideriv2: Optional[Callable] = None
    period: Optional[Callable[[int], Fraction]] = None
    breakpoints_in: Optional[Callable] = None
    panels_hint: Optional[Callable[[int], int]] = None
    antideriv2_cos: Optional[Callable] = None


@dataclass(frozen=True)
class FunctionSpec:
    """A target function together with the metadata the experiments need.

    ``class_tag`` is one of ``continuous``, ``Lip1`` (bounded difference
    quotients) or ``CL`` (derivative present with bounded difference
    quotients of its own).  ``breakpoints`` lists kink/jump points so that
    quadrature of products with system elements stays accurate.
    """

    name: str
    eval: Callable
    deriv: Optional[Callable]
    class_tag: str
    value_at_1: float
    breakpoints: tuple[float, ...] = ()


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


def _cosine_antideriv2_coeff(k):
    return SQRT2 / (2.0 * np.pi * np.asarray(k, dtype=float)) ** 2


def cosine_system() -> SystemHandle:
    """Full-period cosine system ``sqrt(2) cos(2 pi k u)``, k >= 1."""
    return SystemHandle(
        name="cosine",
        eval=_cosine_eval,
        antideriv=_cosine_antideriv,
        breakpoints=lambda k: (),
        smooth=True,
        piecewise_constant=False,
        antideriv2=_cosine_antideriv2,
        period=lambda k: Fraction(1, int(k)),
        panels_hint=lambda k: max(4, int(k)),
        antideriv2_cos=_cosine_antideriv2_coeff,
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


def _haar_breakpoints(k: int) -> tuple:
    if k == 1:
        return ()
    a, b, c, _ = _haar_params(np.array([k], dtype=np.int64))
    return tuple(p for p in (float(a[0]), float(c[0]), float(b[0])) if 0.0 < p < 1.0)


def haar_system() -> SystemHandle:
    """Dyadic step system normalized in L2; jumps sit on dyadic rationals."""
    return SystemHandle(
        name="haar",
        eval=_haar_eval,
        antideriv=_haar_antideriv,
        breakpoints=_haar_breakpoints,
        smooth=False,
        piecewise_constant=True,
        antideriv2=_haar_antideriv2,
        panels_hint=lambda k: 2,
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


def _rademacher_breakpoints(k: int) -> tuple:
    if k > SIGN_SYSTEM_BP_MAX:
        raise OnsLabError(
            f"sign system element {k} has {2 ** k - 1} jumps; enumerate via "
            f"breakpoints_in on a window, or use the closed-form antiderivative")
    denom = 1 << k
    return tuple(np.arange(1, denom) / denom)


def _rademacher_breakpoints_in(k: int, lo: float, hi: float) -> tuple:
    if k > SIGN_SYSTEM_K_MAX:
        raise InvalidConfig(
            f"sign system element {k}: jumps j / 2^k are doubles only up to "
            f"k = {SIGN_SYSTEM_K_MAX}")
    first = _floor_scaled(lo, k) + 1
    last = -_floor_scaled(-hi, k) - 1
    if last - first + 1 > _MAX_WINDOW_PIECES:
        raise OnsLabError("window contains too many sign-system jumps")
    if last >= 1 << 53:
        raise InvalidConfig(f"sign system element {k}: jumps in "
                            f"[{lo}, {hi}] are not doubles")
    return tuple(math.ldexp(j, -k) for j in range(first, last + 1))


def _floor_scaled(v: float, k: int) -> int:
    """``floor(v * 2^k)``, exact: ``v = m * 2^e`` with integer m."""
    frac, e = math.frexp(v)
    m, shift = int(math.ldexp(frac, 53)), e - 53 + k
    return m << shift if shift >= 0 else m >> -shift


def rademacher_system() -> SystemHandle:
    """Sign system ``sign(sin(2^k pi u))`` with dyadic jump points."""
    return SystemHandle(
        name="rademacher",
        eval=_rademacher_eval,
        antideriv=_rademacher_antideriv,
        breakpoints=_rademacher_breakpoints,
        smooth=False,
        piecewise_constant=True,
        antideriv2=_rademacher_antideriv2,
        period=lambda k: Fraction(1, 1 << (int(k) - 1)),
        breakpoints_in=_rademacher_breakpoints_in,
        panels_hint=lambda k: 2,
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

    def bps(k: int) -> tuple:
        inner = base.breakpoints(k)
        pts = {0.5}
        pts.update(p / 2.0 for p in inner)
        pts.update(0.5 + p / 2.0 for p in inner)
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    return SystemHandle(
        name=f"reflect({base.name})",
        eval=reflected_eval,
        antideriv=None if anti is None else reflected_anti,
        breakpoints=bps,
        smooth=False,
        piecewise_constant=base.piecewise_constant,
        antideriv2=None if anti is None or anti2 is None else reflected_anti2,
        panels_hint=base.panels_hint,
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


def _make_one() -> FunctionSpec:
    return FunctionSpec(
        name="one",
        eval=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        deriv=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        class_tag="CL",
        value_at_1=1.0,
    )


def _make_id() -> FunctionSpec:
    return FunctionSpec(
        name="id",
        eval=lambda u: np.asarray(u, dtype=float),
        deriv=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        class_tag="CL",
        value_at_1=1.0,
    )


def _make_cos_bump() -> FunctionSpec:
    return FunctionSpec(
        name="cos-bump",
        eval=_bump,
        deriv=_bump_deriv,
        class_tag="CL",
        value_at_1=0.0,
    )


def _make_g_compressed() -> FunctionSpec:
    # bump squeezed into [0, 1/2); C^1 across the joint since bump'(1) = 0
    return FunctionSpec(
        name="g-compressed",
        eval=lambda u: np.where(np.asarray(u, dtype=float) < 0.5,
                                _bump(2.0 * np.asarray(u, dtype=float)), 0.0),
        deriv=lambda u: np.where(np.asarray(u, dtype=float) < 0.5,
                                 2.0 * _bump_deriv(2.0 * np.asarray(u, dtype=float)),
                                 0.0),
        class_tag="CL",
        value_at_1=0.0,
        breakpoints=(0.5,),
    )


def _make_h_compressed() -> FunctionSpec:
    return FunctionSpec(
        name="h-compressed",
        eval=lambda u: np.where(np.asarray(u, dtype=float) < 0.25,
                                _bump(4.0 * np.asarray(u, dtype=float)), 0.0),
        deriv=lambda u: np.where(np.asarray(u, dtype=float) < 0.25,
                                 4.0 * _bump_deriv(4.0 * np.asarray(u, dtype=float)),
                                 0.0),
        class_tag="CL",
        value_at_1=0.0,
        breakpoints=(0.25, 0.5),
    )


def _make_half_square() -> FunctionSpec:
    return FunctionSpec(
        name="half-square",
        eval=lambda u: np.asarray(u, dtype=float) ** 2 / 2.0,
        deriv=lambda u: np.asarray(u, dtype=float),
        class_tag="CL",
        value_at_1=0.5,
    )


_FUNCTION_BUILDERS = {
    "one": _make_one,
    "id": _make_id,
    "cos-bump": _make_cos_bump,
    "g-compressed": _make_g_compressed,
    "h-compressed": _make_h_compressed,
    "half-square": _make_half_square,
}


def get_function(name: str) -> FunctionSpec:
    """Resolve a catalog function by name."""
    key = name.strip()
    try:
        return _FUNCTION_BUILDERS[key]()
    except KeyError:
        raise UnknownFunction(f"unknown function name: {name!r}") from None


def function_names() -> list[str]:
    return list(_FUNCTION_BUILDERS)


def function_catalog() -> list[FunctionSpec]:
    """All named test functions, in registry order."""
    return [build() for build in _FUNCTION_BUILDERS.values()]


# ---------------------------------------------------------------------------
# rules, tables and inner products
# ---------------------------------------------------------------------------

def default_abs_tol(system: SystemHandle) -> float:
    return PIECEWISE_ABS_TOL if system.piecewise_constant else SMOOTH_ABS_TOL


def breakpoints_upto(system: SystemHandle, k_max: int) -> tuple:
    """Sorted union of element breakpoints for indices 1..k_max."""
    pts: set[float] = set()
    for k in range(1, k_max + 1):
        pts.update(system.breakpoints(k))
    return tuple(sorted(pts))


def recommended_rule(system: SystemHandle, k_max: int,
                     abs_tol: Optional[float] = None,
                     extra_breakpoints: Sequence[float] = ()) -> QuadratureRule:
    """A quadrature rule adequate for integrands built from indices <= k_max."""
    if system.panels_hint is not None:
        panels = int(system.panels_hint(k_max))
    else:
        panels = max(4, k_max) if system.smooth else 2
    rule = QuadratureRule(
        order=16,
        panels=panels,
        breakpoints=breakpoints_upto(system, k_max),
        abs_tol=default_abs_tol(system) if abs_tol is None else abs_tol,
    )
    return rule.with_breakpoints(extra_breakpoints) if extra_breakpoints else rule


def index_table(fn: Callable, ks, us) -> np.ndarray:
    """Table ``T[r, j] = fn(ks[r], us[j])`` of a broadcasting evaluator."""
    ks = np.asarray(ks)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vals = np.asarray(fn(ks[:, None], us[None, :]), dtype=float)
    shape = (len(ks), len(us))
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def eval_matrix(system: SystemHandle, n: int, us, fn: str = "eval") -> np.ndarray:
    """Table ``M[k-1, j] = phi_k(us[j])`` (or of an antiderivative field)."""
    return index_table(getattr(system, fn), np.arange(1, n + 1), us)


def system_values(system: SystemHandle, n: int, x: float) -> np.ndarray:
    """Vector ``(phi_1(x), ..., phi_n(x))``; x outside [0, 1] raises."""
    _check_x(x)
    return eval_matrix(system, n, [x])[:, 0]


def _check_x(x: float, name: str = "x") -> None:
    if not 0.0 <= x <= 1.0:             # also rejects NaN
        raise InvalidConfig(f"{name} must lie in [0, 1], got {x}")


def _window_breakpoints(system: SystemHandle, k: int,
                        lo: float, hi: float) -> tuple:
    if system.breakpoints_in is not None:
        return tuple(system.breakpoints_in(k, lo, hi))
    return tuple(p for p in system.breakpoints(k) if lo < p < hi)


def _step_inner_product(system: SystemHandle, j: int, k: int) -> float:
    """Exact inner product for piecewise-constant systems.

    The product of two elements is integrated by summing, over the constant
    pieces of the coarser element, its value times the antiderivative
    increment of the finer one.  When both elements are periodic with
    compatible periods the sum runs over a single common period only, which
    keeps sign-system products with ~2**k jumps tractable.
    """
    window, count = Fraction(1), 1
    if system.period is not None:
        pj, pk = system.period(j), system.period(k)
        if pj is not None and pk is not None:
            big, small = max(pj, pk), min(pj, pk)
            if (big / small).denominator == 1 and (1 / big).denominator == 1:
                window, count = big, int(1 / big)

    def pieces(idx: int) -> int:
        if system.period is not None and system.period(idx) is not None:
            period = system.period(idx)
            per_period = len(_window_breakpoints(
                system, idx, 0.0, float(period))) + 1
            return round(window / period) * per_period
        return len(system.breakpoints(idx)) + 1

    coarse, fine = (j, k) if pieces(j) <= pieces(k) else (k, j)
    edges = np.array([0.0, *_window_breakpoints(system, coarse, 0.0,
                                                float(window)), float(window)])
    mids = (edges[:-1] + edges[1:]) / 2.0
    coarse_vals = np.asarray(system.eval(coarse, mids), dtype=float)
    fine_anti = np.asarray(system.antideriv(fine, edges), dtype=float)
    one_window = float(np.dot(coarse_vals, np.diff(fine_anti)))
    # exact: count reaches 2^1072, past the largest double
    return float(count * Fraction(one_window))


def inner_product(system: SystemHandle, j: int, k: int,
                  rule: Optional[QuadratureRule] = None) -> float:
    """L2 inner product of elements j and k of a system."""
    if system.piecewise_constant and system.antideriv is not None:
        return _step_inner_product(system, j, k)
    if rule is None:
        rule = recommended_rule(system, max(j, k))
    return integrate(lambda u: np.asarray(system.eval(j, u), dtype=float)
                     * np.asarray(system.eval(k, u), dtype=float), rule).value


def gram_matrix(system: SystemHandle, n: int,
                rule: Optional[QuadratureRule] = None) -> np.ndarray:
    """Matrix of pairwise inner products of the first n elements."""
    if n < 1:
        raise InvalidConfig(f"n: Gram matrix needs n >= 1, got {n}")
    if system.piecewise_constant and system.antideriv is not None:
        out = np.empty((n, n))
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                out[j - 1, k - 1] = out[k - 1, j - 1] = _step_inner_product(
                    system, j, k)
        return out
    if rule is None:
        rule = recommended_rule(system, n)
    nodes, weights, _ = cell_mesh((0.0, 1.0), rule, 2 * rule.panels)
    table = eval_matrix(system, n, nodes)
    return (table * weights) @ table.T


def lipschitz_quotient(fn: Callable, samples: int = 513) -> float:
    """Largest sampled difference quotient of ``fn`` on a uniform grid."""
    us = np.linspace(0.0, 1.0, samples)
    vals = np.asarray(fn(us), dtype=float)
    return float(np.max(np.abs(np.diff(vals)) / np.diff(us)))
