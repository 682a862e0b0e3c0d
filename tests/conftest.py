from fractions import Fraction

import numpy as np
import pytest

from ons_lab import get_system

#: Every system the experiments exercise, by catalog name.
CATALOG = ("cosine", "haar", "rademacher", "reflect(cosine)",
           "reflect2(cosine)", "reflect(haar)")

#: Every step system with closed-form antiderivatives, by catalog name.
STEP_CATALOG = ("haar", "rademacher", "reflect(haar)", "reflect2(haar)",
                "reflect(rademacher)", "reflect2(rademacher)")


@pytest.fixture(scope="session")
def catalog_systems():
    return {name: get_system(name) for name in CATALOG}


def gram_tolerance(system) -> float:
    """Identity tolerance: tighter when jumps are declared exactly."""
    return 1e-12 if system.piecewise_constant else 1e-8


def riemann_midpoint(f, a: float, b: float, n: int = 10_000) -> float:
    """Dense midpoint Riemann sum, independent of the library quadrature."""
    ts = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(f(ts)) * (b - a) / n)


def haar_antideriv2_exact(m: int, u: Fraction) -> Fraction:
    """int_0^u int_0^t X_m, divided by the amplitude 2^(s/2) for m >= 2."""
    if m == 1:
        return u * u / 2
    block = 1 << ((m - 1).bit_length() - 1)
    j = m - block
    a, b = Fraction(j - 1, block), Fraction(j, block)
    c, half = (a + b) / 2, Fraction(1, 2 * block)
    v = min(max(u, a), b)
    return (v - a) ** 2 / 2 if v < c else half * half - (b - v) ** 2 / 2


def rademacher_antideriv2_exact(k: int, u: Fraction) -> Fraction:
    """int_0^u int_0^t r_k, exactly."""
    period = Fraction(1, 1 << (k - 1))
    whole = u // period
    y = u - whole * period
    within = (y * y / 2 if y < period / 2
              else period * period / 4 - (period - y) ** 2 / 2)
    return whole * period * period / 4 + within
