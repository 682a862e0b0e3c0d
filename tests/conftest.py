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
