import math
import sys
from dataclasses import replace
from functools import partial
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ons_lab
from conftest import (CATALOG, STEP_CATALOG, haar_antideriv2_exact,
                      rademacher_antideriv2_exact, riemann_midpoint)
from ons_lab import (
    InvalidConfig,
    KernelContext,
    QuadratureRule,
    SystemHandle,
    antiderivative_kernel,
    antiderivative_square_sum,
    boundedness_functional,
    boundedness_functional_naive,
    boundedness_values,
    cell_abs_integral,
    coefficients,
    cosine_system,
    dirichlet_kernel,
    dirichlet_mean,
    get_function,
    get_system,
    haar_system,
    integrate,
    kernel_prefix_integral,
    partial_sum,
    partial_sum_boundedness,
    partial_sum_sweep,
    prefix_mean_linkage,
    recommended_rule,
    square_sum_ratio,
    system_values,
)
from ons_lab.kernels import _abs_piecewise_linear, _prefix_values, _rows
from ons_lab.systems import (RADEMACHER_FULL_ROWS, breakpoints_upto,
                             eval_matrix, index_table)

SQ2 = np.sqrt(2.0)

#: Every system name with a ``mesh_prefix`` hook.
_HOOKED = ("cosine", "rademacher", "reflect(cosine)", "reflect2(cosine)",
           "reflect(rademacher)", "reflect2(rademacher)",
           "reflect(reflect2(cosine))")


def cos_phi(k, u):
    return SQ2 * np.cos(2 * np.pi * k * np.asarray(u, dtype=float))


def cos_g(k, u):
    return SQ2 * np.sin(2 * np.pi * k * np.asarray(u, dtype=float)) / (2 * np.pi * k)


class TestDirichletKernel:
    def test_single_cosine_at_origin(self):
        ctx = KernelContext(cosine_system(), 1)
        assert dirichlet_kernel(ctx, 0.0, 0.0) == pytest.approx(2.0)

    def test_haar_first_element(self):
        ctx = KernelContext(haar_system(), 1)
        for u, x in [(0.1, 0.9), (0.6, 0.2)]:
            assert dirichlet_kernel(ctx, u, x) == pytest.approx(1.0)

    def test_three_term_sum_oracle(self):
        # independent term-by-term summation
        ctx = KernelContext(cosine_system(), 3)
        u, x = 0.2, 0.7
        expected = sum(cos_phi(k, u) * cos_phi(k, x) for k in (1, 2, 3))
        assert dirichlet_kernel(ctx, u, x) == pytest.approx(expected, abs=1e-14)


class TestAntiderivativeKernel:
    @pytest.mark.parametrize("name", ["cosine", "haar", "reflect(cosine)"])
    def test_vanishes_at_zero(self, name):
        ctx = KernelContext(get_system(name), 5)
        assert antiderivative_kernel(ctx, 0.0, 0.37) == pytest.approx(0.0,
                                                                      abs=1e-15)

    def test_haar_first_element_is_ramp(self):
        ctx = KernelContext(haar_system(), 1)
        for t in (0.2, 0.5, 0.9):
            assert antiderivative_kernel(ctx, t, 0.77) == pytest.approx(t)

    def test_two_term_cosine_value(self):
        ctx = KernelContext(cosine_system(), 2)
        assert antiderivative_kernel(ctx, 0.25, 0.0) == pytest.approx(
            1.0 / np.pi, abs=1e-14)


#: Every catalog name the kernels accept: the systems the experiments
#: exercise, plus the reflections of the sign system and twice of Haar.
KERNEL_NAMES = (*CATALOG, "reflect(rademacher)", "reflect2(haar)")


class TestLiveRows:
    # the kernels sum only the rows with phi_k(x) != 0; the dense all-rows
    # product is the reference, to 1e-15 of the absolute terms' sum
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 96),
           x=st.one_of(st.floats(0.0, 1.0),
                       st.integers(0, 64).map(lambda j: j / 64)),
           us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_matches_dense_product(self, name, n, x, us):
        sys_ = get_system(name)
        ctx = KernelContext(sys_, n)
        phi_x = system_values(sys_, n, x)
        us = np.array(us)
        for kernel, fn in ((dirichlet_kernel, sys_.eval),
                           (antiderivative_kernel, sys_.antideriv)):
            table = index_table(fn, np.arange(1, n + 1), us)
            want = phi_x @ table
            tol = 1e-15 * np.maximum(1.0, np.abs(phi_x) @ np.abs(table))
            assert np.all(np.abs(kernel(ctx, us, x) - want) <= tol)
            assert abs(kernel(ctx, float(us[0]), x) - want[0]) <= tol[0]


class TestPrefixIntegral:
    def test_zero_at_origin(self):
        ctx = KernelContext(cosine_system(), 4)
        assert kernel_prefix_integral(ctx, 0.0, 0.3) == 0.0

    def test_haar_full_interval(self):
        ctx = KernelContext(haar_system(), 1)
        assert kernel_prefix_integral(ctx, 1.0, 0.6) == pytest.approx(0.5,
                                                                      abs=1e-12)

    def test_matches_dense_riemann_sum(self):
        ctx = KernelContext(cosine_system(), 4)
        t, x = 0.3, 0.1

        def q(u):
            return sum(cos_g(k, u) * cos_phi(k, x) for k in range(1, 5))

        oracle = riemann_midpoint(q, 0.0, t, 10_000)
        assert kernel_prefix_integral(ctx, t, x) == pytest.approx(oracle,
                                                                  abs=1e-6)


class TestBoundednessFunctional:
    def test_two_term_definition(self):
        # n=2 reduces to half the single prefix integral
        for name in ("cosine", "haar"):
            ctx = KernelContext(get_system(name), 2)
            x = 0.4
            expected = 0.5 * abs(kernel_prefix_integral(ctx, 0.5, x))
            assert boundedness_functional(ctx, x) == pytest.approx(expected,
                                                                   abs=1e-12)

    def test_haar_direct_formula_oracle(self):
        # n=2, x=0.1: prefix integral of u + tent_2(u) up to 1/2 is 1/4
        ctx = KernelContext(haar_system(), 2)
        assert boundedness_functional(ctx, 0.1) == pytest.approx(0.125,
                                                                 abs=1e-9)

    def test_needs_two_terms(self):
        ctx = KernelContext(haar_system(), 1)
        with pytest.raises(ValueError):
            boundedness_functional(ctx, 0.3)

    @pytest.mark.parametrize("name,n", [
        ("cosine", 4), ("cosine", 16), ("haar", 8), ("reflect(cosine)", 6),
        ("reflect(haar)", 8),
    ])
    def test_incremental_matches_naive(self, name, n):
        ctx = KernelContext(get_system(name), n)
        for x in (0.3, 1 / np.sqrt(2)):
            fast = boundedness_functional(ctx, x)
            slow = boundedness_functional_naive(ctx, x)
            assert abs(fast - slow) < 1e-9


# ---------------------------------------------------------------------------
# exact rational M_n for the step catalog systems
# ---------------------------------------------------------------------------
#
# Every double is a dyadic rational, and a step element is +-amp or 0 with
# amp^2 a power of two, while its second antiderivative is amp times a
# rational.  So phi_k(x) A2_k(i/n) is rational at the doubles x and i/n the
# fast path sees, and M_n(x) has an exact Fraction value.  A system is its
# base ("haar" or "rademacher") and how often it is reflected.

_HALF = Fraction(1, 2)


def _exact_sign(base: str, reflections: int, k: int, x: Fraction) -> int:
    """phi_k(x) / amp_k: -1, 0 or 1, right-continuous, left limit at 1."""
    if reflections:
        if x < _HALF:
            return _exact_sign(base, reflections - 1, k, 2 * x)
        return -_exact_sign(base, reflections - 1, k, 2 * x - 1)
    if base == "rademacher":
        return -1 if x == 1 or (x * (1 << k)) // 1 % 2 else 1
    if k == 1:
        return 1
    block = 1 << ((k - 1).bit_length() - 1)
    j = k - block
    a, b = Fraction(j - 1, block), Fraction(j, block)
    c = (a + b) / 2
    if a <= x < c:
        return 1
    return -1 if c <= x < b or x == b == 1 else 0


def _exact_shape2(base: str, reflections: int, k: int, u: Fraction):
    """A2_k(u) / amp_k; a reflection gives A2_B(2u) / 4 on [0, 1/2) and
    A2_B(1) / 4 + A1_B(1) (u - 1/2) / 2 - A2_B(2u - 1) / 4 after."""
    if reflections:
        inner = partial(_exact_shape2, base, reflections - 1, k)
        if u < _HALF:
            return inner(2 * u) / 4
        # A1_B(1) is the mean of B_k: 1 for the Haar element 1, else 0
        mean = int(base == "haar" and reflections == 1 and k == 1)
        return inner(Fraction(1)) / 4 + mean * (u - _HALF) / 2 \
            - inner(2 * u - 1) / 4
    if base == "rademacher":
        return rademacher_antideriv2_exact(k, u)
    return haar_antideriv2_exact(k, u)


def _amp_squared(base: str, k: int) -> int:
    return 1 << ((k - 1).bit_length() - 1) if base == "haar" and k > 1 else 1


class TestExactStepOracle:
    # the fast value against the exact one, within 8 eps times the exact
    # mean of |phi_k(x) A2_k(i/n)| summed over k: a relative bound alone
    # fails where M_n is 0 or tiny (haar, n = 64, x = 1 is exactly 0)
    @pytest.mark.parametrize("reflections", [0, 1, 2])
    @pytest.mark.parametrize("base,n", [
        ("haar", 7), ("haar", 64), ("haar", 200),
        ("rademacher", 7), ("rademacher", 24), ("rademacher", 48),
        ("rademacher", 97)])
    def test_boundedness_functional_matches_fractions(self, base, n,
                                                      reflections):
        name = (base, f"reflect({base})", f"reflect2({base})")[reflections]
        ctx = KernelContext(get_system(name), n)
        us = [Fraction(i / n) for i in range(1, n)]
        rows = {}           # exact A2_k / amp_k on the mesh, shared by every x
        rng = np.random.default_rng(n)
        for x in (0.0, 1.0, 0.5, *rng.random(2).tolist()):
            terms = []
            for k in range(1, n + 1):
                weight = _exact_sign(base, reflections, k, Fraction(x)) \
                    * _amp_squared(base, k)
                if weight:
                    if k not in rows:
                        rows[k] = [_exact_shape2(base, reflections, k, u)
                                   for u in us]
                    terms.append([weight * a2 for a2 in rows[k]])
            exact = sum(abs(sum(col)) for col in zip(*terms)) / n
            unit = sum(abs(t) for row in terms for t in row) / n
            got = boundedness_functional(ctx, x)
            assert abs(Fraction(got) - exact) <= (
                8 * Fraction(np.finfo(float).eps) * unit), (name, n, x)


class TestBesselBound:
    @pytest.mark.parametrize("name", CATALOG)
    def test_square_sums_capped_by_one(self, name):
        sys_ = get_system(name)
        us = np.linspace(0.0, 1.0, 33)
        sums = antiderivative_square_sum(sys_, 256, us)
        assert sums.max() <= 1.0 + 1e-8

    def test_cosine_closed_form_value(self):
        # sum of 2 sin^2(2 pi k u) / (2 pi k)^2 at u = 1/4, first two terms
        sys_ = cosine_system()
        val = antiderivative_square_sum(sys_, 2, [0.25])[0]
        expected = 2 * (1.0 / (2 * np.pi) ** 2) + 0.0
        assert val == pytest.approx(expected, abs=1e-15)


class TestCellBound:
    @pytest.mark.parametrize("name", ["cosine", "haar"])
    @pytest.mark.parametrize("n", [4, 16])
    def test_cell_abs_integral_bounded(self, name, n):
        sys_ = get_system(name)
        ctx = KernelContext(sys_, n)
        for x in (0.0, 0.3, 1 / np.sqrt(2)):
            phi = system_values(sys_, n, x)
            bound = np.sqrt((phi ** 2).sum()) / n
            for i in range(1, n + 1):
                lhs = cell_abs_integral(ctx, i, x).value
                assert lhs <= bound + 1e-8

    def test_bad_cell_index(self):
        ctx = KernelContext(haar_system(), 4)
        with pytest.raises(ValueError):
            cell_abs_integral(ctx, 5, 0.3)

    @pytest.mark.parametrize("name", ["haar", "reflect(haar)",
                                      "reflect2(haar)", "rademacher",
                                      "reflect(rademacher)"])
    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_step_systems_match_piecewise_linear_oracle(self, name, n):
        # g_k is linear between the breakpoints of element k, so on each
        # piece of a cell |K| is the absolute value of a linear function,
        # integrated exactly through its zero
        sys_ = get_system(name)
        ctx = KernelContext(sys_, n)
        bps = np.array(breakpoints_upto(sys_, n))
        for x in (0.0, 0.3, 0.7071067811865476):
            phi_x = system_values(sys_, n, x)
            for i in range(1, n + 1):
                lo, hi = (i - 1) / n, i / n
                edges = np.concatenate(([lo], bps[(bps > lo) & (bps < hi)],
                                        [hi]))
                ks = phi_x @ index_table(sys_.antideriv, np.arange(1, n + 1),
                                         edges)
                want = sum(_abs_linear_integral(a, b, ka, kb) for a, b, ka, kb
                           in zip(edges[:-1], edges[1:], ks[:-1], ks[1:]))
                got = cell_abs_integral(ctx, i, x).value
                assert got == pytest.approx(want, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("name", STEP_CATALOG)
    def test_step_cells_take_no_quadrature(self, name, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a step-system cell went to integrate_abs")

        monkeypatch.setattr("ons_lab.kernels.integrate_abs", no_quadrature)
        ctx = KernelContext(get_system(name), 8)
        for x in (0.0, 0.3, 1.0):
            for i in (1, 4, 8):
                assert cell_abs_integral(ctx, i, x).est_error == 0.0

    @pytest.mark.parametrize("name", ["cosine", "reflect(cosine)",
                                      "reflect2(cosine)"])
    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_smooth_systems_match_dense_zero_split(self, name, n):
        # zeros bracketed on a dense grid and bisected one by one; |K| is
        # then integrated by a rule much finer than the cell-sized one
        sys_ = get_system(name)
        ctx = KernelContext(sys_, n)
        for x in (0.0, 0.3, 0.7071067811865476):
            phi_x = system_values(sys_, n, x)

            def kernel(u):
                return phi_x @ index_table(sys_.antideriv,
                                           np.arange(1, n + 1), u)

            for i in range(1, n + 1):
                lo, hi = (i - 1) / n, i / n
                grid = np.linspace(lo, hi, 4097)
                vals = kernel(grid)
                zeros = [_bisect(kernel, a, b) for a, b, fa, fb
                         in zip(grid[:-1], grid[1:], vals[:-1], vals[1:])
                         if fa * fb < 0.0]
                rule = QuadratureRule(panels=8).with_breakpoints(
                    [*breakpoints_upto(sys_, n), *zeros])
                want = integrate(lambda u: np.abs(kernel(u)), rule,
                                 lo, hi).value
                got = cell_abs_integral(ctx, i, x).value
                assert got == pytest.approx(want, rel=1e-12, abs=1e-16)


@settings(max_examples=200, deadline=None)
@given(q=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=12),
       widths=st.lists(st.floats(1e-3, 1.0), min_size=11, max_size=11))
def test_abs_piecewise_linear_matches_zero_split(q, widths):
    # catalog kernels change sign inside a piece only by rounding, so the
    # two-triangle branch is checked here on arbitrary values
    edges = np.concatenate(([0.0], np.cumsum(widths[:len(q) - 1])))
    want = sum(_abs_linear_integral(a, b, ka, kb) for a, b, ka, kb
               in zip(edges[:-1], edges[1:], q[:-1], q[1:]))
    got = _abs_piecewise_linear(edges, np.array(q))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _abs_linear_integral(a, b, ka, kb):
    """``int_a^b |K|`` for K linear from ka at a to kb at b."""
    if ka * kb >= 0.0:
        return 0.5 * (abs(ka) + abs(kb)) * (b - a)
    z = a + (b - a) * ka / (ka - kb)
    return 0.5 * (abs(ka) * (z - a) + abs(kb) * (b - z))


def _bisect(f, a, b):
    fa = f(np.array([a]))[0]
    while b - a > 1e-15:
        m = 0.5 * (a + b)
        fm = f(np.array([m]))[0]
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


class TestDirichletMeanIdentity:
    @pytest.mark.parametrize("name", CATALOG)
    def test_kernel_mean_equals_partial_sum_of_one(self, name):
        # quadrature of the kernel mean against the coefficient route
        sys_ = get_system(name)
        top = 8 if name == "rademacher" else 64
        table = coefficients(KernelContext(sys_, top),
                             get_function("one"))
        for n in (1, 2, top // 2, top):
            ctx = KernelContext(sys_, n)
            for x in (0.3, 0.9):
                lhs = dirichlet_mean(ctx, x)
                rhs = partial_sum(table, n, x)
                assert abs(lhs - rhs) < 1e-8

    @pytest.mark.parametrize("name", STEP_CATALOG)
    def test_step_mean_matches_kernel_quadrature(self, name):
        # sum phi_k(x) g_k(1) against quadrature of the kernel, to 1e-14
        sys_ = get_system(name)
        ctx = KernelContext(sys_, 10 if "rademacher" in name else 32)
        for x in (0.0, 0.3, 0.9):
            want = integrate(lambda u: dirichlet_kernel(ctx, u, x),
                             ctx.rule).value
            assert abs(dirichlet_mean(ctx, x) - want) < 1e-14

    @pytest.mark.parametrize("name", ["cosine", "reflect(cosine)",
                                      "reflect2(cosine)", "cosine-stripped",
                                      "haar-stripped"])
    def test_other_means_match_kernel_quadrature(self, name):
        # the same oracle; a system without closed-form g_k takes g_k(1)
        # from one cumulative pass over phi_k
        base = get_system(name.removesuffix("-stripped"))
        sys_ = (replace(base, name=name, antideriv=None, antideriv2=None,
                        mesh_prefix=None)
                if name.endswith("-stripped") else base)
        ctx = KernelContext(sys_, 32)
        for x in (0.0, 0.3, 0.9):
            want = integrate(lambda u: dirichlet_kernel(ctx, u, x),
                             ctx.rule).value
            assert abs(dirichlet_mean(ctx, x) - want) < 1e-14

    @pytest.mark.parametrize("name", CATALOG + STEP_CATALOG)
    def test_mean_integrates_nothing(self, name, monkeypatch):
        # g_k(1) = int_0^1 phi_k, so the mean is the kernel Q_n(1, x)
        original, calls = ons_lab.quadrature.integrate, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (module is not None and module.__name__.startswith("ons_lab")
                    and vars(module).get("integrate") is original):
                monkeypatch.setattr(module, "integrate", counted)
        ctx = KernelContext(get_system(name), 8)
        for x in (0.0, 0.3, 1.0):
            dirichlet_mean(ctx, x)
        assert calls == []

    def test_step_means_are_exact(self):
        # every sign-system g_k(1) is 0, and every Haar g_k(1) but g_1(1) = 1
        for x in (0.0, 0.3, 1.0):
            assert dirichlet_mean(KernelContext(get_system("rademacher"), 16),
                                  x) == 0.0
            assert dirichlet_mean(KernelContext(haar_system(), 64), x) == 1.0


def _stripped_cosine() -> SystemHandle:
    """The cosine system without closed-form antiderivatives."""
    base = cosine_system()
    return SystemHandle(
        name="cosine-stripped",
        eval=base.eval,
        antideriv=None,
    )


class TestTableShapes:
    # an evaluator that ignores k may return one row for every index; any
    # other shape is an error, not a silent per-k fallback
    def _line(self, width=None):
        row = (lambda u: np.asarray(u, dtype=float)) if width is None else (
            lambda u: np.zeros(width))
        return SystemHandle(name="line", eval=lambda k, u: row(u),
                            antideriv=lambda k, u: row(u) / 2.0)

    def test_k_independent_row_is_repeated(self):
        us = np.array([0.0, 0.25, 1.0])
        line = self._line()
        assert np.array_equal(eval_matrix(line, 3, us), np.tile(us, (3, 1)))
        assert np.array_equal(KernelContext(line, 3).g_values([1, 2], us),
                              np.tile(us / 2.0, (2, 1)))

    def test_wrong_shape_raises(self):
        bad, us = self._line(width=5), np.array([0.0, 0.25, 1.0])
        with pytest.raises(ValueError):
            eval_matrix(bad, 3, us)
        with pytest.raises(ValueError):
            KernelContext(bad, 3).g_values([1, 2], us)


class TestNumericAntiderivativeFallback:
    def test_stripped_system_matches_closed_form(self):
        ctx_num = KernelContext(_stripped_cosine(), 5)
        ctx_ref = KernelContext(cosine_system(), 5)
        us = np.linspace(0.0, 1.0, 17)
        for x in (0.2, 0.8):
            got = antiderivative_kernel(ctx_num, us, x)
            want = antiderivative_kernel(ctx_ref, us, x)
            assert np.abs(got - want).max() < 1e-9
        assert abs(boundedness_functional(ctx_num, 0.3)
                   - boundedness_functional(ctx_ref, 0.3)) < 1e-9

    def test_no_live_rows_give_a_zero_kernel(self):
        # every sine element vanishes at x = 0, so no row is live
        sine = SystemHandle(
            name="sine-stripped",
            eval=lambda k, u: np.sqrt(2.0) * np.sin(2 * np.pi * k * u),
            antideriv=None)
        ctx, us = KernelContext(sine, 4), np.linspace(0.0, 1.0, 9)
        assert ctx.g_values([], us).shape == (0, 9)
        assert np.array_equal(antiderivative_kernel(ctx, us, 0.0),
                              np.zeros(9))
        assert antiderivative_kernel(ctx, 0.3, 0.0) == 0.0
        assert dirichlet_kernel(ctx, 0.3, 0.0) == 0.0
        assert cell_abs_integral(ctx, 2, 0.0).value == 0.0

    def test_cached_rows_match_recomputation(self):
        # the numeric prefix table against cosine's closed-form one; no
        # prefix path reads it, so it is built on demand and then kept
        ctx = KernelContext(_stripped_cosine(), 8)
        boundedness_functional(ctx, 0.3)
        assert ctx._prefix_table is None
        table = ctx.prefix_table()
        assert ctx._prefix_table is table and ctx.prefix_table() is table
        want = KernelContext(cosine_system(), 8).prefix_table()
        assert np.abs(table - want).max() < 1e-12

    def test_closed_form_context_builds_no_rule_or_mesh(self, monkeypatch):
        def no_mesh(*args):
            raise AssertionError("closed-form path built a quadrature mesh")

        monkeypatch.setattr("ons_lab.quadrature.cell_mesh", no_mesh)
        ctx = KernelContext(haar_system(), 64)
        for x in (0.0, 0.3, 1.0):
            boundedness_functional(ctx, x)
        # the rule is a cached property, stored in the instance once built
        assert "rule" not in vars(ctx) and ctx._prefix_table is None
        assert ctx.rule.breakpoints.size       # still available on demand

    def test_cosine_context_builds_no_table(self):
        ctx = KernelContext(cosine_system(), 64)
        for x in (0.0, 0.3, 1.0):
            boundedness_functional(ctx, x)
        assert ctx._prefix_table is None and "rule" not in vars(ctx)

    @pytest.mark.parametrize("name", ["haar", "reflect(haar)"])
    def test_numeric_sparse_rows_match_closed_form(self, name):
        # without antideriv2 a phi(x) with zeros takes numeric rows of its
        # nonzero entries only; the tents integrate exactly between jumps
        closed = get_system(name)
        stripped = replace(closed, name=f"{name}-stripped", antideriv2=None)
        for n in (2, 7, 32, 64):
            ctx = KernelContext(stripped, n)
            ref = KernelContext(closed, n)
            for x in (0.0, 0.3, 0.5, 1 / np.sqrt(2), 1.0):
                got = ctx.prefixes(x)
                assert np.abs(got - ref.prefixes(x)).max() < 1e-13
            # a phi(x) without zeros (n = 2) takes all its rows, no table
            assert ctx._prefix_table is None

    @pytest.mark.parametrize("name", _HOOKED + ("haar", "reflect(haar)",
                                                "reflect2(haar)",
                                                "cosine-stripped"))
    def test_no_sweep_builds_the_table(self, name, monkeypatch):
        # hooked systems take their closed form, the rest live rows per point
        def no_table(self):
            raise AssertionError("a sweep built the (n, n) prefix table")

        system = (_stripped_cosine() if name == "cosine-stripped"
                  else get_system(name))
        assert (system.mesh_prefix is not None) == (name in _HOOKED)
        monkeypatch.setattr(KernelContext, "prefix_table", no_table)
        values = boundedness_values(system, (0.0, 0.3, 0.5, 1.0), 12)
        assert np.isfinite(values).all()

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(CATALOG + ("reflect2(haar)",
                                           "reflect(rademacher)")),
           n=st.integers(1, 8),
           ts=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                 st.floats(0.0, 1.0)), min_size=1,
                       max_size=12).map(lambda v: sorted(v + v[:1])))
    def test_numeric_prefix_rows_match_closed_form(self, name, n, ts):
        # repeated points make empty cells; a numeric rung integrates the
        # rung below (closed-form or itself numeric) with cell-sized
        # panels; rung 0 is the same evaluator on both sides, and rows of
        # rungs 1 and 2 are at most 1/2, so 1e-14 is a few dozen ulps
        closed = get_system(name)
        ks = np.arange(1, n + 1)
        for strip in ({"antideriv2": None},
                      {"antideriv": None, "antideriv2": None}):
            stripped = replace(closed, name=f"{name}-stripped", **strip)
            for order in (0, 1, 2):
                want = _rows(KernelContext(closed, n), order, ks, ts)
                got = _rows(KernelContext(stripped, n), order, ks, ts)
                assert got.shape == want.shape == (n, len(ts))
                assert np.abs(got - want).max() < 1e-14, (strip, order)


class TestPointBlocks:
    """Mesh prefixes of a block of points: one row per point, each as it
    would be alone."""

    @pytest.mark.parametrize("name", tuple(dict.fromkeys(
        CATALOG + STEP_CATALOG + _HOOKED)))
    @pytest.mark.parametrize("n", [2, 7, 16, 33])
    def test_rows_equal_one_column_blocks(self, name, n):
        system = get_system(name)
        xs = [0.0, 0.3, 0.5, 1 / np.sqrt(2), 1.0]
        ctx = KernelContext(system, n, points=xs)
        block = _prefix_values(ctx, eval_matrix(system, n, xs))
        assert block.shape == (len(xs), n)
        for j, x in enumerate(xs + [0.9]):
            one = _prefix_values(KernelContext(system, n),
                                 system_values(system, n, x)[:, None])
            assert np.array_equal(ctx.prefixes(x), one[0])
            if j < len(xs):
                assert np.array_equal(block[j], one[0])

    def test_points_without_a_block_are_checked(self):
        with pytest.raises(InvalidConfig, match=r"x must lie in \[0, 1\]"):
            KernelContext(haar_system(), 8, points=(0.3, float("nan")))


def _sweep_points():
    """0, 1, dyadic breakpoints and interior points of [0, 1]."""
    dyadic = st.builds(lambda j, e: j / 2 ** e, st.integers(0, 64),
                       st.integers(0, 6)).filter(lambda x: x <= 1.0)
    return st.one_of(st.sampled_from([0.0, 1.0]), dyadic,
                     st.floats(0.0, 1.0))


_PRIMES = (2, 3, 5, 7, 11, 13, 31, 97, 127, 211, 251, 293)
_POWERS_OF_TWO = tuple(2 ** e for e in range(1, 9))


@st.composite
def _n_and_point(draw):
    """An index n <= 300 and a point: 0, 1/2, 1, a mesh point k/n or
    interior."""
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from(_PRIMES),
                       st.sampled_from(_POWERS_OF_TWO)))
    x = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.integers(0, n).map(lambda k: k / n),
                       st.floats(0.0, 1.0)))
    return n, x


class TestCosineDftPrefixes:
    """The cosine FFT path against the shared table and the sin^2 form."""

    @settings(max_examples=60, deadline=None)
    @given(case=_n_and_point())
    def test_matches_table_and_closed_form(self, case):
        n, x = case
        sys_ = cosine_system()
        ctx = KernelContext(sys_, n)
        got = ctx.prefixes(x)
        phi_x = system_values(sys_, n, x)
        assert np.abs(got - ctx.prefix_table().T @ phi_x).max() <= 1e-15
        ks = np.arange(1, n + 1)[:, None]
        ts = (np.arange(1, n + 1) / n)[None, :]
        sin2 = 2.0 * SQ2 * np.sin(np.pi * ks * ts) ** 2 / (2 * np.pi * ks) ** 2
        assert np.abs(got - sin2.T @ phi_x).max() <= 1e-15


class TestMeshPrefixHooks:
    """Every system's ``mesh_prefix`` hook against the shared table."""

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(_HOOKED), case=_n_and_point())
    def test_matches_the_table(self, name, case):
        n, x = case
        system = get_system(name)
        ctx = KernelContext(system, n)
        phi_x = system_values(system, n, x)
        got = ctx.prefixes(x)
        assert got.shape == (n,)
        assert np.abs(got - ctx.prefix_table().T @ phi_x).max() <= 1e-15

    def test_sign_rows_past_the_full_ones_are_linear(self):
        # rows past RADEMACHER_FULL_ROWS enter as their slopes alone; their
        # periodic parts, at most 4^(1-k)/32 each, would add less than 2e-19
        ks = np.arange(RADEMACHER_FULL_ROWS + 1, 200)
        us = np.linspace(0.0, 1.0, 257)
        rows = index_table(get_system("rademacher").antideriv2, ks, us)
        linear = np.ldexp(us[None, :], -1 - ks[:, None])
        assert np.abs(rows - linear).sum(axis=0).max() < 2e-19
        w = np.eye(ks[-1])[RADEMACHER_FULL_ROWS:]
        assert np.array_equal(
            get_system("rademacher").mesh_prefix(w),
            np.ldexp(np.arange(1, ks[-1] + 1) / ks[-1], -1 - ks[:, None]))


#: Public functions of an evaluation point x, as (system, context, table of
#: the coefficients of u -> u, x) -> value.
_POINT_CALLS = {
    "boundedness_functional": lambda s, c, t, x: boundedness_functional(c, x),
    "boundedness_functional_naive":
        lambda s, c, t, x: boundedness_functional_naive(c, x),
    "kernel_prefix_integral":
        lambda s, c, t, x: kernel_prefix_integral(c, 0.5, x),
    "antiderivative_kernel": lambda s, c, t, x: antiderivative_kernel(c, 0.3, x),
    "dirichlet_kernel": lambda s, c, t, x: dirichlet_kernel(c, 0.3, x),
    "cell_abs_integral": lambda s, c, t, x: cell_abs_integral(c, 2, x),
    "dirichlet_mean": lambda s, c, t, x: dirichlet_mean(c, x),
    "square_sum_ratio": lambda s, c, t, x: square_sum_ratio(s, x, 8),
    "prefix_mean_linkage": lambda s, c, t, x: prefix_mean_linkage(s, x, 8),
    "partial_sum": lambda s, c, t, x: partial_sum(t, 4, x),
    "partial_sum[array]":
        lambda s, c, t, x: partial_sum(t, 4, np.array([0.5, x])),
    "partial_sum_sweep": lambda s, c, t, x: partial_sum_sweep(t, x),
    "partial_sum_boundedness":
        lambda s, c, t, x: partial_sum_boundedness(t, x),
    "system_values": lambda s, c, t, x: system_values(s, 8, x),
}


class TestSparsePrefixRows:
    """Closed-form paths against the per-prefix quadrature oracle."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["haar", "reflect(haar)", "reflect2(haar)"]),
           n=st.integers(2, 48), x=_sweep_points())
    def test_haar_family_matches_naive(self, name, n, x):
        ctx = KernelContext(get_system(name), n)
        assert abs(boundedness_functional(ctx, x)
                   - boundedness_functional_naive(ctx, x)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 16), x=_sweep_points())
    def test_rademacher_matches_naive(self, n, x):
        # the kernel antiderivative is linear between the 2^n - 1 jumps, so
        # two Gauss nodes per panel keep the oracle exact and affordable
        sys_ = get_system("rademacher")
        ctx = KernelContext(sys_, n, replace(recommended_rule(sys_, n), order=2))
        assert abs(boundedness_functional(ctx, x)
                   - boundedness_functional_naive(ctx, x)) < 1e-12

    def test_rademacher_functional_finite_past_1024(self):
        # element 1025 on has 2^k beyond the largest double
        ctx = KernelContext(get_system("rademacher"), 1030)
        assert np.isfinite(boundedness_functional(ctx, 0.3))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -0.25, 1.5])
    @pytest.mark.parametrize("call", sorted(_POINT_CALLS))
    def test_rejects_x_outside_unit_interval(self, call, x):
        sys_ = haar_system()
        ctx = KernelContext(sys_, 8)
        table = coefficients(ctx, get_function("id"))
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            _POINT_CALLS[call](sys_, ctx, table, x)


def test_compensated_scalar_matches_fsum():
    ctx = KernelContext(cosine_system(), 64)
    u, x = 0.123, 0.456
    phi_x = system_values(cosine_system(), 64, x)
    g_u = np.asarray(cosine_system().antideriv(np.arange(1, 65), u))
    assert antiderivative_kernel(ctx, u, x) == pytest.approx(
        math.fsum(g_u * phi_x), abs=1e-15)
