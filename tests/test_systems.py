import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG, gram_tolerance
from ons_lab import (
    InvalidConfig,
    QuadratureRule,
    UnknownFunction,
    UnknownSystem,
    compress_reflect,
    cosine_system,
    cumulative_integral,
    function_catalog,
    get_function,
    get_system,
    gram_matrix,
    haar_system,
    inner_product,
    integrate,
    lipschitz_quotient,
    rademacher_system,
    recommended_rule,
    system_values,
)
from ons_lab.systems import SIGN_SYSTEM_K_MAX

SQ2 = np.sqrt(2.0)


class TestCosine:
    def test_eval_at_zero(self):
        assert cosine_system().eval(1, 0.0) == pytest.approx(SQ2)

    def test_antideriv_quarter(self):
        assert cosine_system().antideriv(1, 0.25) == pytest.approx(
            SQ2 / (2 * np.pi))

    def test_cross_orthogonality(self):
        sys_ = cosine_system()
        res = integrate(lambda u: sys_.eval(2, u) * sys_.eval(3, u),
                        recommended_rule(sys_, 3))
        assert abs(res.value) < 1e-10

    def test_smooth_flags(self):
        sys_ = cosine_system()
        assert sys_.smooth and not sys_.piecewise_constant
        assert sys_.breakpoints(5) == ()


class TestHaar:
    def test_block_two_values(self):
        sys_ = haar_system()
        assert sys_.eval(2, 0.25) == 1.0
        assert sys_.eval(2, 0.75) == -1.0

    def test_normalization(self):
        sys_ = haar_system()
        res = integrate(lambda u: sys_.eval(3, u) ** 2,
                        recommended_rule(sys_, 3))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
    def test_antiderivative_peak_within_block_bound(self, s):
        # every element in block s has |int_0^u| <= 2^{-s/2}
        sys_ = haar_system()
        us = np.linspace(0.0, 1.0, 1025)
        for m in range(2 ** s + 1, 2 ** (s + 1) + 1):
            peak = np.abs(np.asarray(sys_.antideriv(m, us))).max()
            assert peak <= 2.0 ** (-s / 2) + 1e-15

    def test_antideriv_matches_numeric_on_dyadic_grid(self):
        sys_ = haar_system()
        grid = np.arange(257) / 256
        for m in (1, 2, 3, 5, 9, 17, 33):
            rule = QuadratureRule(breakpoints=sys_.breakpoints(m),
                                  abs_tol=1e-13)
            numeric = cumulative_integral(lambda u, m=m: np.asarray(
                sys_.eval(m, u), dtype=float), grid, rule)
            closed = np.asarray(sys_.antideriv(m, grid), dtype=float)
            assert np.abs(numeric - closed).max() < 1e-12

    def test_right_continuity_at_interior_jump(self):
        sys_ = haar_system()
        # X_2 jumps at 1/2; the stored value there is the right limit
        assert sys_.eval(2, 0.5) == -1.0


class TestRademacher:
    def test_first_element_positive_on_first_half(self):
        assert rademacher_system().eval(1, 0.25) == 1.0

    def test_orthogonality(self):
        sys_ = rademacher_system()
        assert abs(inner_product(sys_, 1, 2)) < 1e-15

    def test_antideriv_vanishes_at_one(self):
        assert rademacher_system().antideriv(1, 1.0) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 7, 1075, 5000])
    def test_value_at_one_is_the_left_limit(self, k):
        assert rademacher_system().eval(k, 1.0) == -1.0

    def test_large_index_breakpoints_refuse_enumeration(self):
        from ons_lab import OnsLabError
        with pytest.raises(OnsLabError):
            rademacher_system().breakpoints(30)

    def test_windowed_breakpoints(self):
        sys_ = rademacher_system()
        pts = sys_.breakpoints_in(20, 0.0, 2.0 ** -18)
        assert len(pts) == 3
        assert all(0.0 < p < 2.0 ** -18 for p in pts)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, SIGN_SYSTEM_K_MAX), lo=st.floats(0.0, 1.0),
           width=st.integers(0, 40))
    def test_windowed_breakpoints_are_exact(self, k, lo, width):
        # every j / 2^k strictly inside (lo, hi), each exactly; lo is
        # scaled below 2^(52 - k), so j < 2^53 makes j / 2^k a double, and
        # hi lies a few jumps further
        lo = math.ldexp(lo, min(0, 52 - k))
        hi = min(1.0, lo + width * 2.0 ** -k)
        want = [Fraction(j, 2 ** k)
                for j in range(math.floor(Fraction(lo) * 2 ** k),
                               math.ceil(Fraction(hi) * 2 ** k) + 1)
                if Fraction(lo) < Fraction(j, 2 ** k) < Fraction(hi)]
        got = rademacher_system().breakpoints_in(k, lo, hi)
        assert [Fraction(p) for p in got] == want

    def test_windowed_breakpoints_refuse_what_doubles_cannot_hold(self):
        sys_ = rademacher_system()
        with pytest.raises(InvalidConfig, match="element 1074: jumps"):
            sys_.breakpoints_in(1074, 0.0, 2.0 ** -1073)
        with pytest.raises(InvalidConfig, match="are not doubles"):
            sys_.breakpoints_in(60, 0.5, 0.5 + 2.0 ** -45)

    def test_inner_products_past_1024(self):
        sys_ = rademacher_system()
        assert inner_product(sys_, 1, 1024) == 0.0
        assert inner_product(sys_, 1024, 1024) == 1.0
        assert inner_product(sys_, SIGN_SYSTEM_K_MAX, SIGN_SYSTEM_K_MAX) == 1.0
        assert inner_product(sys_, 1, SIGN_SYSTEM_K_MAX) == 0.0


class TestAntiderivativeConsistency:
    @pytest.mark.parametrize("name",CATALOG)
    def test_closed_form_matches_cumulative(self, name):
        sys_ = get_system(name)
        grid = np.linspace(0.0, 1.0, 101)
        for k in (1, 2, 3, 7):
            rule = recommended_rule(sys_, k)
            numeric = cumulative_integral(lambda u, k=k: np.asarray(
                sys_.eval(k, u), dtype=float), grid, rule)
            closed = np.asarray(sys_.antideriv(k, grid), dtype=float)
            assert np.abs(numeric - closed).max() < 1e-9

    def test_second_antiderivative_matches_numeric(self):
        for name in CATALOG + ("reflect2(haar)", "reflect(rademacher)"):
            sys_ = get_system(name)
            grid = np.linspace(0.0, 1.0, 33)
            for k in (1, 2, 3, 7):
                rule = recommended_rule(sys_, k)
                numeric = cumulative_integral(lambda u, k=k: np.asarray(
                    sys_.antideriv(k, u), dtype=float), grid, rule)
                closed = np.asarray(sys_.antideriv2(k, grid), dtype=float)
                assert np.abs(numeric - closed).max() < 1e-9, (name, k)


class TestRandomAntiderivatives:
    # the fixed-index checks above cover k in {1, 2, 3, 7}; these draw k.
    # Panels follow recommended_rule, which resolves a smooth element's
    # oscillation; step elements are exact between their breakpoints.
    @pytest.mark.parametrize("name,k_max", [
        ("cosine", 2048), ("haar", 2048), ("rademacher", 10),
        ("reflect(cosine)", 1024), ("reflect2(cosine)", 512),
        ("reflect2(haar)", 2048), ("reflect(rademacher)", 10)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(),
           us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_antideriv_matches_cumulative(self, name, k_max, data, us):
        sys_ = get_system(name)
        k = data.draw(st.integers(1, k_max), label="k")
        grid = np.sort(np.array(us))
        rule = QuadratureRule(panels=recommended_rule(sys_, k).panels,
                              breakpoints=sys_.breakpoints(k), abs_tol=1e-13)
        numeric = cumulative_integral(lambda u: np.asarray(
            sys_.eval(k, u), dtype=float), grid, rule)
        closed = np.asarray(sys_.antideriv(k, grid), dtype=float)
        assert np.abs(numeric - closed).max() < 1e-12, (k, grid)


#: Every catalog system plus the reflections of the step systems.
CONTRACT_SYSTEMS = CATALOG + ("reflect2(haar)", "reflect(rademacher)",
                              "reflect2(rademacher)")


class TestBroadcastingContract:
    # evaluators take (k, u) tables natively: a table is bitwise the
    # scalar calls, and a scalar call gives a Python float
    @pytest.mark.parametrize("fn", ["eval", "antideriv", "antideriv2"])
    @pytest.mark.parametrize("name", CONTRACT_SYSTEMS)
    def test_table_is_bitwise_the_scalar_calls(self, name, fn):
        func = getattr(get_system(name), fn)
        rng = np.random.default_rng(11)
        us = np.concatenate(([0.0, 0.25, 0.5, 1.0, 0.1, 0.4999, 0.75,
                              1e-300], rng.random(8), rng.random(4) / 7))
        ks = np.array([1, 2, 3, 4, 5, 8, 13, 64, 257, 1100])
        if "rademacher" in name:
            ks = np.concatenate((ks, [1074, 1075, 1076, 5000]))
        table = func(ks[:, None], us[None, :])
        assert table.shape == (len(ks), len(us))
        scalars = [[func(int(k), float(u)) for u in us] for k in ks]
        assert all(type(v) is float for row in scalars for v in row)
        assert np.array_equal(np.array(scalars).view(np.int64),
                              np.asarray(table, dtype=float).view(np.int64))


def _dyadic_points():
    """Every double in [0, 1] is dyadic; the grid draws hit breakpoints."""
    grid = st.builds(lambda j, e: Fraction(j, 1 << e),
                     st.integers(0, 1 << 20), st.integers(0, 20)).filter(
                         lambda u: u <= 1)
    return st.one_of(grid, st.floats(0.0, 1.0).map(Fraction))


def _haar_antideriv2_exact(m: int, u: Fraction) -> Fraction:
    """int_0^u int_0^t X_m, divided by the amplitude 2^(s/2) for m >= 2."""
    if m == 1:
        return u * u / 2
    block = 1 << ((m - 1).bit_length() - 1)
    j = m - block
    a, b = Fraction(j - 1, block), Fraction(j, block)
    c, half = (a + b) / 2, Fraction(1, 2 * block)
    v = min(max(u, a), b)
    return (v - a) ** 2 / 2 if v < c else half * half - (b - v) ** 2 / 2


def _rademacher_antideriv2_exact(k: int, u: Fraction) -> Fraction:
    period = Fraction(1, 1 << (k - 1))
    whole = u // period
    y = u - whole * period
    within = (y * y / 2 if y < period / 2
              else period * period / 4 - (period - y) ** 2 / 2)
    return whole * period * period / 4 + within


def _assert_close(got: float, exact: float) -> None:
    assert abs(got - exact) <= 8 * np.finfo(float).eps * abs(exact) + 1e-300


class TestSecondAntiderivativeExact:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 4096), u=_dyadic_points())
    def test_haar_matches_fraction_oracle(self, m, u):
        amp = 1.0 if m == 1 else np.sqrt(2.0 ** ((m - 1).bit_length() - 1))
        exact = amp * float(_haar_antideriv2_exact(m, u))
        _assert_close(float(haar_system().antideriv2(m, float(u))), exact)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 60), u=_dyadic_points())
    def test_rademacher_matches_fraction_oracle(self, k, u):
        exact = float(_rademacher_antideriv2_exact(k, u))
        _assert_close(float(rademacher_system().antideriv2(k, float(u))),
                      exact)


class TestRademacherLargeIndex:
    # 2^k overflows a double from k = 1024 and 2^(1-k) underflows from
    # k = 1076; the closed forms must stay finite and exact across both
    @settings(max_examples=150, deadline=None)
    @given(k=st.one_of(st.integers(1, 10_000), st.integers(500, 1100)),
           u=_dyadic_points())
    def test_matches_fraction_oracle_up_to_ten_thousand(self, k, u):
        sys_ = rademacher_system()
        period = Fraction(1, 1 << (k - 1))
        value = sys_.eval(k, float(u))
        first = sys_.antideriv(k, float(u))
        second = sys_.antideriv2(k, float(u))
        assert np.isfinite([value, first, second]).all()
        assert value == (-1 if u == 1 or (u * (1 << k)) // 1 % 2 else 1)
        # the triangle wave min(y, p - y) is exact on doubles
        y = u % period
        assert first == float(min(y, period - y))
        _assert_close(float(second), float(_rademacher_antideriv2_exact(k, u)))

    @pytest.mark.parametrize("u", [7.18e-286, 5e-324, 0.1, 0.210365])
    def test_antideriv_keeps_tiny_and_decimal_points_exact(self, u):
        assert rademacher_system().antideriv(1, u) == u


class TestGram:
    @pytest.mark.parametrize("name", CATALOG)
    def test_identity_32(self, name):
        sys_ = get_system(name)
        G = gram_matrix(sys_, 32)
        assert np.abs(G - np.eye(32)).max() < gram_tolerance(sys_)

    @pytest.mark.parametrize("name", CATALOG)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_row_is_identity(self, name, data):
        # step systems take exact products, the sign system up to the
        # index whose jumps are still doubles; quadrature rules for smooth
        # elements grow with k, so those rows stay short
        sys_ = get_system(name)
        top = SIGN_SYSTEM_K_MAX if sys_.piecewise_constant else 40
        k = data.draw(st.integers(1, top), label="k")
        j_top = min(k + 8, top) if sys_.piecewise_constant else k + 8
        js = data.draw(st.lists(st.integers(1, j_top), min_size=1,
                                max_size=12, unique=True), label="js")
        row = np.array([inner_product(sys_, j, k) for j in js])
        want = np.array([float(j == k) for j in js])
        assert np.abs(row - want).max() < gram_tolerance(sys_), (js, k)


class TestCompressReflect:
    def test_zero_mean_up_to_64(self):
        once = compress_reflect(cosine_system())
        rule = recommended_rule(once, 64)
        for n in range(1, 65):
            val = integrate(lambda u, n=n: np.asarray(once.eval(n, u),
                                                      dtype=float), rule).value
            assert abs(val) < 1e-9

    def test_first_moment_vanishes_after_two_reflections(self):
        twice = compress_reflect(compress_reflect(cosine_system()))
        rule = recommended_rule(twice, 64)
        for n in range(1, 65):
            val = integrate(lambda u, n=n: u * np.asarray(
                twice.eval(n, u), dtype=float), rule).value
            assert abs(val) < 1e-9

    def test_orthonormality_preserved(self):
        once = compress_reflect(haar_system())
        G = gram_matrix(once, 16)
        assert np.abs(G - np.eye(16)).max() < 1e-12

    @pytest.mark.parametrize("name", ["cosine", "haar"])
    def test_halves_follow_defining_formulas(self, name):
        # the point 1/2 belongs to the right half; (k, u) tables broadcast
        base, once = get_system(name), get_system(f"reflect({name})")
        a, a2 = base.antideriv, base.antideriv2
        us = np.array([0.0, 0.1, 0.25, 0.4999, 0.5, 0.6, 0.75, 0.9, 1.0])
        ks = np.array([1, 2, 5])
        tables = [np.asarray(fn(ks[:, None], us[None, :]))
                  for fn in (once.eval, once.antideriv, once.antideriv2)]
        for r, k in enumerate(ks):
            for j, u in enumerate(us):
                if u < 0.5:
                    want = (base.eval(k, 2 * u), 0.5 * a(k, 2 * u),
                            0.25 * a2(k, 2 * u))
                else:
                    v = 2.0 * (u - 0.5)
                    want = (-base.eval(k, v), 0.5 * a(k, 1.0) - 0.5 * a(k, v),
                            0.25 * a2(k, 1.0) + 0.5 * a(k, 1.0) * (u - 0.5)
                            - 0.25 * a2(k, v))
                got = (once.eval(k, u), once.antideriv(k, u),
                       once.antideriv2(k, u))
                assert got == pytest.approx(want, abs=1e-15)
                assert [t[r, j] for t in tables] == pytest.approx(want,
                                                                  abs=1e-15)

    def test_breakpoints_contain_midpoint_and_scaled(self):
        once = compress_reflect(haar_system())
        assert 0.5 in once.breakpoints(2)
        assert 0.25 in once.breakpoints(2)


class TestLookup:
    def test_reflect_names_resolve(self):
        assert get_system("reflect(cosine)").name == "reflect(cosine)"
        assert get_system("reflect2(haar)").name == "reflect(reflect(haar))"

    def test_unknown_system(self):
        with pytest.raises(UnknownSystem):
            get_system("walsh")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            get_function("sigmoid")


class TestFunctionCatalog:
    def test_constant(self):
        assert get_function("one").eval(0.7) == 1.0

    def test_bump_center_value(self):
        assert get_function("cos-bump").eval(0.5) == pytest.approx(0.0)

    def test_compressed_vanishes_on_right_half(self):
        assert get_function("g-compressed").eval(0.75) == 0.0
        assert get_function("h-compressed").eval(0.3) == 0.0

    def test_value_at_1_matches_eval(self):
        for spec in function_catalog():
            assert spec.value_at_1 == pytest.approx(
                float(np.asarray(spec.eval(1.0))), abs=1e-14)

    # largest slope of each derivative: underlying second-derivative scale
    _LIP = {"one": 0.0, "id": 0.0, "cos-bump": 16 * np.pi ** 2,
            "g-compressed": 64 * np.pi ** 2,
            "h-compressed": 256 * np.pi ** 2, "half-square": 1.0}

    def test_derivatives_have_bounded_quotients(self):
        for spec in function_catalog():
            assert spec.class_tag == "CL"
            assert spec.deriv is not None
            quotient = lipschitz_quotient(spec.deriv, samples=513)
            assert quotient <= self._LIP[spec.name] * 1.01 + 1e-12

    def test_compressed_bump_continuous_at_joint(self):
        g = get_function("g-compressed")
        assert abs(float(g.eval(0.5 - 1e-9)) - float(g.eval(0.5))) < 1e-6


def test_system_values_matches_scalar_eval():
    sys_ = get_system("reflect(haar)")
    x = 0.37
    vec = system_values(sys_, 12, x)
    for k in range(1, 13):
        assert vec[k - 1] == pytest.approx(float(sys_.eval(k, x)), abs=1e-15)
