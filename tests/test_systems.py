from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CATALOG, STEP_CATALOG, gram_tolerance,
                      haar_antideriv2_exact, rademacher_antideriv2_exact)
from ons_lab import (
    InvalidConfig,
    OnsLabError,
    QuadratureRule,
    UnknownFunction,
    UnknownSystem,
    compress_reflect,
    cosine_system,
    cumulative_integral,
    function_catalog,
    function_names,
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
from ons_lab.systems import (
    MAX_LISTED_JUMPS,
    SIGN_SYSTEM_K_MAX,
    breakpoints_upto,
    element_breakpoints,
)

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

    def test_not_piecewise_constant(self):
        # cosine elements have no jumps; the rule resolves their oscillation
        sys_ = cosine_system()
        assert not sys_.piecewise_constant and sys_.period(5) == (1, ())
        assert element_breakpoints(sys_, 5).size == 0
        assert recommended_rule(sys_, 5).panels == 5


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
            rule = QuadratureRule(breakpoints=element_breakpoints(sys_, m))
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
        with pytest.raises(OnsLabError):
            element_breakpoints(rademacher_system(), 30)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, SIGN_SYSTEM_K_MAX))
    def test_period_jump_and_its_pieces_are_exact(self, k):
        # 2^(k-1) periods jumping at 2^-k; the midpoints 2^-(k+1) and
        # 3 * 2^-(k+1) of the first period's two pieces are doubles too
        repeats, jumps = rademacher_system().period(k)
        assert repeats == 2 ** (k - 1)
        assert [Fraction(p) for p in jumps] == [Fraction(1, 2 ** k)]
        edges = np.array([0.0, *jumps, float(Fraction(1, repeats))])
        assert [Fraction(m) for m in (edges[:-1] + edges[1:]) / 2.0] == [
            Fraction(1, 2 ** (k + 1)), Fraction(3, 2 ** (k + 1))]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_period_tiles_to_the_breakpoint_list(self, k):
        # the jumps tiled over every repetition, plus the boundaries
        # between repetitions, are element_breakpoints(k) exactly
        sys_ = rademacher_system()
        repeats, jumps = sys_.period(k)
        tiled = {Fraction(i, repeats) + Fraction(p)
                 for i in range(repeats) for p in jumps}
        tiled |= {Fraction(i, repeats) for i in range(1, repeats)}
        assert [Fraction(p) for p in element_breakpoints(sys_, k)] == sorted(
            tiled)

    def test_gram_with_every_jump_listed_is_bitwise_equal(self):
        # a hook that lists all jumps without repeats sums every row over
        # all of [0, 1] instead of one repetition, to the same bits
        sys_ = rademacher_system()
        G = gram_matrix(sys_, 14)
        listed = gram_matrix(replace(sys_, period=lambda k: (
            1, element_breakpoints(sys_, k))), 14)
        assert np.array_equal(G.view(np.int64), listed.view(np.int64))

    def test_inner_products_past_1024(self):
        sys_ = rademacher_system()
        assert inner_product(sys_, 1, 1024) == 0.0
        assert inner_product(sys_, 1024, 1024) == 1.0
        assert inner_product(sys_, SIGN_SYSTEM_K_MAX, SIGN_SYSTEM_K_MAX) == 1.0
        assert inner_product(sys_, 1, SIGN_SYSTEM_K_MAX) == 0.0

    @pytest.mark.parametrize("k", [SIGN_SYSTEM_K_MAX + 1, 1075, 5000])
    def test_a_large_column_index_is_not_refused(self, k):
        # only the row element's pieces must be doubles; a column element
        # needs its repeat count alone
        sys_ = rademacher_system()
        assert sys_.period(k)[0] == 2 ** (k - 1)
        assert inner_product(sys_, 1, k) == 0.0
        assert inner_product(sys_, k, 1) == 0.0

    @pytest.mark.parametrize("j, k", [(1074, 1074), (1074, 5000),
                                      (1075, 1075), (5000, 5000)])
    def test_a_row_past_the_index_limit_is_refused(self, j, k):
        # at k = 1074 the first piece's midpoint 2^-1075 is no double
        with pytest.raises(InvalidConfig, match=f"element {j}: the pieces"):
            inner_product(rademacher_system(), j, k)


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
                              breakpoints=element_breakpoints(sys_, k))
        numeric = cumulative_integral(lambda u: np.asarray(
            sys_.eval(k, u), dtype=float), grid, rule)
        closed = np.asarray(sys_.antideriv(k, grid), dtype=float)
        assert np.abs(numeric - closed).max() < 1e-12, (k, grid)

    # the reflections' closed-form antideriv2 against one cumulative pass
    # over their antideriv; a probe over 40 random k per system saw at most
    # 3e-17, so 1e-15 absolute leaves a margin of 30
    @pytest.mark.parametrize("name,k_max", [
        ("reflect(cosine)", 1024), ("reflect2(cosine)", 512),
        ("reflect(haar)", 2048), ("reflect2(haar)", 2048),
        ("reflect(rademacher)", 10), ("reflect2(rademacher)", 10)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(),
           us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_reflected_antideriv2_matches_cumulative(self, name, k_max, data,
                                                     us):
        sys_ = get_system(name)
        k = data.draw(st.integers(1, k_max), label="k")
        grid = np.sort(np.array(us))
        rule = QuadratureRule(panels=recommended_rule(sys_, k).panels,
                              breakpoints=element_breakpoints(sys_, k))
        numeric = cumulative_integral(lambda u: np.asarray(
            sys_.antideriv(k, u), dtype=float), grid, rule)
        closed = np.asarray(sys_.antideriv2(k, grid), dtype=float)
        assert np.abs(numeric - closed).max() < 1e-15, (k, grid)


#: Every catalog system plus the reflections of the step systems.
CONTRACT_SYSTEMS = CATALOG + ("reflect2(haar)", "reflect(rademacher)",
                              "reflect2(rademacher)")


class TestRecommendedRule:
    # order 16 and every breakpoint up to k; step systems get 2 panels per
    # segment, the rest max(4, k) to resolve k oscillations
    @pytest.mark.parametrize("name", CONTRACT_SYSTEMS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9, 12])
    def test_order_panels_and_breakpoints(self, name, k):
        sys_ = get_system(name)
        rule = recommended_rule(sys_, k)
        step = "haar" in name or "rademacher" in name
        assert sys_.piecewise_constant == step
        assert rule.order == 16
        assert rule.panels == (2 if step else max(4, k))
        assert rule.breakpoints.tolist() == breakpoints_upto(sys_, k).tolist()


#: Every jump checked against _exact_jumps is a multiple of 2^-_DEPTH.
_DEPTH = 32


def _exact_jumps(base: str, reflections: int, k: int) -> set:
    """Jumps of element k from each system's definition, as exact integer
    multiples of 2^-_DEPTH: ``reflections`` compress-and-reflect steps
    over ``base``."""
    one = 1 << _DEPTH
    if reflections:
        inner = _exact_jumps(base, reflections - 1, k)
        return ({one // 2} | {p // 2 for p in inner}
                | {(one + p) // 2 for p in inner})
    if base == "rademacher":
        return {i << (_DEPTH - k) for i in range(1, 1 << k)}
    if base == "haar" and k > 1:
        s = (k - 1).bit_length() - 1            # 2^s < k <= 2^(s+1)
        j = k - (1 << s)
        return {i << (_DEPTH - s - 1) for i in (2 * j - 2, 2 * j - 1, 2 * j)
                } - {0, one}
    return set()


class TestBreakpointLists:
    # breakpoints_upto against an exact union of per-element sets, kept
    # as integers over one power of two, which is exact and much faster
    # than Fraction sets: every jump is a dyadic double, so the lists must
    # match bit for bit
    @pytest.mark.parametrize("base", ["cosine", "haar", "rademacher"])
    @pytest.mark.parametrize("reflections", [0, 1, 2])
    def test_union_is_bitwise_the_exact_reference(self, base, reflections):
        name = (base, f"reflect({base})", f"reflect2({base})")[reflections]
        sys_ = get_system(name)
        checks = (1, 2, 3, 5, 8, 13, 16)
        if base != "rademacher":
            checks += (64, 513)
        union = set()
        for k in range(1, checks[-1] + 1):
            union |= _exact_jumps(base, reflections, k)
            if k in checks:
                want = np.ldexp(np.array(sorted(union), dtype=float),
                                -_DEPTH)
                got = breakpoints_upto(sys_, k)
                assert got.dtype == np.float64 and not got.flags.writeable
                assert np.array_equal(np.array(got).view(np.int64),
                                      want.view(np.int64)), (name, k)

    def test_no_elements_give_no_breakpoints(self):
        none = breakpoints_upto(haar_system(), 0)
        assert none.dtype == np.float64 and none.tolist() == []

    def test_repeats_tile_the_first_repetition(self):
        # three repetitions, each jumping at its middle
        thirds = replace(haar_system(), period=lambda k: (3, (1 / 6,)))
        assert element_breakpoints(thirds, 1).tolist() == [
            1 / 6, 1 / 3, 1 / 3 + 1 / 6, 2 / 3, 2 / 3 + 1 / 6]

    def test_sign_element_17_is_refused_in_one_line(self):
        with pytest.raises(OnsLabError) as info:
            element_breakpoints(rademacher_system(), 17)
        assert str(info.value) == ("rademacher element 17 has 131071 jumps; "
                                   "breakpoint lists stop at 65535")

    def test_sign_element_16_is_the_last_listed(self):
        pts = element_breakpoints(rademacher_system(), 16)
        assert len(pts) == MAX_LISTED_JUMPS == 2 ** 16 - 1
        assert np.array_equal(pts, np.arange(1, 2 ** 16) / 2 ** 16)

    @pytest.mark.parametrize("name, count", [
        ("reflect(rademacher)", 2 ** 17 - 1),
        ("reflect2(rademacher)", 2 ** 18 - 1)])
    def test_a_hook_that_lists_every_jump_is_not_refused(self, name, count):
        sys_ = get_system(name)
        assert sys_.period(16)[0] == 1
        pts = element_breakpoints(sys_, 16)
        assert len(pts) == count > MAX_LISTED_JUMPS
        assert np.all(np.diff(pts) > 0)

    def test_a_reflection_past_the_cap_is_refused_by_its_base(self):
        with pytest.raises(OnsLabError, match="^rademacher element 17 has"):
            element_breakpoints(get_system("reflect(rademacher)"), 17)


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


class TestHookContract:
    # a mesh hook stands for a closed form: a handle without the closed form
    # would otherwise take the hook's values in place of the numeric path
    @pytest.mark.parametrize("name", tuple(dict.fromkeys(
        CATALOG + STEP_CATALOG)))
    def test_stripping_a_closed_form_needs_its_hook_dropped(self, name):
        system = get_system(name)
        assert system.mesh_prefix is not None
        with pytest.raises(ValueError, match="mesh_prefix needs antideriv2"):
            replace(system, antideriv2=None)
        with pytest.raises(ValueError, match="mesh_prefix needs antideriv2"):
            replace(system, antideriv=None, antideriv2=None)
        no_prefix = {"antideriv": None, "antideriv2": None,
                     "mesh_prefix": None}
        if system.mesh_coefficients is not None:
            with pytest.raises(ValueError,
                               match="mesh_coefficients needs antideriv"):
                replace(system, **no_prefix)
        replace(system, antideriv2=None, mesh_prefix=None)
        replace(system, **no_prefix, mesh_coefficients=None)


def _dyadic_points():
    """Every double in [0, 1] is dyadic; the grid draws hit breakpoints."""
    grid = st.builds(lambda j, e: Fraction(j, 1 << e),
                     st.integers(0, 1 << 20), st.integers(0, 20)).filter(
                         lambda u: u <= 1)
    return st.one_of(grid, st.floats(0.0, 1.0).map(Fraction))


def _assert_close(got: float, exact: float) -> None:
    assert abs(got - exact) <= 8 * np.finfo(float).eps * abs(exact) + 1e-300


class TestSecondAntiderivativeExact:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 4096), u=_dyadic_points())
    def test_haar_matches_fraction_oracle(self, m, u):
        amp = 1.0 if m == 1 else np.sqrt(2.0 ** ((m - 1).bit_length() - 1))
        exact = amp * float(haar_antideriv2_exact(m, u))
        _assert_close(float(haar_system().antideriv2(m, float(u))), exact)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 60), u=_dyadic_points())
    def test_rademacher_matches_fraction_oracle(self, k, u):
        exact = float(rademacher_antideriv2_exact(k, u))
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
        _assert_close(float(second), float(rademacher_antideriv2_exact(k, u)))

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

    @pytest.mark.parametrize("name", STEP_CATALOG)
    def test_step_gram_is_bitwise_the_pairwise_products(self, name):
        sys_ = get_system(name)
        n = 10 if "rademacher" in name else 32
        G = gram_matrix(sys_, n)
        pairs = [(j, k) for j in range(1, n + 1) for k in range(1, n + 1)]
        want = np.array([_pairwise_step_product(sys_, min(j, k), max(j, k))
                         for j, k in pairs]).reshape(n, n)
        assert np.array_equal(G.view(np.int64), want.view(np.int64))
        assert np.array_equal(
            G, np.array([inner_product(sys_, j, k)
                         for j, k in pairs]).reshape(n, n))

    def test_rademacher_256_is_identity_within_four_ulps(self):
        G = gram_matrix(rademacher_system(), 256)
        assert np.abs(G - np.eye(256)).max() <= 4 * np.finfo(float).eps


def _pairwise_step_product(system, j: int, k: int) -> float:
    """Reference step-system inner product, one pair j <= k at a time:
    summed over the pieces of whichever element has fewer of them in one
    repetition of the element that repeats less often (when the other's
    repeat count is a multiple of it), then repeated exactly."""
    (rj, jumps_j), (rk, jumps_k) = system.period(j), system.period(k)
    count = min(rj, rk) if max(rj, rk) % min(rj, rk) == 0 else 1

    def pieces(repeats: int, jumps) -> int:
        return repeats // count * (len(jumps) + 1)

    (coarse, repeats, jumps), fine = (
        ((j, rj, jumps_j), k) if pieces(rj, jumps_j) <= pieces(rk, jumps_k)
        else ((k, rk, jumps_k), j))
    # the coarse element's jumps tiled over its repetitions in the window
    inner = {Fraction(i, repeats) + Fraction(p)
             for i in range(repeats // count) for p in jumps}
    inner |= {Fraction(i, repeats) for i in range(1, repeats // count)}
    edges = np.array([0.0, *map(float, sorted(inner)),
                      float(Fraction(1, count))])
    values = np.asarray(system.eval(coarse, (edges[:-1] + edges[1:]) / 2.0))
    one_window = float(np.dot(values, np.diff(system.antideriv(fine, edges))))
    return float(count * Fraction(one_window))


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
        assert 0.5 in element_breakpoints(once, 2)
        assert 0.25 in element_breakpoints(once, 2)


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
        # f(1) comes from eval; these are the values the catalog once stored
        stored = {"one": 1.0, "id": 1.0, "cos-bump": 0.0,
                  "g-compressed": 0.0, "h-compressed": 0.0, "half-square": 0.5}
        for spec in function_catalog():
            assert type(spec.value_at_1) is float
            assert spec.value_at_1 == stored[spec.name]

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

    @pytest.mark.parametrize("name", function_names())
    def test_specs_are_built_once_and_shared(self, name):
        spec = get_function(name)
        assert get_function(name) is spec
        assert get_function(f" {name} ") is spec
        assert [s for s in function_catalog() if s.name == name][0] is spec


def test_system_values_matches_scalar_eval():
    sys_ = get_system("reflect(haar)")
    x = 0.37
    vec = system_values(sys_, 12, x)
    for k in range(1, 13):
        assert vec[k - 1] == pytest.approx(float(sys_.eval(k, x)), abs=1e-15)
