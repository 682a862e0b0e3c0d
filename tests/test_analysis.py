from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ons_lab import (
    ClassificationThresholds,
    InvalidConfig,
    KernelContext,
    SystemHandle,
    boundedness_experiment,
    boundedness_transfer,
    boundedness_values,
    cosine_system,
    extremal_lipschitz,
    extremal_pairing_sweep,
    get_function,
    get_system,
    growth_report,
    haar_system,
    inverse_square_root_sum,
    kernel_section,
    lipschitz_quotient,
    pairing_split,
    partial_sum_boundedness,
    prefix_mean_linkage,
    square_sum_ratio,
)


class TestGrowthReport:
    def test_constant_sequence_is_bounded(self):
        rep = growth_report("const", range(1, 65), np.full(64, 3.7))
        assert rep.classification == "bounded"
        assert rep.bound_estimate == pytest.approx(3.7)
        assert rep.slope_log == pytest.approx(0.0, abs=1e-12)

    def test_zero_sequence_is_bounded(self):
        rep = growth_report("zero", range(1, 33), np.zeros(32))
        assert rep.classification == "bounded"

    def test_logarithmic_growth_is_growing(self):
        ns = np.arange(2, 257)
        rep = growth_report("log", ns, np.log(ns))
        assert rep.classification == "growing"
        assert rep.slope_log == pytest.approx(1.0, abs=1e-6)

    def test_slow_drift_is_inconclusive(self):
        ns = np.arange(2, 257)
        rep = growth_report("drift", ns, 0.2 * np.log(ns))
        assert rep.classification == "inconclusive"

    def test_short_sequence_is_inconclusive(self):
        rep = growth_report("short", [1, 2, 3], [1.0, 1.0, 1.0])
        assert rep.classification == "inconclusive"

    def test_thresholds_override(self):
        ns = np.arange(2, 257)
        loose = ClassificationThresholds(slope_growing=0.1)
        rep = growth_report("drift", ns, 0.2 * np.log(ns), loose)
        assert rep.classification == "growing"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=64))
    def test_running_max_non_decreasing(self, values):
        rep = growth_report("prop", range(1, len(values) + 1), values)
        rm = np.asarray(rep.running_max)
        assert np.all(np.diff(rm) >= 0.0)
        assert rep.bound_estimate == rm[-1]

    def test_deterministic(self):
        values = np.abs(np.sin(np.arange(1, 65)))
        a = growth_report("det", range(1, 65), values)
        b = growth_report("det", range(1, 65), values)
        assert a == b

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_raise(self, bad):
        values = np.ones(16)
        values[9] = bad
        with pytest.raises(InvalidConfig, match="n=10"):
            growth_report("bad", range(1, 17), values)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            growth_report("bad", [1, 2], [1.0])


class TestSquareSumRatio:
    def test_single_index_value(self):
        sys_ = haar_system()
        rep = square_sum_ratio(sys_, 0.3, 8)
        assert rep.values[0] == pytest.approx(float(sys_.eval(1, 0.3)) ** 2)

    def test_cosine_decays_with_uniform_bound(self):
        rep = square_sum_ratio(cosine_system(), 0.3, 256)
        ns = np.arange(1, 257, dtype=float)
        assert np.all(np.asarray(rep.values) <= 2.0 / np.sqrt(ns) + 1e-12)
        assert rep.classification == "bounded"

    def test_haar_bounded(self):
        rep = square_sum_ratio(haar_system(), 0.3, 256)
        assert rep.classification == "bounded"


class TestPartialSumBoundedness:
    def test_cosine_constant_all_zero(self):
        rep = partial_sum_boundedness(cosine_system(), get_function("one"),
                                      0.3, 64)
        assert max(rep.values) < 1e-11
        assert rep.classification == "bounded"

    def test_cosine_identity_all_zero(self):
        rep = partial_sum_boundedness(cosine_system(), get_function("id"),
                                      0.3, 64)
        assert max(rep.values) < 1e-11
        assert rep.classification == "bounded"

    def test_twice_reflected_kills_identity_coefficients(self):
        sys_ = get_system("reflect2(cosine)")
        rep = partial_sum_boundedness(sys_, get_function("id"), 0.3, 64)
        assert max(rep.values) < 1e-9
        assert rep.classification == "bounded"


class TestBoundednessSweeps:
    def test_smoke_shape(self):
        rep = boundedness_experiment(haar_system(), [0.3], 8)[0.3]
        assert len(rep.indices) == 7
        assert rep.indices[0] == 2 and rep.indices[-1] == 8

    def test_experiment_smoke(self):
        reports = boundedness_experiment(haar_system(), (0.0, 0.5), 8)
        assert set(reports) == {0.0, 0.5}
        assert all(len(r.indices) == 7 for r in reports.values())

    def test_default_grids(self):
        for sys_ in (cosine_system(), haar_system()):
            reports = boundedness_experiment(sys_, n_max=8)
            assert len(reports) == 4

    def test_values_shared_context_match_standalone(self):
        matrix = boundedness_values(haar_system(), (0.2, 0.7), 12)
        for j, x in enumerate((0.2, 0.7)):
            for i, n in enumerate(range(2, 13)):
                ctx = KernelContext(haar_system(), n)
                from ons_lab import boundedness_functional
                assert matrix[j, i] == pytest.approx(
                    boundedness_functional(ctx, x), abs=1e-12)


def test_inverse_square_root_sum():
    vals = inverse_square_root_sum([1, 2])
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(np.sqrt(1.25))


class TestTransfer:
    def test_cosine_bump(self):
        cases = boundedness_transfer(cosine_system(), get_function("cos-bump"),
                                     (0.3,), 256)
        case = cases[0]
        assert case.hypothesis_bounded
        assert case.conclusion_bounded
        assert case.consistent

    def test_haar_half_square(self):
        cases = boundedness_transfer(haar_system(),
                                     get_function("half-square"),
                                     (1.0 / 3.0,), 256)
        assert cases[0].hypothesis_bounded
        assert cases[0].conclusion_bounded

    def test_degenerate_constant_target(self):
        cases = boundedness_transfer(cosine_system(), get_function("one"),
                                     (0.3,), 64)
        assert cases[0].conclusion_bounded
        assert cases[0].consistent

    def test_rejects_non_cl_function(self):
        from ons_lab import FunctionSpec
        lip_only = FunctionSpec(name="corner", eval=lambda u: np.abs(
            np.asarray(u) - 0.5), deriv=None, class_tag="Lip1")
        with pytest.raises(ValueError):
            boundedness_transfer(cosine_system(), lip_only, (0.3,), 16)


class TestExtremalLipschitz:
    def test_vanishes_at_zero_exactly(self):
        ctx = KernelContext(cosine_system(), 8)
        f = extremal_lipschitz(ctx, 0.3)
        assert float(np.asarray(f.eval(0.0))) == 0.0

    @pytest.mark.parametrize("n", [4, 8])
    def test_lipschitz_modulus(self, n):
        ctx = KernelContext(cosine_system(), n)
        f = extremal_lipschitz(ctx, 0.3, grid_size=256)
        assert lipschitz_quotient(f.eval, samples=257) <= 1.0 + 1.0 / 256

    def test_class_tag(self):
        ctx = KernelContext(cosine_system(), 4)
        f = extremal_lipschitz(ctx, 0.3, grid_size=128)
        assert f.class_tag == "Lip1"
        assert f.deriv is None

    def test_rejects_tiny_grid(self):
        ctx = KernelContext(cosine_system(), 4)
        with pytest.raises(ValueError):
            extremal_lipschitz(ctx, 0.3, grid_size=32)

    def test_split_reproduces_direct_pairing(self):
        for n in (4, 8, 16):
            ctx = KernelContext(cosine_system(), n)
            f_n = extremal_lipschitz(ctx, 0.3)
            split = pairing_split(ctx, f_n, 0.3)
            assert abs(split.residual) < 1e-5

    def test_prefix_rounding_noise_gives_zero_slope(self):
        # for haar n = 4 at t = 0.3 the prefix on [0, 1/4] is exactly
        # y^2/2 + y^2/2 - sqrt(2) sqrt(2) y^2/2 = 0, which rounds to ~1e-19
        f_n = extremal_lipschitz(KernelContext(haar_system(), 4), 0.3)
        ys = np.linspace(0.0, 0.25, 257)
        assert np.array_equal(f_n.eval(ys), np.zeros(257))

    def test_quadrature_prefix_path(self):
        # step system stripped of its closed-form double antiderivative
        ctx = KernelContext(replace(haar_system(), antideriv2=None), 8)
        f_n = extremal_lipschitz(ctx, 0.3, grid_size=256)
        assert float(np.asarray(f_n.eval(0.0))) == 0.0
        split = pairing_split(ctx, f_n, 0.3)
        assert abs(split.residual) < 1e-5

    @pytest.mark.parametrize("t", [float("nan"), -0.25, 1.5])
    def test_rejects_point_outside_unit_interval(self, t):
        ctx = KernelContext(cosine_system(), 4)
        f_n = extremal_lipschitz(ctx, 0.3, grid_size=64)
        for fn in (lambda: extremal_lipschitz(ctx, t),
                   lambda: pairing_split(ctx, f_n, t),
                   lambda: kernel_section(ctx.system, 4, t)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                fn()

    def test_sweep_report(self):
        rows, report = extremal_pairing_sweep(cosine_system(), 0.3, (4, 8),
                                              grid_size=256)
        assert [r[0] for r in rows] == [4, 8]
        assert report.indices == (4, 8)


class TestPrefixMeanLinkage:
    def test_cosine_vacuous_premise(self):
        report = prefix_mean_linkage(cosine_system(), 0.3, 64)
        assert report.consistent
        assert report.antiderivative_report.classification == "bounded"

    def test_growing_kernel_mean_forces_growing_identity_sums(self):
        # repeated single function: not orthonormal, but the by-parts
        # identity behind the linkage never needs orthonormality
        sq3 = np.sqrt(3.0)
        repeated = SystemHandle(
            name="repeated-line",
            eval=lambda k, u: np.broadcast_to(
                sq3 * (1.0 - 2.0 * np.asarray(u, dtype=float)),
                np.broadcast(np.asarray(k), np.asarray(u)).shape),
            antideriv=lambda k, u: np.broadcast_to(
                sq3 * (np.asarray(u, dtype=float)
                       - np.asarray(u, dtype=float) ** 2),
                np.broadcast(np.asarray(k), np.asarray(u)).shape),
        )
        report = prefix_mean_linkage(repeated, 0.0, 64)
        assert report.dirichlet_report.classification == "bounded"
        assert report.antiderivative_report.classification == "growing"
        assert report.identity_report.classification == "growing"
        assert report.consistent
