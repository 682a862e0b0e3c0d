from fractions import Fraction

import numpy as np
import pytest

from conftest import CATALOG, riemann_midpoint
from ons_lab import (
    FunctionSpec,
    IndexOutOfRange,
    KernelContext,
    MissingDerivative,
    coefficients,
    cosine_system,
    get_function,
    get_system,
    haar_system,
    kernel_section,
    partial_sum,
    partial_sum_by_parts,
    partial_sum_sweep,
    summation_identity,
)
from ons_lab.systems import breakpoints_upto, eval_matrix

SQ2 = np.sqrt(2.0)


class TestCoefficients:
    def test_cosine_of_constant_vanish(self):
        table = coefficients(cosine_system(), get_function("one"), 8)
        assert np.abs(table.coeffs).max() < 1e-12

    def test_cosine_of_identity_vanish(self):
        table = coefficients(cosine_system(), get_function("id"), 8)
        assert np.abs(table.coeffs).max() < 1e-12

    def test_haar_identity_second_coefficient(self):
        table = coefficients(haar_system(), get_function("id"), 4)
        assert table.coeffs[1] == pytest.approx(-0.25, abs=1e-13)

    def test_fresh_quadrature_agreement(self):
        # stored coefficients against per-entry integrals
        from ons_lab import integrate, recommended_rule
        sys_ = get_system("reflect(cosine)")
        f = get_function("half-square")
        table = coefficients(sys_, f, 6)
        rule = recommended_rule(sys_, 6)
        for k in range(1, 7):
            fresh = integrate(lambda u, k=k: np.asarray(f.eval(u)) * np.asarray(
                sys_.eval(k, u), dtype=float), rule).value
            assert abs(table.coeffs[k - 1] - fresh) < 2e-10

    @pytest.mark.parametrize("name, n", [("rademacher", 14), ("haar", 512),
                                         ("reflect(haar)", 64)])
    def test_step_coefficients_match_fraction_oracle(self, name, n):
        # f = u^2/2 has F = u^3/6.  Element k is +-amp_k or 0 on each cell
        # between dyadic edges a_j / D, so C_k / amp_k is exactly the signed
        # sum of the cells' increments (a_{j+1}^3 - a_j^3) / (6 D^3)
        sys_ = get_system(name)
        edges = np.array([0.0, *breakpoints_upto(sys_, n), 1.0])
        D = max(Fraction(e).denominator for e in edges)
        a = [int(Fraction(e) * D) for e in edges]
        steps = [hi ** 3 - lo ** 3 for lo, hi in zip(a, a[1:])]
        values = eval_matrix(sys_, n, (edges[:-1] + edges[1:]) / 2.0)
        got = coefficients(sys_, get_function("half-square"), n).coeffs
        for k in range(n):
            amp = np.abs(values[k]).max()
            signs = (values[k] / amp).astype(int).tolist()   # exact +-1, 0
            want = Fraction(sum(s * d for s, d in zip(signs, steps) if s),
                            6 * D ** 3)
            assert abs(Fraction(got[k] / amp) - want) <= 1e-15, k + 1


class TestPartialSum:
    def test_zero_coefficients_give_zero(self):
        table = coefficients(cosine_system(), get_function("one"), 8)
        for n in (1, 4, 8):
            assert abs(partial_sum(table, n, 0.3)) < 1e-11

    def test_haar_identity_quarter_point(self):
        table = coefficients(haar_system(), get_function("id"), 2)
        assert partial_sum(table, 2, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_out_of_range(self):
        table = coefficients(haar_system(), get_function("id"), 4)
        with pytest.raises(IndexOutOfRange):
            partial_sum(table, 5, 0.5)

    def test_sweep_matches_individual_sums(self):
        table = coefficients(haar_system(), get_function("half-square"), 16)
        sums = partial_sum_sweep(table, 0.3)
        for n in (1, 5, 16):
            assert sums[n - 1] == pytest.approx(partial_sum(table, n, 0.3),
                                                abs=1e-13)

    def test_linearity(self):
        sys_ = haar_system()
        f, g = get_function("half-square"), get_function("cos-bump")
        alpha, beta = 0.7, -1.3
        combo = FunctionSpec(
            name="combo",
            eval=lambda u: alpha * np.asarray(f.eval(u)) + beta * np.asarray(
                g.eval(u)),
            deriv=None, class_tag="continuous")
        t_f = coefficients(sys_, f, 16)
        t_g = coefficients(sys_, g, 16)
        t_c = coefficients(sys_, combo, 16)
        for n in (2, 9, 16):
            for x in (0.2, 0.8):
                lhs = partial_sum(t_c, n, x)
                rhs = alpha * partial_sum(t_f, n, x) + beta * partial_sum(
                    t_g, n, x)
                assert abs(lhs - rhs) < 1e-10


class TestByPartsSplit:
    def test_identity_function_on_cosine(self):
        # all cosine coefficients of u vanish, so both routes give zero
        split = partial_sum_by_parts(KernelContext(cosine_system(), 4),
                                     get_function("id"), 0.2)
        assert abs(split.partial_sum) < 1e-10
        assert abs(split.boundary_term - split.derivative_term) < 1e-8

    def test_half_square_on_cosine_independent_oracle(self):
        sys_, f = cosine_system(), get_function("half-square")
        n, x = 8, 0.5
        split = partial_sum_by_parts(KernelContext(sys_, n), f, x)

        ks = np.arange(1, n + 1)
        phi_x = SQ2 * np.cos(2 * np.pi * ks * x)

        def boundary_integrand(u):
            return (SQ2 * np.cos(2 * np.pi * ks[:, None] * u[None, :])
                    * phi_x[:, None]).sum(axis=0)

        def derivative_integrand(u):
            g = SQ2 * np.sin(2 * np.pi * ks[:, None] * u[None, :]) / (
                2 * np.pi * ks[:, None])
            return u * (g * phi_x[:, None]).sum(axis=0)

        boundary_oracle = f.value_at_1 * riemann_midpoint(
            boundary_integrand, 0.0, 1.0, 200_000)
        derivative_oracle = riemann_midpoint(derivative_integrand, 0.0, 1.0,
                                             200_000)
        assert split.boundary_term == pytest.approx(boundary_oracle, abs=1e-7)
        assert split.derivative_term == pytest.approx(derivative_oracle,
                                                      abs=1e-7)
        assert abs(split.residual) < 1e-7

    def test_bump_on_haar(self):
        split = partial_sum_by_parts(KernelContext(haar_system(), 16),
                                     get_function("cos-bump"), 0.3)
        assert abs(split.residual) < 1e-7

    def test_missing_derivative(self):
        lip_only = FunctionSpec(name="corner", eval=lambda u: np.abs(
            np.asarray(u) - 0.5), deriv=None, class_tag="Lip1")
        with pytest.raises(MissingDerivative):
            partial_sum_by_parts(KernelContext(haar_system(), 4), lip_only,
                                 0.3)


class TestSummationIdentity:
    def test_constant_function_all_terms_vanish(self):
        res = summation_identity(get_function("one"), get_function("one"), 4)
        assert res.lhs == pytest.approx(0.0, abs=1e-14)
        assert res.term_difference == pytest.approx(0.0, abs=1e-14)
        assert res.term_local == pytest.approx(0.0, abs=1e-14)
        assert res.rhs == pytest.approx(res.term_tail, abs=1e-15)

    def test_identity_function_with_constant_factor(self):
        res = summation_identity(get_function("id"), get_function("one"), 4)
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert abs(res.residual) < 1e-8
        printed = summation_identity(get_function("id"), get_function("one"),
                                     4, "n-1")
        assert abs(printed.residual) < 1e-8   # exact for a constant factor

    def test_kernel_factor_full_variant_exact(self):
        F = kernel_section(cosine_system(), 8, 0.3)
        for n in (2, 4, 8):
            res = summation_identity(get_function("half-square"), F, n, "n")
            assert abs(res.residual) < 1e-6

    def test_kernel_factor_printed_variant_misses_remainder(self):
        F = kernel_section(cosine_system(), 8, 0.3)
        res = summation_identity(get_function("half-square"), F, 4, "n-1")
        assert abs(res.residual) > 1e-5    # the O(1/n) remainder is real

    def test_terms_against_dense_oracle(self):
        n = 4
        F = kernel_section(cosine_system(), 8, 0.3)
        res = summation_identity(get_function("half-square"), F, n, "n")

        def fp(u):
            return np.asarray(u, dtype=float)

        lhs_oracle = riemann_midpoint(lambda u: fp(u) * F(u), 0.0, 1.0, 50_000)
        t1 = 0.0
        for i in range(1, n):
            diff = riemann_midpoint(lambda u: fp(u) - fp(u + 1.0 / n),
                                    (i - 1) / n, i / n, 20_000)
            prefix = riemann_midpoint(F, 0.0, i / n, 50_000)
            t1 += diff * prefix
        t1 *= n
        t2 = 0.0
        for i in range(1, n + 1):
            a, b = (i - 1) / n, i / n
            cell_fp = riemann_midpoint(fp, a, b, 20_000)
            t2 += riemann_midpoint(
                lambda u: (fp(u) * (b - a) - cell_fp) * F(u), a, b, 20_000)
        t2 *= n
        t3 = n * riemann_midpoint(fp, 1 - 1.0 / n, 1.0, 20_000) * \
            riemann_midpoint(F, 0.0, 1.0, 50_000)

        assert res.lhs == pytest.approx(lhs_oracle, abs=1e-6)
        assert res.term_difference == pytest.approx(t1, abs=1e-6)
        assert res.term_local == pytest.approx(t2, abs=1e-6)
        assert res.term_tail == pytest.approx(t3, abs=1e-6)

    def test_requires_derivative(self):
        lip_only = FunctionSpec(name="corner", eval=lambda u: np.abs(
            np.asarray(u) - 0.5), deriv=None, class_tag="Lip1")
        with pytest.raises(MissingDerivative):
            summation_identity(lip_only, get_function("one"), 4)

    def test_rejects_bad_upper(self):
        with pytest.raises(ValueError):
            summation_identity(get_function("id"), get_function("one"), 4,
                               "n-2")


class TestCoefficientBessel:
    @pytest.mark.parametrize("name", CATALOG)
    def test_square_sum_capped_by_energy(self, name):
        sys_ = get_system(name)
        top = 8 if name == "rademacher" else 64
        f = get_function("half-square")
        table = coefficients(sys_, f, top)
        from ons_lab import QuadratureRule, integrate
        energy = integrate(lambda u: np.asarray(f.eval(u)) ** 2,
                           QuadratureRule(panels=8)).value
        assert (table.coeffs ** 2).sum() <= energy + 1e-8
