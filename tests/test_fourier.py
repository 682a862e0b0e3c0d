from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import CATALOG, riemann_midpoint
from ons_lab import (
    FunctionSpec,
    IndexOutOfRange,
    InvalidConfig,
    KernelContext,
    MissingDerivative,
    coefficients,
    cosine_system,
    get_function,
    get_system,
    haar_system,
    integrate,
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
        table = coefficients(KernelContext(cosine_system(), 8),
                             get_function("one"))
        assert np.abs(table.coeffs).max() < 1e-12

    def test_cosine_of_identity_vanish(self):
        table = coefficients(KernelContext(cosine_system(), 8),
                             get_function("id"))
        assert np.abs(table.coeffs).max() < 1e-12

    def test_haar_identity_second_coefficient(self):
        table = coefficients(KernelContext(haar_system(), 4),
                             get_function("id"))
        assert table.coeffs[1] == pytest.approx(-0.25, abs=1e-13)

    def test_fresh_quadrature_agreement(self):
        # stored coefficients against per-entry integrals
        from ons_lab import integrate, recommended_rule
        sys_ = get_system("reflect(cosine)")
        f = get_function("half-square")
        table = coefficients(KernelContext(sys_, 6), f)
        rule = recommended_rule(sys_, 6)
        for k in range(1, 7):
            fresh = integrate(lambda u, k=k: np.asarray(f.eval(u)) * np.asarray(
                sys_.eval(k, u), dtype=float), rule).value
            assert abs(table.coeffs[k - 1] - fresh) < 2e-10

    @pytest.mark.parametrize("name, f_name", [("cosine", "half-square"),
                                              ("haar", "cos-bump")])
    def test_uses_the_context_rule(self, name, f_name):
        # a two-node rule on the context gives that rule's fine-pass
        # integrals, which differ from the recommended rule's 16 nodes
        sys_, f = get_system(name), get_function(f_name)
        default = KernelContext(sys_, 8)
        coarse = KernelContext(sys_, 8, replace(default.rule, order=2))
        got = coefficients(coarse, f).coeffs
        for k in range(1, 9):
            want = integrate(lambda u, k=k: f.eval(u) * sys_.eval(k, u),
                             coarse.rule).value
            assert abs(got[k - 1] - want) < 1e-15
        assert np.abs(got - coefficients(default, f).coeffs).max() > 1e-9

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
        got = coefficients(KernelContext(sys_, n),
                           get_function("half-square")).coeffs
        for k in range(n):
            amp = np.abs(values[k]).max()
            signs = (values[k] / amp).astype(int).tolist()   # exact +-1, 0
            want = Fraction(sum(s * d for s, d in zip(signs, steps) if s),
                            6 * D ** 3)
            assert abs(Fraction(got[k] / amp) - want) <= 1e-15, k + 1


class TestPartialSum:
    def test_zero_coefficients_give_zero(self):
        table = coefficients(KernelContext(cosine_system(), 8),
                             get_function("one"))
        for n in (1, 4, 8):
            assert abs(partial_sum(table, n, 0.3)) < 1e-11

    def test_haar_identity_quarter_point(self):
        table = coefficients(KernelContext(haar_system(), 2),
                             get_function("id"))
        assert partial_sum(table, 2, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_out_of_range(self):
        table = coefficients(KernelContext(haar_system(), 4),
                             get_function("id"))
        with pytest.raises(IndexOutOfRange):
            partial_sum(table, 5, 0.5)

    def test_sweep_matches_individual_sums(self):
        table = coefficients(KernelContext(haar_system(), 16),
                             get_function("half-square"))
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
        ctx = KernelContext(sys_, 16)
        t_f, t_g, t_c = (coefficients(ctx, h) for h in (f, g, combo))
        for n in (2, 9, 16):
            for x in (0.2, 0.8):
                lhs = partial_sum(t_c, n, x)
                rhs = alpha * partial_sum(t_f, n, x) + beta * partial_sum(
                    t_g, n, x)
                assert abs(lhs - rhs) < 1e-10


class TestByPartsSplit:
    def test_identity_function_on_cosine(self):
        # all cosine coefficients of u vanish, so both routes give zero
        ctx = KernelContext(cosine_system(), 4)
        split = partial_sum_by_parts(
            ctx, coefficients(ctx, get_function("id")), 0.2)
        assert abs(split.partial_sum) < 1e-10
        assert abs(split.boundary_term - split.derivative_term) < 1e-8

    def test_half_square_on_cosine_independent_oracle(self):
        sys_, f = cosine_system(), get_function("half-square")
        n, x = 8, 0.5
        ctx = KernelContext(sys_, n)
        split = partial_sum_by_parts(ctx, coefficients(ctx, f), x)

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
        ctx = KernelContext(haar_system(), 16)
        split = partial_sum_by_parts(
            ctx, coefficients(ctx, get_function("cos-bump")), 0.3)
        assert abs(split.residual) < 1e-7

    def test_refuses_a_table_of_another_system(self):
        table = coefficients(KernelContext(cosine_system(), 16),
                             get_function("cos-bump"))
        with pytest.raises(InvalidConfig) as err:
            partial_sum_by_parts(KernelContext(haar_system(), 16), table, 0.3)
        assert str(err.value) == ("table: coefficients against 'cosine', but "
                                  "the context's system is 'haar'")

    def test_longer_table_of_the_same_system_serves_every_n(self):
        # a table of 32 coefficients and contexts of their own handles
        f = get_function("cos-bump")
        table = coefficients(KernelContext(haar_system(), 32), f)
        for n in (4, 8, 32):
            split = partial_sum_by_parts(KernelContext(haar_system(), n),
                                         table, 0.3)
            assert split.partial_sum == partial_sum(table, n, 0.3)
            assert abs(split.residual) < 1e-7

    def test_missing_derivative(self):
        lip_only = FunctionSpec(name="corner", eval=lambda u: np.abs(
            np.asarray(u) - 0.5), deriv=None, class_tag="Lip1")
        ctx = KernelContext(haar_system(), 4)
        with pytest.raises(MissingDerivative):
            partial_sum_by_parts(ctx, coefficients(ctx, lip_only), 0.3)


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
        # exact for a constant factor
        assert abs(res.residual_n_minus_1) < 1e-8

    def test_kernel_factor_full_variant_exact(self):
        F = kernel_section(cosine_system(), 8, 0.3)
        for n in (2, 4, 8):
            res = summation_identity(get_function("half-square"), F, n)
            assert abs(res.residual) < 1e-6

    def test_kernel_factor_printed_variant_misses_remainder(self):
        F = kernel_section(cosine_system(), 8, 0.3)
        res = summation_identity(get_function("half-square"), F, 4)
        # the O(1/n) remainder is real
        assert abs(res.residual_n_minus_1) > 1e-5

    def test_terms_against_dense_oracle(self):
        n = 4
        F = kernel_section(cosine_system(), 8, 0.3)
        res = summation_identity(get_function("half-square"), F, n)

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


class TestCoefficientBessel:
    @pytest.mark.parametrize("name", CATALOG)
    def test_square_sum_capped_by_energy(self, name):
        sys_ = get_system(name)
        top = 8 if name == "rademacher" else 64
        f = get_function("half-square")
        table = coefficients(KernelContext(sys_, top), f)
        from ons_lab import QuadratureRule, integrate
        energy = integrate(lambda u: np.asarray(f.eval(u)) ** 2,
                           QuadratureRule(panels=8)).value
        assert (table.coeffs ** 2).sum() <= energy + 1e-8
