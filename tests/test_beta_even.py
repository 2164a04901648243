import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from circbeta import (correction_factor, correction_residual,
                      leading_xi_coefficient, leading_xi_coefficient_exact,
                      leading_xi_s_power, evenness_factor, gauss_legendre,
                      moment_integral, morris, recurrence_sides,
                      rho2_bulk_term, rho2_correction_limit, rho2_even_beta,
                      selberg, v2_coefficient, verify_moment_recurrence)
from circbeta.beta_even import (_combo_array, evenness_factor_exact,
                                rho2_correction_estimate, selberg_exact)
from circbeta.spacing import P0_BETA2


def tensor2(f, n=80):
    """2-D quadrature oracle over the unit square."""
    r = gauss_legendre(n, 0.0, 1.0)
    X, Y = np.meshgrid(r.nodes, r.nodes)
    W = np.outer(r.weights, r.weights)
    return np.sum(W * f(X, Y))


class TestSelberg:
    def test_one_dimensional_is_beta_function(self):
        from scipy.special import beta as beta_fn
        for a, b in ((0.5, 1.5), (0.0, 0.0), (2.0, 3.0)):
            assert selberg(1, a, b, 0.7) == pytest.approx(beta_fn(a + 1, b + 1),
                                                          rel=1e-12)

    def test_two_dimensional_against_quadrature(self):
        got = selberg(2, 0.0, 0.0, 1.0)
        oracle = tensor2(lambda x, y: (x - y) ** 2)
        assert oracle == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_exact_variant(self):
        assert selberg_exact(2, 0, 0, 1) == F(1, 6)
        assert selberg_exact(0, 3, 3, 2) == F(1)
        assert selberg_exact(1, 2, 2, 1) == F(1, 30)

    def test_normalizes_weighted_integral(self):
        # the coupled integral at coincidence equals the Selberg constant;
        # the beta = 4 tensor value is kink-limited
        for beta, rel in ((2, 1e-8), (4, 5e-3)):
            got = moment_integral(beta, 0.0).real
            want = selberg(beta, -1 + 2 / beta, -1 + 2 / beta, 2 / beta)
            assert got == pytest.approx(want, rel=rel)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            selberg(2, -1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            selberg(3, 0.0, 0.0, -0.9)


class TestMorris:
    def test_empty_product(self):
        assert morris(0, 1.0, 2.0, 0.5) == 1.0

    def test_single_factor_flat(self):
        assert morris(1, 0.0, 0.0, 0.7) == pytest.approx(1.0, rel=1e-13)

    def test_against_quadrature(self):
        def integrand(t1, t2):
            z1, z2 = np.exp(2j * np.pi * t1), np.exp(2j * np.pi * t2)
            return (np.abs(1 + z1) ** 2 * np.abs(1 + z2) ** 2
                    * np.abs(z2 - z1) ** 2)
        r = gauss_legendre(60, -0.5, 0.5)
        X, Y = np.meshgrid(r.nodes, r.nodes)
        W = np.outer(r.weights, r.weights)
        oracle = np.sum(W * integrand(X, Y).real)
        assert morris(2, 1.0, 1.0, 1.0) == pytest.approx(oracle, rel=1e-10)
        assert morris(2, 1.0, 1.0, 1.0) == pytest.approx(6.0, rel=1e-12)

    def test_pole(self):
        with pytest.raises(ValueError):
            morris(2, -2.0, 0.0, 0.5)


class TestEvennessFactor:
    def test_empty(self):
        assert evenness_factor(1, 2.0, 9.0) == 1.0

    def test_even_in_N(self):
        assert evenness_factor(3, 1.0, 7.5) == pytest.approx(
            evenness_factor(3, 1.0, -7.5), rel=1e-14)

    def test_large_N_form(self):
        n, kappa, N = 3, 1.0, 100.0
        count = kappa * n * (n - 1)
        got = evenness_factor(n, kappa, N) / (kappa * N) ** count
        v2 = v2_coefficient(n, kappa)
        l2 = [l ** 2 / kappa ** 2 for k in range(1, n)
              for l in range(1, int(kappa * k) + 1)]
        v4 = sum(x * x for x in l2)
        series = 1 - v2 / N ** 2 + (v2 ** 2 - v4) / (2 * N ** 4)
        assert got == pytest.approx(series, rel=1e-6)

    @pytest.mark.parametrize("n,kappa", [(2, 1), (3, 1), (2, 2), (4, 2)])
    def test_v2_closed_form(self, n, kappa):
        direct = sum(F(l * l, kappa * kappa) for k in range(1, n)
                     for l in range(1, kappa * k + 1))
        assert F(v2_coefficient(n, kappa)).limit_denominator(10 ** 9) == direct

    @pytest.mark.parametrize("n,kappa", [(2, 1), (3, 1), (2, 2)])
    def test_second_order_coefficient_exact(self, n, kappa):
        # elementary symmetric function of l^2/kappa^2 equals (v2^2 - v4)/2
        # with v_s = kappa^(-s) * double sum of l^s
        ls = [F(l * l, kappa * kappa) for k in range(1, n)
              for l in range(1, kappa * k + 1)]
        e2 = sum(a * b for a, b in itertools.combinations(ls, 2))
        v2 = sum(ls)
        v4 = sum(F(l ** 4, kappa ** 4) for k in range(1, n)
                 for l in range(1, kappa * k + 1))
        assert e2 == (v2 * v2 - v4) / 2

    @pytest.mark.parametrize("n,kappa", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 3)])
    def test_conjectured_identity_at_series_level(self, n, kappa):
        # (1/(6 beta)) m (m-1) with m = n + kappa n (n-1) equals v2
        m = n + kappa * n * (n - 1)
        assert F(m * (m - 1), 6 * 2 * kappa) == F(
            v2_coefficient(n, kappa)).limit_denominator(10 ** 9)

    def test_requires_integral_products(self):
        with pytest.raises(ValueError):
            evenness_factor(3, 0.75, 10.0)


class TestRho2EvenBeta:
    def test_beta2_limit(self):
        assert rho2_even_beta(2, 0.5) == pytest.approx(1 - (2 / np.pi) ** 2,
                                                       abs=1e-10)
        assert rho2_even_beta(2, 1.3) == pytest.approx(rho2_bulk_term(2, 0, 1.3),
                                                       abs=1e-10)

    def test_coincidence_zero(self):
        assert rho2_even_beta(2, 0.0, 20) == 0.0
        assert rho2_even_beta(4, 0.0, 16) == 0.0

    def test_beta2_finite_against_determinantal(self):
        N = 20
        for x in (0.3, 0.7, 1.2):
            want = 1 - (np.sin(np.pi * x) / (N * np.sin(np.pi * x / N))) ** 2
            assert rho2_even_beta(2, x, N) == pytest.approx(want, abs=1e-7)

    def test_beta4_limit_against_closed_form(self):
        for x in (0.4, 0.9, 1.6):
            want = 4.0 * rho2_bulk_term(4, 0, 2 * x)
            assert rho2_even_beta(4, x) == pytest.approx(want, abs=1e-10)

    def test_tensor_cross_checks(self):
        # the combination-sum tensor engine agrees with the reductions:
        # exactly for the smooth beta = 2 coupling, at its kink-limited
        # accuracy for beta = 4
        for x in (0.5, 1.2):
            a = rho2_even_beta(2, x, 20, check_convergence=False)
            b = rho2_even_beta(2, x, 20, method="tensor", check_convergence=False)
            assert a == pytest.approx(b, abs=1e-12)
        for x in (0.5, 1.2):
            a = rho2_even_beta(4, x, 20, check_convergence=False)
            b = rho2_even_beta(4, x, 20, method="tensor", check_convergence=False)
            assert a == pytest.approx(b, abs=5e-3)

    def test_node_doubling_stability(self):
        for beta, x, N in ((2, 0.7, 24), (4, 0.7, 24)):
            a = rho2_even_beta(beta, x, N, check_convergence=False)
            b = rho2_even_beta(beta, x, N, quad_order=2 * (48 if beta == 4 else 64),
                               check_convergence=False)
            assert abs(a - b) < 1e-7

    def test_beta6_spot_checks(self):
        # kink-limited tensor quadrature: low-accuracy support only
        lim = rho2_even_beta(6, 0.7, None, check_convergence=False)
        fin = rho2_even_beta(6, 0.7, 16, quad_order=24, check_convergence=False)
        assert 0.7 < lim < 1.0
        assert abs(fin - lim) < 5e-2
        finer = rho2_even_beta(6, 0.7, 16, quad_order=32, check_convergence=False)
        assert abs(fin - finer) < 5e-2

    def test_combination_cache_bounded(self):
        # one table holds up to 2.5M x beta int64s, 120 MB at beta = 6
        for n in (12, 13, 14):
            assert _combo_array(n, 6).shape == (math.comb(n, 6), 6)
        info = _combo_array.cache_info()
        assert info.maxsize == 2 and info.currsize == 2

    def test_even_in_N_continued(self):
        # real (and negated) N through the Gamma-free prefactor reduction
        for beta in (2, 4):
            for N in (17.5, 24.25):
                plus = rho2_even_beta(beta, 0.8, N, check_convergence=False)
                minus = rho2_even_beta(beta, 0.8, -N, check_convergence=False)
                assert plus == pytest.approx(minus, abs=1e-10)

    def test_continued_matches_integer_route(self):
        # Morris-product prefactor vs the evenness-product reduction
        for beta in (2, 4):
            a = rho2_even_beta(beta, 0.9, 20, check_convergence=False)
            b = rho2_even_beta(beta, 0.9, 20.0 + 0e0, check_convergence=False)
            assert a == pytest.approx(b, rel=1e-11)


def even_identity_residual(beta, N_pair):
    """Max residual of the Richardson 1/N^2 coefficient against
    -(1/(6 beta)) (x^2 rho_0)'' on 32 Chebyshev nodes over [0.1, 2.2]."""
    each = lambda f: lambda xs: np.array([f(x) for x in xs])
    return correction_residual(
        each(lambda x: rho2_even_beta(beta, x, check_convergence=False)),
        each(lambda x: rho2_correction_estimate(beta, x, N_pair)),
        correction_factor(beta), 0.1, 2.2, np.linspace(0.2, 2.0, 7), 32, 0, 2)


class TestVerify421:
    def test_beta2(self):
        assert even_identity_residual(2, (32, 64)) < 5e-3

    def test_beta4(self):
        assert even_identity_residual(4, (24, 48)) < 1e-2

    def test_beta4_against_pfaffian_closed_form(self):
        for x in (0.4, 0.9, 1.6):
            Ns = np.array([16.0, 32.0, 64.0])
            vals = np.array([rho2_even_beta(4, x, int(N), check_convergence=False)
                             for N in Ns])
            fit = np.linalg.solve(np.vander(1 / Ns ** 2, 3, increasing=True), vals)
            assert fit[1] == pytest.approx(rho2_correction_limit(4, x), abs=1e-3)

    def test_closed_form_beta2(self):
        # -(1/12)(d^2/dx^2)(x^2 (1 - sinc^2)) = -(1/3) sin^2(pi x)
        h, x = 1e-4, 0.8
        g = lambda t: t * t * rho2_even_beta(2, t, check_convergence=False)
        d2 = (g(x + h) - 2 * g(x) + g(x - h)) / h ** 2
        assert -d2 / 12 == pytest.approx(-np.sin(np.pi * x) ** 2 / 3, abs=1e-6)

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            rho2_correction_estimate(2, 0.5, N_pair=(8, 16))


class TestMomentIntegrals:
    def test_theta_derivative_relation(self):
        # I^(1)(1) = -i d/dtheta I[1], stencil oracle
        for beta in (2, 4):
            th, h = 1.0, 0.01
            vals = [moment_integral(beta, th + k * h) for k in (-2, -1, 1, 2)]
            deriv = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            got = moment_integral(beta, th, (1,))
            assert abs(got - (-1j) * deriv) < 1e-8

    def test_partition_identity_m2(self):
        # -(d/dtheta)^2 I[1] = I^(1)(2) + I^(2)(1,1)
        beta, th, h = 2, 1.5, 0.01
        vals = [moment_integral(beta, th + k * h) for k in (-2, -1, 0, 1, 2)]
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) \
            / (12 * h * h)
        got = moment_integral(beta, th, (2,)) + moment_integral(beta, th, (1, 1))
        assert abs(got - (-d2)) < 1e-7

    def test_index_reduction(self):
        for beta in (2, 4):
            lhs = moment_integral(beta, 2.0, (0, 2))
            rhs = (beta - 1) * moment_integral(beta, 2.0, (2,))
            assert abs(lhs - rhs) < 1e-12

    def test_vanishes_beyond_beta(self):
        assert moment_integral(2, 1.0, (1, 1, 1)) == 0.0

    def test_unsupported(self):
        with pytest.raises(NotImplementedError):
            moment_integral(6, 1.0, (1,))
        with pytest.raises(NotImplementedError):
            moment_integral(2, 1.0, (1, 1, 1, 1))


class TestRecurrence:
    def test_beta2_cases(self):
        assert verify_moment_recurrence(2) < 1e-8

    def test_beta2_theta_range(self):
        assert verify_moment_recurrence(2, cases=((2,), (3, 1)),
                                thetas=(7.0, 4 * np.pi)) < 1e-8

    def test_beta4_kink_limited(self):
        assert verify_moment_recurrence(4, cases=((2,), (3,), (2, 1)),
                                thetas=(1.0,)) < 1e-3

    def test_theta_zero_rhs_vanishes(self):
        lhs, rhs = recurrence_sides(2, 0.0, (3, 1))
        assert lhs == 0.0
        assert abs(rhs) < 1e-10

    def test_requires_a1_at_least_two(self):
        with pytest.raises(ValueError):
            recurrence_sides(2, 1.0, (1,))


class TestAppendixB:
    def test_k0_exact(self):
        for N in (12, 37):
            frac, pw = leading_xi_coefficient_exact(0, 2, N)
            assert pw == 2
            assert frac == F(1, 3) * (1 - F(1, N * N))

    def test_k1_exact(self):
        for N in (12, 37):
            frac, pw = leading_xi_coefficient_exact(1, 2, N)
            assert pw == 6
            assert frac == -F(1, 4050) * (1 - F(4, N * N)) * (1 - F(1, N * N)) ** 2

    def test_s_powers(self):
        assert leading_xi_s_power(0, 2) == 2
        assert leading_xi_s_power(1, 2) == 7
        assert leading_xi_s_power(0, 4) == 4

    def test_limit_matches_leading_spacing_coefficient(self):
        got = leading_xi_coefficient(0, 2, 10 ** 7)
        assert got == pytest.approx(np.pi ** 2 / 3, rel=1e-10)
        table = {k: v for k, v in P0_BETA2.coefficients_through(2).items()}
        assert table[(2, 0, 2, 0)] == F(1, 3)

    def test_float_matches_exact(self):
        for k, N in ((0, 12), (1, 20)):
            frac, pw = leading_xi_coefficient_exact(k, 2, N)
            assert leading_xi_coefficient(k, 2, N) == pytest.approx(
                float(frac) * np.pi ** pw, rel=1e-12)

    def test_beta4_runs(self):
        frac, pw = leading_xi_coefficient_exact(0, 4, 16)
        assert pw == 4
        assert leading_xi_coefficient(0, 4, 16) == pytest.approx(
            float(frac) * np.pi ** pw, rel=1e-11)

    def test_precondition(self):
        with pytest.raises(ValueError):
            leading_xi_coefficient(2, 2, 7)


def test_evenness_factor_exact_matches_float():
    assert evenness_factor_exact(3, 2, 10) == F(int(evenness_factor(3, 2.0, 10.0)))
