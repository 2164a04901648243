import itertools
import math
import time
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from circbeta import (beta_even, correction_factor, correction_residual,
                      leading_xi_coefficient, leading_xi_coefficient_exact,
                      leading_xi_s_power, evenness_factor, gauss_legendre,
                      moment_integral, morris, recurrence_sides,
                      rho2_bulk_term, rho2_correction_limit, rho2_even_beta,
                      selberg, selberg_log, v2_coefficient, verify_moment_recurrence)
from circbeta.beta_even import (_METHODS, _integral_beta4, _system, _weighted_integral,
                                rho2_correction_estimate, selberg_exact)
from circbeta.gap import AccuracyWarning
from circbeta.sff import _partition_boxes
from circbeta.spacing import P0_BETA2


def tensor2(f, n=80):
    """2-D quadrature oracle over the unit square."""
    r = gauss_legendre(n, 0.0, 1.0)
    X, Y = np.meshgrid(r.nodes, r.nodes)
    W = np.outer(r.weights, r.weights)
    return np.sum(W * f(X, Y))


def series_rho2(beta, x):
    """Limit two-point function from the Taylor series at t = 0 of J_0(t), the
    normalised integral of e^(t sum u), summed in mpmath with enough digits
    for its cancellation; J_0 is entire. The coefficients c_{q,k} obey
    (k + B_q) c_{q,k} = A_q c_{q-1,k} + q c_{q,k-1} + (q+1) c_{q+1,k-1}."""
    n, t_abs = beta, 2 * math.pi * abs(x)
    with mpmath.workdps(30 + int(n * t_abs / 2.3)):
        tau = mpmath.mpf(2) / n
        a = tau - 1
        A = [(n - q + 1) * (1 + a + tau * (n - q)) for q in range(n + 1)]
        B = [q * (2 + 2 * a + tau * (2 * n - q - 1)) for q in range(n + 1)]
        c = [mpmath.mpf(1)]
        for q in range(1, n + 1):
            c.append(c[-1] * A[q] / B[q])
        t = mpmath.mpc(0, 2 * mpmath.pi * mpmath.mpf(x))
        total, power, k = c[0], mpmath.mpf(1), 0
        while k < 20 or k < 3 * n * t_abs or abs(c[0] * power) > mpmath.eps * abs(total):
            k += 1
            new = [c[1] / k]
            for q in range(1, n + 1):
                up = (q + 1) * c[q + 1] if q < n else 0
                new.append((A[q] * new[q - 1] + q * c[q] + up) / (k + B[q]))
            c, power = new, power * t
            total += c[0] * power
        kap = mpmath.mpf(n) / 2
        pre = (mpmath.gamma(kap + 1) ** 3 * kap ** n * (2 * mpmath.pi * x) ** n
               / (mpmath.factorial(n) * mpmath.gamma(3 * kap + 1)))
        return float(mpmath.re(pre * mpmath.exp(-1j * mpmath.pi * n * x) * total))


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
        # the coupled integral at coincidence equals the Selberg constant
        for beta in (2, 4):
            got = moment_integral(beta, 0.0).real
            want = selberg(beta, -1 + 2 / beta, -1 + 2 / beta, 2 / beta)
            assert got == pytest.approx(want, rel=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            selberg(2, -1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            selberg(3, 0.0, 0.0, -0.9)

    @pytest.mark.parametrize("args", [(3, math.nan, 0.0, 1.0), (3, 0.0, math.inf, 1.0),
                                      (3, 0.0, 0.0, math.nan), (0, math.nan, 0.0, 1.0)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            selberg_log(*args)

    @pytest.mark.parametrize("n,a,b,c", [(1, 0.5, 0.0, 0.7), (4, -0.5, -0.5, 0.5), (6, 2.0, 1.0, 3.0)])
    def test_log_against_gammaln(self, n, a, b, c):
        j = np.arange(n)
        want = np.sum(gammaln(a + 1 + j * c) + gammaln(b + 1 + j * c) + gammaln(1 + (j + 1) * c)
                      - gammaln(a + b + 2 + (n + j - 1) * c) - gammaln(1 + c))
        assert selberg_log(n, a, b, c) == pytest.approx(want, rel=1e-14, abs=1e-14)


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

    @pytest.mark.parametrize("args", [(3, 0.0, 0.0, math.nan), (3, math.nan, 0.0, 1.0),
                                      (3, 0.0, -math.inf, 1.0), (0, 0.0, 0.0, math.nan)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            morris(*args)


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

    @pytest.mark.parametrize("n", [48, 96])
    def test_beta4_limit_at_both_orders(self, n):
        xs = np.linspace(0.05, 3.3, 40)
        got = np.array([rho2_even_beta(4, x, quad_order=n, check_convergence=False)
                        for x in xs])
        assert np.max(np.abs(got - 4.0 * rho2_bulk_term(4, 0, 2 * xs))) <= 2e-13

    @pytest.mark.parametrize("n", [48, 96])
    def test_beta4_engine_against_selberg(self, n):
        # f = u^p (1-u)^q turns the beta = 4 integral into the Selberg integral
        # S_4(p - 1/2, q - 1/2, 1/2)
        for p, q in itertools.product(range(4), repeat=2):
            got = _integral_beta4(lambda u: u ** p * (1 - u) ** q, n)
            want = selberg(4, p - 0.5, q - 0.5, 0.5)
            assert abs(got - want) <= 5e-13 * want

    @pytest.mark.parametrize("N", [-16.5, -20.5, -40.5])
    def test_beta4_negative_N_against_holonomic(self, N):
        # certified pfaffian values (an AccuracyWarning is an error here) out
        # to x = 3.3, where |(1 - z u)^(N-2)| rises to 50 on (0, 1) at N = -16.5
        xs = np.linspace(0.1, 3.3, 17)
        got = np.array([rho2_even_beta(4, x, N) for x in xs])
        want = rho2_even_beta(4, xs, N, method="holonomic")
        assert np.max(np.abs(got - want)) <= 2e-11

    @pytest.mark.parametrize("beta", [2, 4])
    @pytest.mark.parametrize("N", [None, 16, 20.5, 32, 64, -20.5])
    def test_holonomic_matches_default_engines(self, beta, N):
        xs = np.linspace(0.1, 2.2, 22)
        got = rho2_even_beta(beta, xs, N, method="holonomic")
        want = np.array([rho2_even_beta(beta, x, N) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_node_doubling_stability(self):
        for beta, x, N in ((2, 0.7, 24), (4, 0.7, 24)):
            a = rho2_even_beta(beta, x, N, check_convergence=False)
            b = rho2_even_beta(beta, x, N, quad_order=2 * (48 if beta == 4 else 64),
                               check_convergence=False)
            assert abs(a - b) < 1e-7

    def test_beta6_spot_checks(self):
        # the limit against the Taylor series at t = 0, summed in mpmath, and
        # against its 60-digit values
        known = {0.3: 0.02021153961218519, 0.7: 0.8936281242227525,
                 1.5: 0.6385865313881958, 3.0: 1.223337541875068}
        xs = np.array([0.02, 0.3, 0.7, 1.1, 1.5, 2.2, 3.0, 6.0])
        want = np.array([series_rho2(6, x) for x in xs])
        assert np.max(np.abs(rho2_even_beta(6, xs) - want)) <= 1e-12
        for x, value in known.items():
            assert series_rho2(6, x) == pytest.approx(value, abs=1e-15)
            assert rho2_even_beta(6, x) == pytest.approx(value, abs=1e-12)

    def test_beta6_grid_matches_single_points(self):
        # one continuation serves an unsorted grid, signs of x and N included
        xs = np.array([1.4, -0.3, 2.9, 0.05, 0.7])
        for N in (None, 20, -20):
            grid = rho2_even_beta(6, xs, N)
            single = [rho2_even_beta(6, x, N) for x in xs]
            assert grid.shape == xs.shape
            assert np.max(np.abs(grid - single)) <= 1e-14
        assert rho2_even_beta(6, np.array([])).shape == (0,)

    def test_beta6_large_N_certified(self):
        # the path starts at theta = 0.5/N; its points carry no cancellation
        xs = np.array([0.3, 0.7, 1.5, 3.0])
        start = time.perf_counter()
        got = rho2_even_beta(6, xs, 1e6)
        assert time.perf_counter() - start < 1.0
        assert np.max(np.abs(got - rho2_even_beta(6, xs))) < 1e-11

    def test_beta6_failed_certification_warns(self, monkeypatch):
        # a second step setting far too coarse to agree
        monkeypatch.setattr(beta_even, "_STEPS", ((0.5, 40.0), beta_even._STEPS[1]))
        with pytest.raises(AccuracyWarning, match="not converged: the holonomic"):
            rho2_even_beta(6, 3.0)

    def test_holonomic_range_bounded(self):
        assert rho2_even_beta(6, 200.0) == pytest.approx(1.0, abs=0.02)
        with pytest.raises(ValueError, match=r"\|x\| <= 200"):
            rho2_even_beta(6, 200.5)

    @pytest.mark.parametrize("beta, method", [
        (2, "bogus"), (2, "tensor"), (4, "hankel"), (2, "pfaffian"), (6, "hankel"),
        (6, "pfaffian"), (6, "tensor"), (4, "")])
    def test_method_validated(self, beta, method):
        with pytest.raises(ValueError, match="cannot serve"):
            rho2_even_beta(beta, 0.7, method=method)

    def test_beta6_taylor_coefficients_exact(self):
        # c_{0,k} = <p_1^k> / k!, with p_1^k = alpha^k k! sum_kappa J_kappa / j_kappa
        # and Kadell's <J_kappa> = J_kappa(1^n) [a + 1 + (n-1)/alpha]_kappa
        # / [2a + 2 + 2(n-1)/alpha]_kappa, alpha = 1/tau = 3, against the
        # recursion (k - R0) c_k = R1 c_{k-1} of the engine's own matrices
        n, alpha, a = 6, F(3), F(-2, 3)

        def kadell(k):
            total = F(0)
            for _, boxes in _partition_boxes(k):
                term = F(1)
                for i, j, arm, leg in boxes:
                    term *= (n - i + alpha * j) * (a + 1 + (n - 1 - i) / alpha + j) / (
                        (alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
                        * (2 * a + 2 + (2 * n - 2 - i) / alpha + j))
                total += term
            return alpha ** k * total

        R0, R1, j0 = _system(6, None)
        R0, R1 = (np.vectorize(lambda v: F(v).limit_denominator(1000))(m) for m in (R0, R1))
        c = [F(1)]
        for q in range(1, n + 1):
            c.append(c[-1] * R0[q, q - 1] / -R0[q, q])
        assert np.allclose(j0 / j0[0], np.array(c, float), rtol=1e-14)
        for k in range(11):
            assert c[0] == kadell(k)
            rhs = R1 @ np.array(c, dtype=object)
            for q in range(n + 1):
                c[q] = (rhs[q] + (R0[q, q - 1] * c[q - 1] if q else 0)) / (k + 1 - R0[q, q])

    @pytest.mark.parametrize("beta, kwargs", [
        (2, {"quad_order": 1}), (4, {"quad_order": 3}), (6, {"quad_order": 5}),
        (2, {"quad_order": 0}), (6, {"quad_order": 0}),
        # the holonomic engine has no order to set
        (6, {"quad_order": 38}), (6, {"quad_order": 48}),
        (4, {"method": "holonomic", "quad_order": 90, "check_convergence": False}),
        (6, {"quad_order": 24, "check_convergence": True}),
    ])
    def test_order_out_of_range(self, beta, kwargs):
        with pytest.raises(ValueError, match="quad_order"):
            rho2_even_beta(beta, 0.7, 16, **kwargs)

    @pytest.mark.parametrize("beta, x, N", [
        (6, math.nan, None), (6, 0.7, math.nan), (6, 0.7, math.inf),
        (2, math.inf, None), (4, -math.inf, 16)])
    def test_non_finite_rejected(self, beta, x, N):
        with pytest.raises(ValueError, match="must be finite"):
            rho2_even_beta(beta, x, N)

    def test_even_in_N_continued(self):
        # real (and negated) N through the Gamma-free prefactor reduction
        for beta in (2, 4):
            for N in (17.5, 24.25):
                plus = rho2_even_beta(beta, 0.8, N, check_convergence=False)
                minus = rho2_even_beta(beta, 0.8, -N, check_convergence=False)
                assert plus == pytest.approx(minus, abs=1e-10)

    def test_continued_matches_integer_route(self):
        # the evenness-product prefactor against the Morris/Gamma-product one,
        # (N-1)/N Gamma(kappa+1)^N / Gamma(kappa N + 1) M_{N-2}(beta, beta, kappa)
        # / S_beta, rebuilt here around the same integral at integer N
        x, order = 0.9, 32
        for beta in (2, 4):
            kap = beta / 2
            log_s = np.log(selberg(beta, -1 + 2 / beta, -1 + 2 / beta, 2 / beta))
            for N in (16, 20, 64):
                log_pre = (np.log((N - 1) / N) + N * gammaln(kap + 1)
                           - gammaln(kap * N + 1) + np.log(morris(N - 2, beta, beta, kap))
                           - log_s)
                theta = 2 * np.pi * x / N
                z = 1 - np.exp(1j * theta)
                integral = _weighted_integral(beta, lambda u: (1 - z * u) ** (N - 2),
                                              order, _METHODS[beta][0])
                want = (np.exp(log_pre) * (2 * np.sin(theta / 2)) ** beta
                        * np.exp(-1j * np.pi * beta * x * (N - 2) / N) * integral).real
                got = rho2_even_beta(beta, x, N, order, check_convergence=False)
                assert got == pytest.approx(want, rel=1e-11)


def even_identity_residual(beta):
    """Max residual of the Richardson 1/N^2 coefficient against
    -(1/(6 beta)) (x^2 rho_0)'' on 32 Chebyshev nodes over [0.1, 2.2]."""
    return correction_residual(
        lambda xs: rho2_even_beta(beta, xs, check_convergence=False),
        lambda xs: rho2_correction_estimate(beta, xs),
        correction_factor(beta), 0.1, 2.2, np.linspace(0.2, 2.0, 7), 32, 0, 2)


class TestVerify421:
    def test_beta2(self):
        assert even_identity_residual(2) < 1e-8

    def test_beta4(self):
        assert even_identity_residual(4) < 3e-8

    def test_beta6(self):
        # the paper's theorem at the one even beta without a closed form
        assert even_identity_residual(6) < 2e-8

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

    @pytest.mark.parametrize("beta", [2, 4, 6])
    def test_estimate_is_one_continuation_per_N(self, beta, monkeypatch):
        calls = []
        engine = beta_even._holonomic
        monkeypatch.setattr(beta_even, "_holonomic",
                            lambda *a: calls.append(a[2]) or engine(*a))
        got = rho2_correction_estimate(beta, np.linspace(0.1, 2.2, 32))
        assert got.shape == (32,) and calls == [32, 48, 64, 96]


def distinct_monomials(a, us):
    """sum over ordered distinct index tuples i of prod_k us[i_k]^a_k."""
    return sum(np.prod([us[i] ** e for i, e in zip(idx, a)], axis=0)
               for idx in itertools.permutations(range(len(us)), len(a)))


class TestMomentIntegrals:
    @pytest.mark.parametrize("a", [(), (1,), (2,), (1, 1), (3, 2)])
    def test_beta2_against_2d_oracle(self, a):
        for th in (1.0, 2.5):
            oracle = tensor2(lambda X, Y: np.exp(1j * th * (X + Y)) * (X - Y) ** 2
                             * distinct_monomials(a, (X, Y)))
            assert abs(moment_integral(2, th, a) - oracle) < 1e-13

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

    @pytest.mark.parametrize("a", [(-1,), (2, -3), (1.5,), (1, 1, -2)])
    def test_divergent_exponents_rejected(self, a):
        with pytest.raises(ValueError, match="nonnegative integers"):
            moment_integral(2, 1.0, a)


class TestRecurrence:
    def test_beta2_cases(self):
        assert verify_moment_recurrence(2) < 1e-8

    def test_beta2_theta_range(self):
        assert verify_moment_recurrence(2, cases=((2,), (3, 1)),
                                thetas=(7.0, 4 * np.pi)) < 1e-8

    def test_beta4_cases(self):
        assert verify_moment_recurrence(4, cases=((2,), (3,), (2, 1)),
                                        thetas=(1.0,)) < 1e-13

    def test_beta4_each_integral_once(self, monkeypatch):
        # the moment integrals over the default cases, keyed by their sorted
        # exponents, and 16 Chebyshev samples of the base integral: 1272
        # pfaffian engine calls instead of 3541 with one call per use
        calls = []
        engine = beta_even._integral_beta4
        monkeypatch.setattr(beta_even, "_integral_beta4",
                            lambda f, n: calls.append(n) or engine(f, n))
        assert verify_moment_recurrence(4) < 1e-13
        assert len(calls) <= 1272

    def test_theta_zero_rhs_vanishes(self):
        lhs, rhs = recurrence_sides(2, 0.0, (3, 1))
        assert lhs == 0.0
        assert abs(rhs) < 1e-10

    def test_requires_a1_at_least_two(self):
        with pytest.raises(ValueError):
            recurrence_sides(2, 1.0, (1,))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative integers"):
            recurrence_sides(2, 1.0, (3, -1))


class TestAppendixB:
    def test_k0_exact(self):
        for N in (12, 37, 12.0, F(37)):
            frac, pw = leading_xi_coefficient_exact(0, 2, N)
            assert pw == 2
            assert frac == F(1, 3) * (1 - 1 / F(N) ** 2)

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

    @pytest.mark.parametrize("N", [3, F(3), 3.0, F(7, 2), -12])
    def test_exact_precondition_for_every_N(self, N):
        for coefficient in (leading_xi_coefficient_exact, leading_xi_coefficient):
            with pytest.raises(ValueError, match="k \\+ 2 < N/2"):
                coefficient(0, 2, N)


def test_evenness_factor_exact_matches_float():
    # an integer kappa with an int or Fraction N stays exact
    exact = evenness_factor(3, 2, 10)
    assert type(exact) is int and exact == evenness_factor(3, 2.0, 10.0)
    half = evenness_factor(3, 2, F(21, 2))
    assert type(half) is F and float(half) == pytest.approx(evenness_factor(3, 2.0, 10.5),
                                                            rel=1e-15)
