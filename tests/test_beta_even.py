import itertools
import math
import re
import time
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from circbeta import (P0_BETA2, P1_BETA2, P2_BETA2, beta_even, correction_factor,
                      correction_residual, leading_xi_coefficient_exact, evenness_factor,
                      gauss_legendre, moment_integral, morris, p_bulk,
                      rho2_bulk_term, rho2_correction_limit, rho2_even_beta,
                      selberg, selberg_log, verify_moment_recurrence)
from circbeta.beta_even import (_ENGINES, _METHODS, _STEPS, _TERMS, _integral_beta4,
                                _integrand, _sides, _system, rho2_correction_estimate,
                                selberg_exact)
from circbeta.gap import AccuracyWarning
from circbeta.sff import _partition_boxes
from conftest import traced_peak


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


def one_setting_holonomic(n, s, N, ratio, cap):
    """The engine's reference: J_0 at the path points of parameters s from one
    continuation at a single step setting, each step's Taylor series summed
    term by term into its propagator and each point's series accumulated
    alongside, in complex arithmetic throughout."""
    R0, R1, j0 = _system(n, N)
    m, half_pp = n + 1, 0.0 if N is None else -1.0
    point, dist, rate, v = (lambda v: 1j * v), (lambda v: v), n, [0.5]
    if N is not None:
        point, rate, v = (lambda v: -2j * np.sin(v / 2) * np.exp(0.5j * v)), n * abs(N), \
            [min(0.05, 0.5 / abs(N))]
        dist = lambda v: min(2.0 * math.sin(v / 2.0), 1.0)
    s_max = np.max(s, initial=0.0)
    while len(v) < 2 or v[-1] < s_max:
        v.append(v[-1] + min(ratio * dist(v[-1]), cap / rate))
    c = point(np.array(v))
    inv = np.linalg.inv(np.arange(1.0, _TERMS + 1)[:, None, None] * np.eye(m) - R0)
    b = [j0.astype(complex)]
    for k in range(1, _TERMS + 1):
        b.append(inv[k - 1] @ (abs(c[0]) * (R1 @ b[-1] - half_pp * (k - 1) * b[-1])))
    b = np.array(b)
    cj, step, h = c[:-1], np.diff(c), np.abs(np.diff(c))
    p, dp = (cj, 1.0) if N is None else (cj - cj * cj, 1.0 - 2.0 * cj[:, None])
    j = np.clip(np.searchsorted(v, s, side="right") - 1, 0, len(cj) - 1)
    near = s < v[0]
    u = np.where(near, point(s) / abs(c[0]), (point(s) - cj[j]) / h[j])
    cur = np.repeat(np.eye(m, dtype=complex)[:, None, :], len(cj), axis=1)
    P, rows, prev, r1_prev, f = cur.copy(), cur[0, j], 0.0, 0.0, (h / p)[:, None]
    for k in range(_TERMS):
        r0_cur, r1_cur = (np.vstack([R0, R1]) @ cur.reshape(m, -1)).reshape(2, m, -1, m)
        cur, prev, r1_prev = f * (r0_cur + cj[:, None] * r1_cur - k * dp * cur + h[:, None]
                                  * (r1_prev - half_pp * (k - 1) * prev)) / (k + 1), cur, r1_cur
        P += (step / h)[:, None] ** (k + 1) * cur
        rows = rows + u[:, None] ** (k + 1) * cur[0, j]
    J = [b.T @ (c[0] / abs(c[0])) ** np.arange(_TERMS + 1)]
    for k in range(len(cj)):
        J.append(P[:, k] @ J[-1])
    return np.where(near, np.polynomial.polynomial.polyval(u, b[:, 0]),
                    np.einsum("gi,gi->g", rows, np.array(J)[j]))


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


def _h_coefficients(k, beta, count):
    """The first count coefficients, in h = 1/N^2, of the rational part of
    leading_xi_coefficient_exact(k, beta, N), a polynomial of degree D =
    kappa (k+2)(k+1)/2 in h: its Lagrange interpolant through the D + 1
    records at N = 2k + 5, ..., 2k + 5 + D, expanded exactly about h = 0."""
    n = k + 2
    Ns = range(2 * n + 1, 2 * n + 2 + beta // 2 * n * (n - 1) // 2)
    hs = [F(1, N * N) for N in Ns]
    out = [F(0)] * count
    for i, (N, hi) in enumerate(zip(Ns, hs)):
        # y_i prod_{j != i} (h - h_j) / (h_i - h_j), truncated after h^(count-1)
        poly = [leading_xi_coefficient_exact(k, beta, N)[0]] + [F(0)] * (count - 1)
        for j, hj in enumerate(hs):
            if j != i:
                poly = [((poly[m - 1] if m else 0) - hj * poly[m]) / (hi - hj)
                        for m in range(count)]
        out = [a + b for a, b in zip(out, poly)]
    return out


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
        l2 = [l ** 2 / kappa ** 2 for k in range(1, n)
              for l in range(1, int(kappa * k) + 1)]
        v2, v4 = sum(l2), sum(x * x for x in l2)
        series = 1 - v2 / N ** 2 + (v2 ** 2 - v4) / (2 * N ** 4)
        assert got == pytest.approx(series, rel=1e-6)

    @pytest.mark.parametrize("n,kappa", [(2, 1), (3, 1), (2, 2), (4, 2)])
    def test_v2_closed_form(self, n, kappa):
        # the record's N-dependence is the evenness product over N^p: its h^1
        # coefficient over its h^0 one is -sum l^2/kappa^2 over the product's
        # factors, and that sum is n (n-1) (kappa (n-1) + 1) (kappa n + 1) / (12 kappa)
        direct = sum(F(l * l, kappa * kappa) for k in range(1, n)
                     for l in range(1, kappa * k + 1))
        assert direct == F(n * (n - 1) * (kappa * (n - 1) + 1) * (kappa * n + 1), 12 * kappa)
        a0, a1 = _h_coefficients(n - 2, 2 * kappa, 2)
        assert a1 / a0 == -direct

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
        # P_1 = c (s^2 P_0)'' on the leading term of xi^k, k = n - 2: the
        # record's h^1 coefficient over its h^0 one is c (p_s + 2)(p_s + 1),
        # p_s = k + p its s power, c = -1/(6 beta); fitted exactly in h
        k, beta = n - 2, 2 * kappa
        p_s = k + leading_xi_coefficient_exact(k, beta, 2 * n + 1)[1]
        a0, a1 = _h_coefficients(k, beta, 2)
        assert a1 / a0 == correction_factor(F(beta)) * (p_s + 2) * (p_s + 1)

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

    @pytest.mark.parametrize("N", [None, 40])
    def test_beta6_grid_memory_bounded(self, N):
        # each point sums its step's series into a scalar: 20000 points peak
        # at 4.6 MB traced, where rows per point and term peaked at 22.6 MB
        xs = np.linspace(0.1, 3.0, 20000)
        got, peak = traced_peak(lambda: rho2_even_beta(6, xs, N))
        assert peak <= 10e6
        some = xs[::3999]
        assert np.max(np.abs(got[::3999] - [rho2_even_beta(6, x, N) for x in some])) <= 1e-14

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

    @pytest.mark.parametrize("N", [None, 16, 17, 20.5, -20, 1e6])
    def test_holonomic_matches_one_setting_reference(self, N):
        # x on both sides of the path's first point, s = v0 at x = 1/(4 pi),
        # and up to 6; after the prefactor, as rho2_even_beta applies it
        xs = np.array([0.01, 0.05, 0.079, 0.08, 0.3, 0.7, 1.5, 2.2, 3.0, 4.5, 6.0])
        xs_path = xs * (1.0 if N is None or N > 0 else -1.0)
        pre = _integrand(6, xs_path, N)[0]
        s = 2 * np.pi * xs / (1.0 if N is None else abs(N))
        got = pre * beta_even._holonomic(6, s, N, _STEPS)
        assert got.shape == (2, xs.size)
        for row, setting in zip(got, _STEPS):
            assert np.max(np.abs(row - pre * one_setting_holonomic(6, s, N, *setting))) <= 1e-13
        assert np.max(np.abs(got[0] - got[1])) <= 1e-12

    def test_holonomic_start_cached_read_only(self, monkeypatch):
        # the start depends on (beta, N) alone; the step settings are read per call
        assert beta_even._start.cache_info().maxsize <= 16
        for array in beta_even._start(6, 20.0):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        settings, calls = ((1 / 7, 2.5), (1 / 9, 3.5)), []
        engine = beta_even._holonomic
        monkeypatch.setattr(beta_even, "_holonomic",
                            lambda *a: calls.append(a[3]) or engine(*a))
        monkeypatch.setattr(beta_even, "_STEPS", settings)
        rho2_even_beta(6, 0.7, 20.0)
        rho2_even_beta(6, 0.7, 20.0, check_convergence=False)
        assert calls == [settings, settings[:1]]

    def test_holonomic_start_keyed_by_value(self):
        # a float32 N, rounded through the engine, leaves no start for a float N
        beta_even._start.cache_clear()
        want = rho2_even_beta(6, 0.7, 20.5)
        beta_even._start.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            rho2_even_beta(6, 0.7, np.float32(20.5))
        assert rho2_even_beta(6, 0.7, 20.5) == want

    @pytest.mark.parametrize("beta", [2, 4, 6])
    def test_N_enters_as_float(self, beta):
        # a float32 or Fraction N gives the float N's value, bit for bit, and
        # an int N the value of the equal float
        want = rho2_even_beta(beta, 0.7, 20.5)
        for N in (np.float32(20.5), F(41, 2), np.array(20.5)):
            assert rho2_even_beta(beta, 0.7, N) == want
        assert rho2_even_beta(beta, 0.7, 20) == rho2_even_beta(beta, 0.7, 20.0)

    def test_holonomic_range_bounded(self):
        got, peak = traced_peak(lambda: rho2_even_beta(6, 200.0))
        assert got == pytest.approx(1.0, abs=0.02)
        assert peak < 20e6
        with pytest.raises(ValueError, match=r"x must lie in \[-200, 200\]"):
            rho2_even_beta(6, 200.5)

    def test_quadrature_reach(self):
        # |x| <= 20, except at an integer N whose polynomial integrand the rule
        # integrates exactly: N <= 2 quad_order - 1 at beta = 2, quad_order - 1 at 4
        for beta, x, N in ((2, 30.0, 100), (2, 60.0, 127.0), (4, 23.0, 47)):
            want = rho2_even_beta(beta, x, N, method="holonomic")
            assert rho2_even_beta(beta, x, N) == pytest.approx(want, abs=1e-10)
        for args in ((2, 20.5), (4, 20.5), (2, 30.0, 128), (2, 30.0, 100.5), (4, 23.0, 48),
                     (4, 30.0, 1000), (2, 21.0, 80, 32)):
            with pytest.raises(ValueError, match=r"x must lie in \[-20, 20\]"):
                rho2_even_beta(*args)

    @pytest.mark.parametrize("beta, method", [
        (2, "bogus"), (2, "tensor"), (4, "hankel"), (2, "pfaffian"), (6, "hankel"),
        (6, "pfaffian"), (6, "tensor"), (4, "")])
    def test_method_validated(self, beta, method):
        with pytest.raises(ValueError, match="method must be"):
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
        # an integer in [beta, 256], so that the certification rule has <= 512 nodes
        (4, {"quad_order": 64.5}), (2, {"quad_order": 64.5}), (2, {"quad_order": True}),
        (2, {"quad_order": math.nan}), (2, {"quad_order": 257}), (4, {"quad_order": 257}),
        (4, {"quad_order": 6000, "check_convergence": False}),
    ])
    def test_order_out_of_range(self, beta, kwargs):
        with pytest.raises(ValueError, match="quad_order"):
            rho2_even_beta(beta, 0.7, 16, **kwargs)

    @pytest.mark.parametrize("check, orders", [
        (None, [64, 128]), (True, [64, 128]), (np.True_, [64, 128]),
        (False, [64]), (np.False_, [64])])
    def test_check_convergence_rounds(self, check, orders, monkeypatch):
        # a numpy bool is taken as its value: np.False_ runs one engine order
        calls = []
        engine = _ENGINES["hankel"]
        monkeypatch.setitem(_ENGINES, "hankel", lambda f, n: calls.append(n) or engine(f, n))
        rho2_even_beta(2, 0.7, check_convergence=check)
        assert calls == orders

    @pytest.mark.parametrize("check", [0, 1, "no", 0.0, [False]])
    def test_check_convergence_refused(self, check):
        with pytest.raises(ValueError, match="check_convergence must be True, False or None, "
                                             f"got {re.escape(repr(check))}"):
            rho2_even_beta(2, 0.7, check_convergence=check)

    @pytest.mark.parametrize("beta, x, N", [
        (6, math.nan, None), (6, 0.7, math.nan), (6, 0.7, math.inf),
        (2, math.inf, None), (4, -math.inf, 16)])
    def test_non_finite_rejected(self, beta, x, N):
        # x lies in a closed interval per engine, N need only be finite
        with pytest.raises(ValueError, match=r"x must lie in \[|N must be finite"):
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
                integral = _ENGINES[_METHODS[beta][0]](lambda u: (1 - z * u) ** (N - 2),
                                                       order)
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
        # the 32 span nodes in one certified call per N: at beta = 2, 4 one
        # quadrature call per N and order, at beta = 6 one engine call per N
        # for both step settings
        calls = []
        if beta == 6:
            engine = beta_even._holonomic
            monkeypatch.setattr(beta_even, "_holonomic",
                                lambda *a: calls.append(a[2]) or engine(*a))
            want = [32, 48, 64, 96]
        else:
            method, n = _METHODS[beta][0], beta_even._DEFAULT_ORDER[beta]
            engine = _ENGINES[method]
            monkeypatch.setitem(_ENGINES, method, lambda f, order: calls.append(
                (order, f(np.zeros(1)).shape)) or engine(f, order))
            want = [(n, (32, 1)), (2 * n, (32, 1))] * 4
        got = rho2_correction_estimate(beta, np.linspace(0.1, 2.2, 32))
        assert got.shape == (32,) and calls == want

    def test_beta4_engine_one_pfaffian_call(self, monkeypatch):
        # the 4 x 4 Pfaffians of every row of f at once
        calls = []
        pf = beta_even._pfaffian
        monkeypatch.setattr(beta_even, "_pfaffian", lambda Q: calls.append(Q.shape) or pf(Q))
        got = _integral_beta4(lambda u: np.exp(np.multiply.outer([0.5j, 1.0j, 2.0j], u)), 48)
        assert got.shape == (3,) and calls == [(3, 4, 4)]

    @pytest.mark.parametrize("beta", [2, 4])
    def test_array_call_bounded(self, beta):
        # x goes through the quadrature engines in slices: the unsliced
        # temporaries of 4000 points would be 16 MB (beta = 2) and 50 MB (beta = 4)
        xs = np.linspace(0.1, 3.0, 4000)
        got, peak = traced_peak(lambda: rho2_even_beta(beta, xs, 40))
        assert peak < 4e6
        some = xs[::397]
        assert np.max(np.abs(got[::397] - [rho2_even_beta(beta, x, 40) for x in some])) <= 1e-14


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

    @pytest.mark.parametrize("beta, a", [(2, ()), (2, (2, 1)), (4, (1,)), (4, (3, 1, 2))])
    def test_one_engine_call(self, beta, a, monkeypatch):
        # every choice of roots of unity is a row of one call: beta^m rows
        calls = []
        method = _METHODS[beta][0]
        engine = _ENGINES[method]
        monkeypatch.setitem(_ENGINES, method, lambda f, n: calls.append(
            f(np.zeros(1)).shape) or engine(f, n))
        moment_integral(beta, 1.5, a)
        assert calls == [(beta ** len(a), 1)]

    def test_unsupported(self):
        with pytest.raises(ValueError, match="beta must be 2 or 4"):
            moment_integral(6, 1.0, (1,))
        with pytest.raises(ValueError, match="the number of exponents must be at most 3"):
            moment_integral(2, 1.0, (1, 1, 1, 1))

    @pytest.mark.parametrize("theta", [50.5, -60.0, 1e9])
    def test_theta_past_the_bound_refused(self, theta):
        # the rules resolve e^(i theta u) to |theta| = 50; at 1e9 the
        # recurrence once returned 1.1e6 with no warning
        with pytest.raises(ValueError, match=r"theta must lie in \[-50, 50\]"):
            moment_integral(2, theta, (2,))

    @pytest.mark.parametrize("a", [(-1,), (2, -3), (1.5,), (1, 1, -2)])
    def test_divergent_exponents_rejected(self, a):
        with pytest.raises(ValueError, match="exponent must be an integer >= 0"):
            moment_integral(2, 1.0, a)


def recurrence_residual(beta, cases, thetas):
    """The largest |lhs - rhs| of the recurrence over the cases and thetas,
    each integral looked up through moment_integral."""
    integral = lambda theta, expo: moment_integral(beta, theta, expo)
    return max(abs(lhs - rhs) for lhs, rhs in
               (_sides(beta, th, a, integral) for th in thetas for a in cases))


class TestRecurrence:
    def test_beta2_cases(self):
        assert verify_moment_recurrence(2) < 1e-8

    def test_beta2_row_value(self):
        # the moment-recurrence-beta2 row's residual, bit for bit (4.1e-14)
        assert verify_moment_recurrence(2).hex() == "0x1.71e72cd501fd6p-45"

    def test_beta4_row_value(self):
        assert verify_moment_recurrence(4).hex() == "0x1.6b760d3eb0d86p-46"

    def test_beta2_theta_range(self):
        assert recurrence_residual(2, ((2,), (3, 1)), (7.0, 4 * np.pi)) < 1e-8

    def test_beta4_cases(self):
        assert recurrence_residual(4, ((2,), (3,), (2, 1)), (1.0,)) < 1e-13

    @pytest.mark.parametrize("beta", [2, 4])
    def test_equal_pairs(self, beta):
        # an exponent equal to a_1 takes the sign of one above it
        cases = ((2, 2), (3, 3), (4, 4), (5, 5))
        assert recurrence_residual(beta, cases, (1.0, 2.5)) <= 1e-14

    def test_beta4_each_integral_once(self, monkeypatch):
        # the 44 distinct moment integrals over the default cases, keyed by
        # their sorted exponents, and 16 Chebyshev samples of the base
        # integral, one pfaffian engine call each
        calls = []
        engine = _ENGINES["pfaffian"]
        monkeypatch.setitem(_ENGINES, "pfaffian", lambda f, n: calls.append(n) or engine(f, n))
        assert verify_moment_recurrence(4) < 1e-13
        assert len(calls) == 60

    def test_theta_zero_rhs_vanishes(self):
        lhs, rhs = _sides(2, 0.0, (3, 1), lambda theta, expo: moment_integral(2, theta, expo))
        assert lhs == 0.0
        assert abs(rhs) < 1e-10


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
        # xi^k leads with s^(k + p), p the record's pi power
        for k, beta, s_power in ((0, 2, 2), (1, 2, 7), (0, 4, 4)):
            assert k + leading_xi_coefficient_exact(k, beta, 20)[1] == s_power

    def test_limit_matches_leading_spacing_coefficient(self):
        # the record's h^0, h^1 and h^2 coefficients, h = 1/N^2, are the
        # (k + p, k, p, 0) entries of P0, P1 and P2_BETA2: -1/4050, 1/675 and
        # -1/450 at k = 1. The tables come from the gap series, the record
        # from the Selberg integral and the evenness product
        for k in (0, 1):
            pw = leading_xi_coefficient_exact(k, 2, 20)[1]
            got = _h_coefficients(k, 2, 3)
            want = [table.coefficients_through(9).get((k + pw, k, pw, 0), F(0))
                    for table in (P0_BETA2, P1_BETA2, P2_BETA2)]
            assert got == want
        assert _h_coefficients(1, 2, 3) == [F(-1, 4050), F(1, 675), F(-1, 450)]

    def test_beta4_runs(self):
        frac, pw = leading_xi_coefficient_exact(0, 4, 16)
        assert pw == 4
        assert frac == F(16, 135) * (1 - F(1, 256)) * (1 - F(1, 1024))
        # the limit leads the beta = 4 two-point function, 16 pi^4 s^4 / 135
        s = 1e-2
        assert p_bulk(4, 0, s, 0.0) == pytest.approx(16 * np.pi ** 4 * s ** 4 / 135, rel=1e-2)

    def test_precondition(self):
        with pytest.raises(ValueError):
            leading_xi_coefficient_exact(2, 2, 7)

    @pytest.mark.parametrize("N", [3, F(3), 3.0, F(7, 2), -12])
    def test_exact_precondition_for_every_N(self, N):
        with pytest.raises(ValueError, match="k \\+ 2 < N/2"):
            leading_xi_coefficient_exact(0, 2, N)

    @pytest.mark.parametrize("N", [math.inf, -math.inf, math.nan])
    def test_exact_refuses_non_finite_N(self, N):
        with pytest.raises(ValueError, match="N must be finite"):
            leading_xi_coefficient_exact(0, 2, N)


@pytest.mark.parametrize("call", [
    lambda: leading_xi_coefficient_exact(62, 6, 10 ** 100),
    lambda: leading_xi_coefficient_exact(62, 6, 2 ** 53),
    lambda: leading_xi_coefficient_exact(62, 6, F(10 ** 15 + 1, 10 ** 8)),
    lambda: leading_xi_coefficient_exact(62, 6, 1e100),
], ids=["exact-1e100", "exact-2^53", "exact-denominator", "float-1e100"])
def test_exact_n_past_the_cap_refused_at_once(call):
    # the exact record's integers grow as N^(kappa n (n - 1)): at 10^100 the
    # calls took 7.5 s to 29 s
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="N must be at most 10000000"):
        call()
    assert time.perf_counter() - t0 < 1.0


def test_exact_n_at_the_cap_accepted():
    assert leading_xi_coefficient_exact(0, 2, 10 ** 7)[0] == F(1, 3) * (1 - F(1, 10 ** 14))
    # the evenness factor is multiplied in floats at any N
    assert evenness_factor(2, 3.0, 1e40) == pytest.approx(729e240, rel=1e-14)


def test_evenness_factor_exact_matches_float():
    # an int, numpy integer or Fraction argument gives the float of the same value
    exact = evenness_factor(3, 2, 10)
    assert type(exact) is float and exact == evenness_factor(3, 2.0, 10.0)
    # numpy integers too: in int64 the product wrapped around
    assert evenness_factor(3, np.int64(2), np.int64(10 ** 5)) == evenness_factor(3, 2.0, 1e5)
    assert evenness_factor(3, 2, F(21, 2)) == evenness_factor(3, 2.0, 10.5)
