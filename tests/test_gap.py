import math
import warnings

import mpmath
import numpy as np
import pytest

from circbeta import (AccuracyWarning, E_CUE_SMALL_S, KernelSpec, correction_factor,
                      correction_residual, e_bulk, e_finite_cue, e_pm,
                      extract_correction, fredholm_det, fredholm_trace_correction,
                      gauss_legendre)
from circbeta import gap
from circbeta.gap import _RUNGS, _STACK_ENTRIES, _blocks, _e_bulk, _fixed, _spectrum
from circbeta.spacing import P0_BETA1, p_bulk
from conftest import kernel_eval

SINE = KernelSpec("sine")
LKER = KernelSpec("l")


def sine_fixed(s, xi, n):
    """Order-n (det, correction) of the sine kernel on (0, s) at each entry
    of s: both parity blocks of the n-point rule on (-s/2, s/2)."""
    t = np.atleast_1d(np.asarray(s, float)) / 2.0
    return _fixed(t, xi, n, 0, None), _fixed(t, xi, n, 1, None)


def nu_derivative_of_series(s, xi):
    """Coefficient of 1/N^2 in the finite-N small-s gap series."""
    return sum(float(frac) * s ** sp * xi ** xp * math.pi ** pp
               for sp, xp, pp, np_, frac in E_CUE_SMALL_S.terms if np_ == 1)


class TestFredholmDet:
    def test_xi_zero(self):
        assert fredholm_det(SINE, 2.0, 0.0) == 1.0

    def test_small_s_expansion(self):
        assert fredholm_det(SINE, 1e-3, 1.0) == pytest.approx(1.0 - 1e-3, abs=1e-6)

    def test_spectral_convergence(self):
        ref = sine_fixed(3.0, 1.0, 256)[0]
        errs = [abs(sine_fixed(3.0, 1.0, n)[0] - ref) for n in (6, 8, 12)]
        assert errs[0] > errs[1] > errs[2]
        # super-algebraic: error gain from 8 to 12 nodes alone beats (8/12)^10
        assert errs[2] < errs[1] * (8.0 / 12.0) ** 10
        assert abs(sine_fixed(3.0, 1.0, 16)[0] - ref) < 1e-12

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            fredholm_det(SINE, -1.0, 0.5)

    @pytest.mark.parametrize("xi", [0.5, 1.0])
    def test_is_e_bulk_beta2(self, xi):
        # one route: the sine kernel's Fredholm data are e_bulk at beta = 2
        s = np.array([0.3, 1.7, 40.0])
        assert np.array_equal(fredholm_det(SINE, s, xi), e_bulk(2, 0, s, xi))
        assert np.array_equal(fredholm_trace_correction(SINE, LKER, s, xi),
                              e_bulk(2, 1, s, xi))
        assert fredholm_det(SINE, 1.7, xi) == e_bulk(2, 0, 1.7, xi)


class TestTraceCorrection:
    def test_xi_zero(self):
        assert fredholm_trace_correction(SINE, LKER, 1.0, 0.0) == 0.0

    def test_small_s_series(self):
        got = fredholm_trace_correction(SINE, LKER, 0.1, 1.0)
        assert got == pytest.approx(nu_derivative_of_series(0.1, 1.0), abs=1e-6)

    def test_out_of_range_xi(self):
        with pytest.raises(ValueError):
            fredholm_trace_correction(SINE, LKER, 1.0, 1.2)


class TestEBulk:
    def test_beta2_small_s(self):
        s, xi = 0.05, 1.0
        want = 1 - xi * s + xi ** 2 * np.pi ** 2 * s ** 4 / 36
        assert e_bulk(2, 0, s, xi) == pytest.approx(want, abs=1e-8)

    def test_beta1_small_s_against_series(self):
        # E0 = 1 - xi s + xi^2 int_0^s (s-t) P0(t) dt with the series P0
        rule = gauss_legendre(200, 0.0, 0.3)
        for xi in (0.25, 0.7, 1.0):
            oracle = 1 - 0.3 * xi + xi ** 2 * rule.integrate(
                lambda t: (0.3 - t) * np.array([P0_BETA1(ti, xi) for ti in np.atleast_1d(t)]))
            assert e_bulk(1, 0, 0.3, xi) == pytest.approx(oracle, abs=1e-9)

    def test_beta4_order1_xi_zero(self):
        assert e_bulk(4, 1, 1.7, 0.0) == 0.0

    def test_monotone_in_s(self):
        vals = [e_bulk(2, 0, s, 0.8) for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            e_bulk(2, 0, 1.0, 1.5)
        with pytest.raises(ValueError):
            e_bulk(3, 0, 1.0, 0.5)


def gap_identity_residual(e, beta, s_grid):
    """Max residual of E_1 = -(s^2 / (6 beta)) E_0'' on 64 Chebyshev nodes,
    E_order(s) = e(order, s)."""
    sample = lambda order: lambda xs: np.array([e(order, s) for s in xs])
    return correction_residual(sample(0), sample(1), correction_factor(beta),
                               0.0, 1.05 * s_grid.max(), s_grid, 64, 2, 0)


class TestIdentities:
    s_grid = np.linspace(0.1, 3.0, 31)

    @pytest.mark.parametrize("xi", [0.25, 0.5, 1.0])
    def test_beta2(self, xi):
        assert gap_identity_residual(lambda o, s: e_bulk(2, o, s, xi), 2, self.s_grid) < 1e-6

    @pytest.mark.parametrize("xi", [0.25, 0.5, 1.0])
    def test_beta1(self, xi):
        assert gap_identity_residual(lambda o, s: e_bulk(1, o, s, xi), 1, self.s_grid) < 1e-5

    @pytest.mark.parametrize("xi", [0.25, 0.5, 1.0])
    def test_beta4(self, xi):
        assert gap_identity_residual(lambda o, s: e_bulk(4, o, s, xi), 4, self.s_grid) < 1e-5

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_pm_level(self, sign):
        # the +- kernels carry the beta = 1 factor, -1/6
        assert gap_identity_residual(lambda o, s: e_pm(sign, o, s, 0.8), 1,
                                     self.s_grid) < 1e-5


def toeplitz(N, phi):
    """The real symmetric Toeplitz matrix c_|j-k| of e_finite_cue, in full."""
    d = np.arange(1, N)
    c = np.concatenate([[phi / (2 * np.pi)], np.sin(d * (phi / 2)) / (np.pi * d)])
    j = np.arange(N)
    return c[np.abs(j[:, None] - j[None, :])]


def toeplitz_det_mp(N, phi, xi):
    """det(I - xi c_|j-k|) at 40 digits from the exact entries at the float
    phi, by Durbin's recursion: det T_(k+1) = det T_k e_k, e_k the order-k
    prediction error (valid while no leading principal minor vanishes)."""
    with mpmath.workdps(40):
        phi, xi = mpmath.mpf(phi), mpmath.mpf(xi)
        t = [1 - xi * phi / (2 * mpmath.pi)] + [
            -xi * mpmath.sin(d * phi / 2) / (mpmath.pi * d) for d in range(1, N)]
        e = det = t[0]
        a = []
        for k in range(1, N):
            kappa = -(t[k] + mpmath.fsum(a[i] * t[k - 1 - i] for i in range(k - 1))) / e
            a = [a[i] + kappa * a[k - 2 - i] for i in range(k - 1)] + [kappa]
            e *= 1 - kappa ** 2
            det *= e
        return float(det)


class TestFiniteCue:
    @pytest.mark.parametrize("xi, bound", [(-0.5, 3e-15), (0.4, 1e-15), (1.0, 1e-15),
                                           (1.6, 1e-15)])
    def test_against_mpmath(self, xi, bound):
        # at xi = -0.5 the LU pivots sit just above 1, where doubles are twice
        # as far apart: N = 57, s = 0.25 reads 2.7e-15 (12 ulp of 1.125)
        for N in (1, 2, 3, 5, 41, 57, 120):
            for s in (0.25, 0.5, 1.3):
                phi = min(2 * np.pi * s / N, 2 * np.pi)
                assert abs(e_finite_cue(N, phi, xi) - toeplitz_det_mp(N, phi, xi)) <= bound

    @pytest.mark.parametrize("N", [1, 2, 3, 20, 21, 40, 41, 80, 81, 160, 161, 320, 321])
    def test_matches_full_eigenvalue_product(self, N):
        # the route before the split: one eigensolve of the whole matrix
        for phi in (2 * np.pi * 0.3 / N, 2 * np.pi * min(1.7 / N, 1.0), 2.0, 2 * np.pi):
            lam = np.linalg.eigvalsh(toeplitz(N, phi))
            for xi in (0.4, 1.0):
                assert abs(e_finite_cue(N, phi, xi) - np.prod(1 - xi * lam)) <= 4e-15

    @pytest.mark.parametrize("N", [2, 3, 12, 41, 80])
    def test_halves_are_parity_eigenvalue_products(self, N):
        # E^+- is prod (1 - xi lam) over the eigenpairs of the whole matrix
        # whose eigenvector v is mirror-even (v reversed = v) or mirror-odd
        # (v reversed = -v); eigenvalues too small to move a product may come
        # with mixed eigenvectors, so that the split can count them either way
        for phi in (2 * np.pi * 0.7 / N, 2.0):
            lam, V = np.linalg.eigh(toeplitz(N, phi))
            even = np.einsum("ij,ij->j", V, V[::-1]) > 0
            for xi in (0.4, 1.0):
                plus, minus = gap._cue_halves(N, phi, xi)
                assert abs(plus - np.prod(1 - xi * lam[even])) <= 4e-15
                assert abs(minus - np.prod(1 - xi * lam[~even])) <= 4e-15

    def test_xi_zero(self):
        assert e_finite_cue(12, 1.0, 0.0) == 1.0

    def test_full_circle(self):
        assert e_finite_cue(12, 2 * np.pi, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_small_s_series(self):
        for N in (5, 10, 20):
            got = e_finite_cue(N, 2 * np.pi * 0.15 / N, 1.0)
            assert got == pytest.approx(E_CUE_SMALL_S(0.15, 1.0, N), abs=1e-10)
        got = e_finite_cue(20, 2 * np.pi * 0.5 / 20, 1.0)
        assert got == pytest.approx(E_CUE_SMALL_S(0.5, 1.0, 20), abs=1e-6)

    @pytest.mark.parametrize("N", [1, 2, 12, 57, 320])
    def test_matches_complex_hermitian_build(self, N):
        # the Toeplitz matrix (e^{i d phi} - 1) / (2 pi i d), d = j - k, as built
        # in complex Hermitian form
        def complex_build(phi, xi):
            d = np.subtract.outer(np.arange(N), np.arange(N))
            A = np.full((N, N), phi / (2 * np.pi), dtype=complex)
            nz = d != 0
            A[nz] = (np.exp(1j * d[nz] * phi) - 1.0) / (2j * np.pi * d[nz])
            return float(np.prod(1.0 - xi * np.linalg.eigvalsh(A)))

        for phi in (2 * np.pi * 0.3 / N, 2 * np.pi * min(1.7 / N, 1.0), 2.0, 2 * np.pi):
            for xi in (0.4, 1.0):
                assert abs(e_finite_cue(N, phi, xi) - complex_build(phi, xi)) <= 1e-13

    def test_integral_n_only(self):
        phi = 2 * np.pi * 0.5 / 20
        assert e_finite_cue(20.0, phi, 0.7) == e_finite_cue(20, phi, 0.7)
        for bad in (20.5, 0, -4, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive integer"):
                e_finite_cue(bad, phi, 0.7)


class TestExtractCorrection:
    def test_matches_bulk_pipelines(self):
        est = extract_correction([20, 40, 80], 1.0, 1.0)
        assert est.E0 == pytest.approx(e_bulk(2, 0, 1.0, 1.0), abs=1e-7)
        assert est.E1 == pytest.approx(e_bulk(2, 1, 1.0, 1.0), abs=1e-4)
        assert est.residual_order == pytest.approx(4.0, abs=0.3)

    def test_four_values_order_estimate(self):
        est = extract_correction([16, 32, 64, 128], 0.8, 0.5)
        assert est.residual_order == pytest.approx(4.0, abs=0.3)
        assert est.E0 == pytest.approx(e_bulk(2, 0, 0.8, 0.5), abs=1e-8)

    def test_five_values(self):
        est = extract_correction([20, 40, 80, 160, 320], 1.1, 0.7)
        assert est.residual_order == pytest.approx(4.0, abs=0.3)
        assert est.E0 == pytest.approx(e_bulk(2, 0, 1.1, 0.7), abs=1e-7)

    def test_four_values_not_geometric(self):
        est = extract_correction([20, 30, 60, 80], 1.0, 1.0)
        assert est.residual_order == pytest.approx(4.0, abs=0.3)
        assert est.E0 == pytest.approx(e_bulk(2, 0, 1.0, 1.0), abs=1e-7)

    def test_needs_three(self):
        with pytest.raises(ValueError):
            extract_correction([10, 20], 1.0, 1.0)

    @pytest.mark.parametrize("N_list", [[10, 20, 20, 40], [20, 40, 80, 80], [20, 40, 40, 80]])
    def test_rejects_repeated_N(self, N_list, monkeypatch):
        # refused before any determinant is computed, so with no warning
        calls = []
        monkeypatch.setattr(gap, "e_finite_cue", lambda *a: calls.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distinct"):
                extract_correction(N_list, 1.0, 1.0)
        assert calls == []

    @pytest.mark.parametrize("N_list", [[20.5, 40, 80], [True, 40, 80], [20, 40, 4097]])
    def test_refuses_bad_N_before_any_determinant(self, N_list, monkeypatch):
        calls = []
        monkeypatch.setattr(gap, "e_finite_cue", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="N must be"):
            extract_correction(N_list, 1.0, 1.0)
        assert calls == []

    def test_warns_on_degenerate_data(self):
        # xi = 0: every determinant is 1, so the data are constant in N
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyWarning):
                extract_correction([10, 20, 40], 1.0, 0.0)


def test_pm_against_beta1_combination():
    # the beta = 1 combination with reweighted thinning parameter
    s, xi = 1.2, 0.6
    xh = 2 * xi - xi * xi
    want = ((1 - xi) * e_pm(-1, 0, s, xh) + e_pm(+1, 0, s, xh)) / (2 - xi)
    assert e_bulk(1, 0, s, xi) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("xi", [0.5, 0.8, 1.0])
def test_sine_kernel_splits_into_pm(xi):
    # the sine kernel on an interval is the sum of its even and odd parts:
    # E_0 = E_0^+ E_0^- and E_1 = E_1^+ E_0^- + E_0^+ E_1^-
    s = np.linspace(0.2, 3.0, 15)
    (p0, p1), (m0, m1) = ([e_pm(sg, o, s, xi) for o in (0, 1)] for sg in (+1, -1))
    assert np.max(np.abs(e_bulk(2, 0, s, xi) - p0 * m0)) <= 1e-13
    assert np.max(np.abs(e_bulk(2, 1, s, xi) - (p1 * m0 + p0 * m1))) <= 1e-13


def _lu_pair(kernel, kernel_l, s, xi, n=64):
    """det(I - xi A) and -det(I - xi A) Tr((I - xi A)^{-1} xi B) by LU, A and
    B the named kernel families (see kernel_eval) on (0, s)."""
    rule = gauss_legendre(n, 0.0, 1.0)
    x = s * rule.nodes
    sw = np.sqrt(s * rule.weights)
    M = np.eye(n) - xi * (sw[:, None] * kernel_eval(kernel, x[:, None], x[None, :])
                          * sw[None, :])
    B = xi * (sw[:, None] * kernel_eval(kernel_l, x[:, None], x[None, :])
              * sw[None, :])
    e0 = float(np.linalg.det(M))
    return e0, -e0 * float(np.trace(np.linalg.solve(M, B)))


PM = {+1: ("plus", "l_plus"), -1: ("minus", "l_minus")}


def _lu_bulk(beta, s, xi, n=64):
    if beta == 2:
        return _lu_pair("sine", "l", s, xi, n)
    if beta == 1:
        xh = 2 * xi - xi * xi
        m, p = _lu_pair(*PM[-1], s / 2, xh, n), _lu_pair(*PM[+1], s / 2, xh, n)
        return tuple(((1 - xi) * a + b) / (2 - xi) for a, b in zip(m, p))
    m, p = _lu_pair(*PM[-1], s, xi, n), _lu_pair(*PM[+1], s, xi, n)
    return (m[0] + p[0]) / 2, (m[1] + p[1]) / 8


class TestSpectralEngine:
    s_values = (0.05, 0.7, 1.6, 2.4, 3.15)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("xi", [0.3, 0.5, 1.0])
    def test_e_bulk_against_lu(self, beta, xi):
        for s in self.s_values:
            want = _lu_bulk(beta, s, xi)
            assert abs(e_bulk(beta, 0, s, xi) - want[0]) <= 1e-13
            assert abs(e_bulk(beta, 1, s, xi) - want[1]) <= 1e-13

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_large_s_certified_against_order_256(self, beta):
        # a fixed order 16 misses by up to 2e-3 here; at s = 20, t = 10 (beta
        # = 1, 2) starts at 48 and t = 20 (beta = 4) at 64, the first rungs at
        # or above 2 t + 12, and neither is certified before the next rung
        for s in (5.0, 10.0, 20.0):
            want = _lu_bulk(beta, s, 0.5, 256)
            assert abs(e_bulk(beta, 0, s, 0.5) - want[0]) <= 1e-10
            assert abs(e_bulk(beta, 1, s, 0.5) - want[1]) <= 1e-10
        for order in (0, 1):
            assert _e_bulk(beta, order, 20.0, 0.5)[1] >= (96 if beta == 4 else 64)

    @pytest.mark.parametrize("beta", [2, 4])
    @pytest.mark.parametrize("s", [26.0, 28.0, 30.0])
    def test_tiny_values_not_falsely_certified(self, beta, s):
        # orders below where the rule resolves sinc on (-t, t) can agree within
        # 1e-10 on values far below the true one: at beta = 4, s = 26, orders
        # 32 and 64 give E_1 = -1.5e-28 and -9.5e-12 against -2.24e-7
        want = _lu_bulk(beta, s, 0.5, 256)
        for order in (0, 1):
            assert abs(e_bulk(beta, order, s, 0.5) - want[order]) <= 1e-10

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("xi", [0.3, 0.5, 1.0])
    def test_e_pm_against_lu(self, sign, xi):
        for s in self.s_values:
            want = _lu_pair(*PM[sign], s / 2, xi)
            assert abs(e_pm(sign, 0, s, xi) - want[0]) <= 1e-13
            assert abs(e_pm(sign, 1, s, xi) - want[1]) <= 1e-13

    def test_e_pm_tiny_value_not_falsely_certified(self):
        # the minus block on (-26, 26): E_1^- is -1.07e-6, and orders 32 and
        # 64 agree on -9.6e-33 and -6.3e-15
        want = _lu_pair(*PM[-1], 26.0, 0.5, 256)[1]
        assert abs(e_pm(-1, 1, 52.0, 0.5) - want) <= 1e-10

    @pytest.mark.parametrize("xi", [0.3, 0.5, 1.0])
    def test_fredholm_against_lu(self, xi):
        for s in self.s_values:
            want = _lu_pair("sine", "l", s, xi)
            got = sine_fixed(s, xi, 64)
            assert abs(got[0][0] - want[0]) <= 1e-13
            assert abs(got[1][0] - want[1]) <= 1e-13

    @pytest.mark.parametrize("s, gap", [(3.15, 1e-7), (6.3, 1e-14)])
    def test_near_singular_corner_finite(self, s, gap):
        # beta = 4, xi = 1: e_bulk(4, ., s, .) uses the plus block on (-s, s),
        # where 1 - lam_max is ~5e-8 at s = 3.15 and ~7e-15 at s = 6.3 (blocks
        # of 64, the size of the order-64 rule on (0, s))
        lam, _ = _spectrum((s,), 128)
        assert 0.0 < 1.0 - lam[0].max() < gap
        e1 = e_bulk(4, 1, s, 1.0)
        assert math.isfinite(e1)
        assert abs(e1 - _lu_bulk(4, s, 1.0)[1]) <= 1e-13

    @pytest.mark.parametrize("family", ["sine", "l", "plus", "minus", "l_plus", "l_minus"])
    def test_matrix_bitwise_symmetric(self, family):
        # the blocks eigensolved for each kernel on (0, s): both parity blocks
        # on (-s/2, s/2) for sine and l, one block on (-s, s) for the others
        stack = int(family.startswith("l"))
        sign = family.rsplit("_", 1)[-1]
        rows, scale = {"plus": ([0], 1.0), "minus": ([1], 1.0)}.get(sign, ([0, 1], 0.5))
        for n in (16, 64, 512):
            A = _blocks(scale * np.array([0.3, 3.15, 6.3]), n)[stack][rows]
            assert A.shape == (len(rows), 3, n // 2, n // 2)
            assert np.array_equal(A, A.swapaxes(-1, -2))

    def test_blocks_against_kernel_eval(self):
        for t in (0.3, 3.15, 6.3):
            for n in (16, 64, 512):
                rule = gauss_legendre(n, -t, t)
                x, sw = rule.nodes[n // 2:], np.sqrt(rule.weights[n // 2:])
                K = _blocks(np.array([t]), n)[0][:, 0]
                for block, family in zip(K, ("plus", "minus")):
                    want = (sw[:, None] * sw[None, :]) * kernel_eval(
                        family, x[:, None], x[None, :])
                    assert np.max(np.abs(block - want)) <= 1e-14

    @pytest.mark.parametrize("t, n, tol", [(6.3, 16, 2e-15), (6.3, 64, 2e-15),
                                           (80.0, 512, 1e-13)])
    def test_blocks_against_mpmath(self, t, n, tol):
        # kernel_eval's own l_plus and l_minus round pi (x + y) before the sine:
        # off by 1.5e-14 at t = 6.3 and by more than 1e-13 at t = 80
        rule = gauss_legendre(n, -t, t)
        x, sw = rule.nodes[n // 2:], np.sqrt(rule.weights[n // 2:])
        idx = list(range(0, n // 2, max(1, n // 32))) + [n // 2 - 2, n // 2 - 1]
        got = np.stack(_blocks(np.array([t]), n))[:, :, 0][:, :, idx][..., idx]
        want = np.empty_like(got)
        with mpmath.workdps(30):
            pi = mpmath.pi
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    u, v = mpmath.mpf(x[i]), mpmath.mpf(x[j])
                    w = mpmath.mpf(sw[i]) * mpmath.mpf(sw[j])
                    near, far = mpmath.sin(pi * (u - v)), mpmath.sin(pi * (u + v))
                    k_near = near / (pi * (u - v)) if i != j else 1
                    for r, sg in enumerate((1, -1)):
                        want[0, r, a, b] = w * (k_near + sg * far / (pi * (u + v)))
                        want[1, r, a, b] = w * pi / 6 * ((u - v) * near + sg * (u + v) * far)
        assert np.max(np.abs(got - want)) <= tol
        if t > 10:
            W = sw[idx, None] * sw[None, idx]
            l_minus = W * kernel_eval("l_minus", x[idx, None], x[None, idx])
            assert np.max(np.abs(l_minus - want[1, 1])) > tol

    def test_cached_arrays_read_only(self):
        lam, d = _spectrum((1.3,), 64)
        assert not lam.flags.writeable and not d.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 0.0
        assert _spectrum.cache_info().maxsize is not None

    def test_one_spectrum_serves_beta1_beta2_and_pm(self):
        # beta = 1 at s, beta = 2 at s and e_pm at s all read the parity
        # blocks on (-s/2, s/2)
        grid = np.linspace(0.1, 3.0, 30)
        _spectrum.cache_clear()
        for order in (0, 1):
            e_bulk(1, order, grid, 0.5)
        misses = _spectrum.cache_info().misses
        for order in (0, 1):
            e_bulk(2, order, grid, 0.7)
            e_pm(+1, order, grid, 0.8)
            e_pm(-1, order, grid, 0.3)
        assert _spectrum.cache_info().misses == misses

    def test_unserved_kernels_refused(self):
        # KernelSpec names the sine and l kernels alone; e_pm serves the +- ones
        for family in ("plus", "minus", "l_plus", "l_minus"):
            with pytest.raises(ValueError, match=family):
                KernelSpec(family)
        with pytest.raises(ValueError, match="no Nystrom engine"):
            fredholm_det(LKER, 1.0, 0.5)
        with pytest.raises(ValueError, match="no Nystrom engine"):
            fredholm_trace_correction(SINE, SINE, 1.0, 0.5)

    def test_one_eigensolve_serves_every_xi_and_order(self, eigh_log):
        e_bulk(2, 0, 2.345, 0.5)
        solved = eigh_log.matrices
        for xi in (0.25, 0.5, 1.0):
            e_bulk(2, 1, 2.345, xi)
            e_bulk(2, 0, 2.345, xi)
        assert eigh_log.matrices == solved


class TestSweeps:
    grid = np.array([0.0, 0.05, 0.7, 1.6, 2.4, 3.15])

    @pytest.mark.parametrize("f", [lambda o, s: e_bulk(1, o, s, 0.5),
                                   lambda o, s: e_bulk(4, o, s, 0.5),
                                   lambda o, s: e_pm(-1, o, s, 0.5),
                                   lambda o, s: p_bulk(2, o, s, 0.5)],
                             ids=["e_bulk-beta1", "e_bulk-beta4", "e_pm", "p_bulk"])
    def test_integral_order(self, f):
        # an integral float or numpy order is the int order; a bool is refused
        for order in (0, 1):
            want = f(order, self.grid)
            assert np.array_equal(f(float(order), self.grid), want)
            assert np.array_equal(f(np.int64(order), self.grid), want)
        for bad in (0.5, True, 2, 2.0):
            with pytest.raises(ValueError, match="order must be 0 or 1"):
                f(bad, self.grid)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_e_bulk_array_matches_scalar(self, beta, xi):
        for order in (0, 1):
            got = e_bulk(beta, order, self.grid, xi)
            want = np.array([e_bulk(beta, order, s, xi) for s in self.grid])
            assert got.shape == self.grid.shape
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_e_pm_array_matches_scalar(self, sign, xi):
        for order in (0, 1):
            got = e_pm(sign, order, self.grid, xi)
            want = np.array([e_pm(sign, order, s, xi) for s in self.grid])
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_scalar_in_scalar_out(self):
        assert isinstance(e_bulk(1, 1, 1.2, 0.5), float)
        assert isinstance(fredholm_det(SINE, 1.2, 0.5), float)
        assert e_bulk(2, 0, [[0.5, 1.0]], 0.5).shape == (1, 2)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_mixed_grid_certified_per_node(self, beta):
        s = np.array([0.5, 5.0, 20.0])
        for order in (0, 1):
            values, orders = _e_bulk(beta, order, s, 0.5)
            # the s = 0.5 node stops where it would alone; s = 20 starts higher
            assert orders[0] == 24 and orders[2] > 32
            for k in range(s.size):
                assert _e_bulk(beta, order, s[k], 0.5)[1] == orders[k]
                assert abs(values[k] - _lu_bulk(beta, s[k], 0.5, 256)[order]) <= 1e-10

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_node(self, bad):
        # a NaN would otherwise fail the s > 0 test and read as E_0 = 1
        with pytest.raises(ValueError, match=r"s must lie in \[0, 300\]"):
            e_bulk(2, 0, [0.5, bad], 0.5)

    def test_unconverged_node_warns(self):
        # order 384 does not resolve the plus block on (-150, 150): orders 384
        # and 512 differ by 5e-5 (at s = 100 and xi = 0.2 they agree)
        with pytest.warns(AccuracyWarning, match="1 of 2"):
            values, orders = _e_bulk(4, 1, np.array([0.5, 150.0]), 0.05)
        assert orders.tolist() == [24, 512]
        assert values[0] == e_bulk(4, 1, 0.5, 0.05)

    @pytest.mark.parametrize("beta, s", [(1, 140.0), (2, 75.0), (4, 70.0)])
    def test_reach(self, beta, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            for order in (0, 1):
                assert _e_bulk(beta, order, s, 0.2)[1] <= 512

    def test_stacks_within_entry_budget(self, eigh_log):
        _spectrum.cache_clear()
        # only t = s / 2 <= 2 starts at order 16: the second grid fills its stacks
        for grid in (np.linspace(0.0, 100.0, 130), np.linspace(0.0, 4.0, 300)):
            e_bulk(2, 1, grid, 0.2)
        sizes = [(math.prod(shape[:-2]), shape[-1]) for shape in eigh_log]
        # a stack holds several blocks only while they fit the budget; a pair
        # of blocks of 96 (18432 entries) or more goes alone
        assert all(k * m * m <= max(_STACK_ENTRIES, 2 * m * m) for k, m in sizes)
        assert {m for _, m in sizes} >= {r // 2 for r in _RUNGS[:8]}
        assert max(k for k, _ in sizes) == 2 * (_STACK_ENTRIES // (2 * 8 ** 2))
