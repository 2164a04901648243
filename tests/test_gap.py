import math
import warnings

import numpy as np
import pytest

from circbeta import (AccuracyWarning, E_CUE_SMALL_S, KernelSpec, correction_factor,
                      correction_residual, e_bulk, e_finite_cue, e_pm,
                      extract_correction, fredholm_det, fredholm_trace_correction,
                      gap_probabilities, gauss_legendre, kernel_eval)
from circbeta.gap import _STACK_ENTRIES, _det_fixed, _e_bulk, _spectrum, _symmetrised
from circbeta.spacing import P0_BETA1

SINE = KernelSpec("sine")
LKER = KernelSpec("l")


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
        ref = _det_fixed(SINE, 3.0, 1.0, 256)
        errs = [abs(_det_fixed(SINE, 3.0, 1.0, n) - ref) for n in (6, 8, 12)]
        assert errs[0] > errs[1] > errs[2]
        # super-algebraic: error gain from 8 to 12 nodes alone beats (8/12)^10
        assert errs[2] < errs[1] * (8.0 / 12.0) ** 10
        assert abs(_det_fixed(SINE, 3.0, 1.0, 16) - ref) < 1e-12

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            fredholm_det(SINE, -1.0, 0.5)


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

    def test_result_record(self):
        r = gap_probabilities(2, 1.0, 1.0)
        assert r.E0 == pytest.approx(e_bulk(2, 0, 1.0, 1.0))
        assert 0.0 < r.E0 < 1.0 and r.quad_order == 32


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


class TestFiniteCue:
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

    @pytest.mark.parametrize("N_list", [[10, 20, 20, 40], [20, 40, 80, 80]])
    def test_rejects_repeated_N(self, N_list):
        with pytest.warns(AccuracyWarning), pytest.raises(ValueError, match="distinct"):
            extract_correction(N_list, 1.0, 1.0)

    def test_warns_on_degenerate_data(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyWarning):
                extract_correction([10, 10, 20, 40], 1.0, 1.0)


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
    """det(I - xi A) and -det(I - xi A) Tr((I - xi A)^{-1} xi B) by LU."""
    rule = gauss_legendre(n, 0.0, 1.0)
    x = s * rule.nodes
    sw = np.sqrt(s * rule.weights)
    M = np.eye(n) - xi * (sw[:, None] * kernel_eval(kernel, x[:, None], x[None, :])
                          * sw[None, :])
    B = xi * (sw[:, None] * kernel_eval(kernel_l, x[:, None], x[None, :]) * sw[None, :])
    e0 = float(np.linalg.det(M))
    return e0, -e0 * float(np.trace(np.linalg.solve(M, B)))


PM = {+1: (KernelSpec("plus"), KernelSpec("l_plus")),
      -1: (KernelSpec("minus"), KernelSpec("l_minus"))}


def _lu_bulk(beta, s, xi, n=64):
    if beta == 2:
        return _lu_pair(SINE, LKER, s, xi, n)
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
        # a fixed order 16 misses by up to 2e-3 here; the doubling must go on
        for s in (5.0, 10.0, 20.0):
            want = _lu_bulk(beta, s, 0.5, 256)
            assert abs(e_bulk(beta, 0, s, 0.5) - want[0]) <= 1e-10
            assert abs(e_bulk(beta, 1, s, 0.5) - want[1]) <= 1e-10
        assert gap_probabilities(beta, 20.0, 0.5).quad_order > 32

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("xi", [0.3, 0.5, 1.0])
    def test_e_pm_against_lu(self, sign, xi):
        for s in self.s_values:
            want = _lu_pair(*PM[sign], s / 2, xi)
            assert abs(e_pm(sign, 0, s, xi) - want[0]) <= 1e-13
            assert abs(e_pm(sign, 1, s, xi) - want[1]) <= 1e-13

    @pytest.mark.parametrize("xi", [0.3, 0.5, 1.0])
    def test_fredholm_against_lu(self, xi):
        for s in self.s_values:
            want = _lu_pair(SINE, LKER, s, xi)
            assert abs(_det_fixed(SINE, s, xi, 64)[0] - want[0]) <= 1e-13
            assert abs(_det_fixed(SINE, s, xi, 64, LKER)[0] - want[1]) <= 1e-13

    @pytest.mark.parametrize("s, gap", [(3.15, 1e-7), (6.3, 1e-14)])
    def test_near_singular_corner_finite(self, s, gap):
        # beta = 4, xi = 1: e_bulk(4, ., s, .) uses the plus kernel on (0, s),
        # where 1 - lam_max is ~5e-8 at s = 3.15 and ~3e-15 at s = 6.3
        lam, _ = _spectrum(*PM[+1], (s,), 64)
        assert 0.0 < 1.0 - lam.max() < gap
        e1 = e_bulk(4, 1, s, 1.0)
        assert math.isfinite(e1)
        assert abs(e1 - _lu_bulk(4, s, 1.0)[1]) <= 1e-13

    @pytest.mark.parametrize("family", ["cue", "sine", "l", "plus", "minus",
                                        "l_plus", "l_minus"])
    def test_matrix_bitwise_symmetric(self, family):
        kernel = KernelSpec(family, 9 if family == "cue" else None)
        for n in (16, 64, 256):
            A = _symmetrised(kernel, np.array([0.3, 3.15, 6.3]), n)
            assert A.shape == (3, n, n)
            assert np.array_equal(A, A.swapaxes(1, 2))

    def test_cached_arrays_read_only(self):
        lam, d = _spectrum(SINE, LKER, (1.3,), 64)
        assert not lam.flags.writeable and not d.flags.writeable
        with pytest.raises(ValueError):
            lam[0] = 0.0
        assert _spectrum.cache_info().maxsize is not None

    def test_one_eigensolve_serves_every_xi_and_order(self, eigh_log):
        e_bulk(2, 0, 2.345, 0.5)
        solved = eigh_log.matrices
        for xi in (0.25, 0.5, 1.0):
            e_bulk(2, 1, 2.345, xi)
            e_bulk(2, 0, 2.345, xi)
        assert eigh_log.matrices == solved


class TestSweeps:
    grid = np.array([0.0, 0.05, 0.7, 1.6, 2.4, 3.15])

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
            # the s = 0.5 node stops where it would alone; s = 20 goes on
            assert orders[0] == 32 and orders[2] > 32
            for k in range(s.size):
                assert _e_bulk(beta, order, s[k], 0.5)[1] == orders[k]
                assert abs(values[k] - _lu_bulk(beta, s[k], 0.5, 256)[order]) <= 1e-10

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_node(self, bad):
        # a NaN would otherwise fail the s > 0 test and read as E_0 = 1
        with pytest.raises(ValueError, match="finite and nonnegative"):
            e_bulk(2, 0, [0.5, bad], 0.5)

    def test_unconverged_node_warns(self):
        # order 256 does not resolve the sine kernel on (0, 100)
        with pytest.warns(AccuracyWarning, match="1 of 2"):
            values, orders = _e_bulk(2, 1, np.array([0.5, 100.0]), 0.2)
        assert orders.tolist() == [32, 256]
        assert values[0] == e_bulk(2, 1, 0.5, 0.2)

    def test_stacks_within_entry_budget(self, eigh_log):
        _spectrum.cache_clear()
        e_bulk(2, 1, np.linspace(0.0, 50.0, 66), 0.2)
        sizes = [(math.prod(shape[:-2]), shape[-1]) for shape in eigh_log]
        # a stack holds several matrices only while they fit the budget; one
        # matrix of order 256 (65536 entries) goes alone
        assert all(k * n * n <= max(_STACK_ENTRIES, n * n) for k, n in sizes)
        assert {n for _, n in sizes} >= {16, 32, 64, 128, 256}
        assert max(k for k, _ in sizes) == _STACK_ENTRIES // 16 ** 2
