import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circbeta import (correction_factor, correction_residual, pfaffian,
                      rho2_bulk_finite, rho2_bulk_term, rho_n_cue, rho_n_pfaffian,
                      sine_integral)


def pfaffian_combinatorial(A: np.ndarray):
    """Perfect-matching expansion; exponential cost, oracle for small matrices."""
    n = A.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0

    def rec(idx):
        if not idx:
            return 1.0
        i, rest = idx[0], idx[1:]
        total = 0.0
        for pos, j in enumerate(rest):
            sign = (-1.0) ** pos
            total += sign * A[i, j] * rec(rest[:pos] + rest[pos + 1:])
        return total

    return rec(tuple(range(n)))


class TestRhoNCue:
    def test_density(self):
        for N in (3, 10, 41):
            assert rho_n_cue(N, [0.7]) == pytest.approx(N / (2 * np.pi))

    def test_two_point_explicit(self):
        N, th = 10, np.pi
        k_diag = N / (2 * np.pi)
        k_off = np.sin(N * th / 2) / (2 * np.pi * np.sin(th / 2))
        assert rho_n_cue(N, [0.0, th]) == pytest.approx(k_diag ** 2 - k_off ** 2,
                                                        rel=1e-12)

    def test_bulk_two_point_expansion(self):
        N, s = 30, 0.5
        got = (2 * np.pi / N) ** 2 * rho_n_cue(N, [2 * np.pi * s / N, 0.0])
        sinc = np.sin(np.pi * s) / (np.pi * s)
        want = 1 - sinc ** 2 - np.sin(np.pi * s) ** 2 / (3 * N ** 2)
        assert got == pytest.approx(want, abs=1e-5)

    def test_repeated_angles(self):
        assert rho_n_cue(8, [0.3, 0.3]) == 0.0

    def test_exchange_and_rotation_invariance(self):
        rng = np.random.default_rng(11)
        th = rng.uniform(0, 2 * np.pi, 3)
        base = rho_n_cue(12, th)
        assert rho_n_cue(12, th[[2, 0, 1]]) == pytest.approx(base, abs=1e-12)
        assert rho_n_cue(12, th + 0.83) == pytest.approx(base, rel=1e-10)


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0.0, 3.5], [-3.5, 0.0]]) == pytest.approx(3.5)

    def test_block_diagonal(self):
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = 2.0, -2.0
        A[2, 3], A[3, 2] = -1.5, 1.5
        assert pfaffian(A) == pytest.approx(-3.0)

    def test_odd_dimension(self):
        A = np.zeros((3, 3))
        A[0, 1], A[1, 0] = 1.0, -1.0
        assert pfaffian(A) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            pfaffian(np.ones((4, 4)))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_squares_to_determinant(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((6, 6))
        A = B - B.T
        assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A), rel=1e-9,
                                                 abs=1e-12)

    def test_against_combinatorial_oracle(self):
        rng = np.random.default_rng(5)
        for n in (4, 6, 8):
            B = rng.standard_normal((n, n))
            A = B - B.T
            assert pfaffian(A) == pytest.approx(pfaffian_combinatorial(A), rel=1e-11)


class TestRhoNPfaffian:
    @pytest.mark.parametrize("beta", [1, 4])
    def test_density(self, beta):
        for N in (6, 7, 20):
            assert rho_n_pfaffian(beta, N, [0.9]) == pytest.approx(
                N / (2 * np.pi), rel=1e-12)

    @pytest.mark.parametrize("beta", [1, 4])
    def test_exchange_symmetry(self, beta):
        rng = np.random.default_rng(2)
        th = rng.uniform(0.1, 2 * np.pi - 0.1, 3)
        base = rho_n_pfaffian(beta, 9, th)
        assert rho_n_pfaffian(beta, 9, th[[1, 2, 0]]) == pytest.approx(base, rel=1e-10)

    @pytest.mark.parametrize("beta", [1, 4])
    def test_rotation_invariance(self, beta):
        th = np.array([0.4, 1.9])
        base = rho_n_pfaffian(beta, 11, th)
        assert rho_n_pfaffian(beta, 11, th + 1.23) == pytest.approx(base, rel=1e-10)

    def test_bulk_limit_beta1(self):
        # closed form at x = 1 against the finite-N route
        x = 1.0
        closed = 1.0 + np.pi * (np.pi - 2 * sine_integral(np.pi)) / (2 * np.pi ** 2)
        assert rho2_bulk_term(1, 0, x) == pytest.approx(closed, abs=1e-14)
        assert rho2_bulk_finite(1, 200, x) == pytest.approx(closed, abs=1e-4)

    @pytest.mark.parametrize("beta,x", [(1, 0.7), (4, 0.7), (1, 1.3), (4, 1.3)])
    def test_correction_convergence(self, beta, x):
        # N^2-scaled deviation from the limit approaches the closed-form
        # correction, with the 4:1 ratio confirming the pure 1/N^2 structure
        f0 = rho2_bulk_term(beta, 0, x)
        f1 = rho2_bulk_term(beta, 1, x)
        d40 = 40 ** 2 * (rho2_bulk_finite(beta, 40, x) - f0)
        d80 = 80 ** 2 * (rho2_bulk_finite(beta, 80, x) - f0)
        assert d80 == pytest.approx(f1, abs=2e-4)
        assert (d40 - f1) / (d80 - f1) == pytest.approx(4.0, rel=0.05)


class TestBulkTerms:
    def test_beta2_order0(self):
        assert rho2_bulk_term(2, 0, 0.5) == pytest.approx(1 - (2 / np.pi) ** 2)

    def test_beta2_order1_spot(self):
        # -(1/12)(d^2/dx^2)(x^2 (1 - sinc^2)) = -(1/3) sin^2(pi x)
        assert rho2_bulk_term(2, 1, 0.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_beta1_limit_at_zero(self):
        assert rho2_bulk_term(1, 0, 0.0) == 0.0
        assert rho2_bulk_term(1, 1, 0.0) == 0.0

    def test_evenness(self):
        for beta in (1, 2, 4):
            for order in (0, 1):
                assert rho2_bulk_term(beta, order, -0.8) == pytest.approx(
                    rho2_bulk_term(beta, order, 0.8), abs=1e-14)

    @pytest.mark.parametrize("x", [np.nan, np.inf, [0.5, -np.inf]])
    def test_non_finite_x_rejected(self, x):
        for beta in (1, 2, 4):
            with pytest.raises(ValueError, match="x must be finite"):
                rho2_bulk_term(beta, 0, x)
            if np.ndim(x) == 0:
                with pytest.raises(ValueError, match="x must be finite"):
                    rho2_bulk_finite(beta, 20, x)

    @pytest.mark.parametrize("N", [0, 1, -3, 2.5, math.nan, math.inf])
    def test_finite_needs_integer_N_of_two_or_more(self, N):
        for beta in (1, 2, 4):
            with pytest.raises(ValueError, match="N must be an integer >= 2"):
                rho2_bulk_finite(beta, N, 0.3)

    def test_cluster_decay(self):
        assert abs(rho2_bulk_term(2, 0, 20.0) - 1.0) < 1e-4
        assert abs(rho2_bulk_term(1, 0, 20.0) - 1.0) < 1e-2
        # the symplectic tail decays like cos(pi x)/x: only ~1e-2 at x = 20
        assert abs(rho2_bulk_term(4, 0, 20.0) - 0.25) < 2e-2


def rho2_identity_residual(beta, order, c, outer):
    """Max residual of rho_order = c x^outer (x^2 rho_0)'' on 96 Chebyshev
    nodes over [0.1, 3.3], checked at 15 points of [0.2, 3]."""
    return correction_residual(lambda xs: rho2_bulk_term(beta, 0, xs),
                               lambda xs: rho2_bulk_term(beta, order, xs), c,
                               0.1, 1.1 * 3.0, np.linspace(0.2, 3.0, 15), 96, outer, 2)


class TestDifferentialIdentities:
    def test_beta2_first_order(self):
        assert rho2_identity_residual(2, 1, correction_factor(2), 0) < 1e-8

    def test_beta1_first_order(self):
        assert rho2_identity_residual(1, 1, correction_factor(1), 0) < 1e-7

    def test_beta4_first_order(self):
        assert rho2_identity_residual(4, 1, correction_factor(4), 0) < 1e-7

    def test_beta2_second_order(self):
        # rho_2 = -((pi x)^2 / 60)(x^2 rho_0)''
        assert rho2_identity_residual(2, 2, -np.pi ** 2 / 60, 2) < 1e-8

    def test_second_order_restricted(self):
        # the second-order term, and with it the identity, exists for beta = 2 only
        for beta in (1, 4):
            with pytest.raises(ValueError):
                rho2_bulk_term(beta, 2, 0.5)
