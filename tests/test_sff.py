import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from circbeta import (cbe_trace_moment, oracle_series_coefficients, series_coefficient, sff,
                      sff_bulk_scaled, sff_bulk_term, sff_exact, sff_series,
                      verify_x6)
from circbeta.sff import (_SERIES, ORACLE_ORDER, POLYNOMIALS, SERIES_POWERS, _d_coeff,
                          _k_powers, _partition_boxes, _series_antisymmetric,
                          root_modulus_deviation)


class TestExact:
    def test_unitary_values(self):
        assert sff_exact(2, 10, 3) == pytest.approx(3 / (2 * np.pi))
        assert sff_exact(2, 10, 25) == pytest.approx(10 / (2 * np.pi))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_zero_mode(self, beta):
        assert sff_exact(beta, 12, 0) == 0.0

    def test_orthogonal_value(self):
        want = (2 * 3 - 3 * (scipy_digamma(3 + 4.5) - scipy_digamma(4.5))) / (2 * np.pi)
        assert sff_exact(1, 8, 3) == pytest.approx(float(want), abs=1e-12)

    def test_orthogonal_tail_branch(self):
        want = (2 * 8 - 10 * (scipy_digamma(10 + 4.5) - scipy_digamma(10 - 3.5))) \
            / (2 * np.pi)
        assert sff_exact(1, 8, 10) == pytest.approx(float(want), abs=1e-12)

    def test_symplectic_tail(self):
        assert sff_exact(4, 9, 30) == pytest.approx(9 / (2 * np.pi))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("N,k", [(10, 2.7), (10.5, 3), (math.inf, 3), (10, math.nan),
                                     (math.nan, 3), (10, math.inf), ("10", 3)])
    def test_non_integral_rejected(self, beta, N, k):
        with pytest.raises(ValueError, match="must be an integer"):
            sff_exact(beta, N, k)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_integer_types_accepted(self, beta):
        want = sff_exact(beta, 10, 3)
        for N, k in ((np.int64(10), np.int32(3)), (10.0, 3.0), (10, -3), (np.float64(10), 3)):
            assert sff_exact(beta, N, k) == want

    def test_symplectic_reflection_region(self):
        # argument of the shifted digamma is negative for k < N
        N, k = 12, 5
        want = (k / 2) * (1 + 0.5 * (scipy_digamma(N + 0.5)
                                     - scipy_digamma(N - k + 0.5))) / (2 * np.pi)
        assert sff_exact(4, N, k) == pytest.approx(float(want), abs=1e-12)

    def test_unitary_bulk_is_n_independent(self):
        # exact on the integer lattice tau N
        for N in (20, 48):
            for tau in (0.25, 0.5, 1.5):
                assert sff_bulk_scaled(2, N, tau) == pytest.approx(
                    min(tau, 1.0), abs=1e-14)


class TestBulkTerms:
    def test_orthogonal_leading(self):
        assert sff_bulk_term(1, 0, 0.5) == pytest.approx(1 - 0.5 * math.log(2.0))

    def test_orthogonal_kink_continuity(self):
        low = 2 * 1.0 - 1.0 * math.log(3.0)
        high = 2 - 1.0 * math.log(3.0 / 1.0)
        assert low == pytest.approx(high)
        assert sff_bulk_term(1, 0, 1.0) == pytest.approx(2 - math.log(3.0))

    def test_correction_continuity_at_kink(self):
        eps = 1e-9
        assert sff_bulk_term(1, 1, 1.0 - eps) == pytest.approx(
            sff_bulk_term(1, 1, 1.0 + eps), abs=1e-6)
        assert sff_bulk_term(1, 1, 1.0) == pytest.approx(4.0 / 27.0)

    def test_symplectic_correction_value(self):
        assert sff_bulk_term(4, 1, 0.5) == pytest.approx(-3.0 / 192.0)

    def test_symplectic_saturation(self):
        assert sff_bulk_term(4, 0, 2.5) == 1.0
        assert sff_bulk_term(4, 1, 2.5) == 0.0
        assert sff_bulk_term(4, 2, 2.5) == 0.0

    def test_symplectic_second_order_continuous_at_two(self):
        assert sff_bulk_term(4, 2, 2.0 - 1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_unitary_corrections_vanish(self):
        assert sff_bulk_term(2, 1, 0.4) == 0.0
        assert sff_bulk_term(2, 2, 1.7) == 0.0

    def test_beta4_singularity_guard(self):
        with pytest.raises(ValueError):
            sff_bulk_term(4, 0, 1.0)

    @pytest.mark.parametrize("beta,taus", [(1, (0.3, 0.7, 1.5)), (4, (0.3, 0.7, 1.5))])
    def test_first_correction_richardson(self, beta, taus):
        for tau in taus:
            devs = {N: N ** 2 * (sff_bulk_scaled(beta, N, tau)
                                 - sff_bulk_term(beta, 0, tau)) for N in (20, 40, 80)}
            s1 = sff_bulk_term(beta, 1, tau)
            assert devs[80] == pytest.approx(s1, abs=1e-3)
            assert (devs[20] - s1) / (devs[40] - s1) == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("beta", [1, 4])
    def test_second_correction_richardson(self, beta):
        for tau in (0.3, 1.5):
            devs = {}
            for N in (200, 400):
                devs[N] = N ** 4 * (sff_bulk_scaled(beta, N, tau)
                                    - sff_bulk_term(beta, 0, tau)
                                    - sff_bulk_term(beta, 1, tau) / N ** 2)
            s2 = sff_bulk_term(beta, 2, tau)
            assert devs[400] == pytest.approx(s2, abs=2e-5)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        for beta in (1, 2, 4):
            with pytest.raises(ValueError, match="tau must be finite"):
                sff_bulk_term(beta, 0, tau)
            with pytest.raises(ValueError, match="tau must be finite"):
                sff_bulk_scaled(beta, 20, tau)
            with pytest.raises(ValueError, match="tau must be finite"):
                sff_series(beta, 0, tau)


class TestSeries:
    def test_leading_term(self):
        assert series_coefficient(0, 1, F(1)) == 1
        assert series_coefficient(0, 1, F(1, 2)) == 2
        assert sff_series(2, 0, 0.2) == pytest.approx(0.2, abs=1e-15)

    def test_unitary_series_vanish(self):
        assert sff_series(2, 1, 0.25) == 0.0
        assert sff_series(2, 2, 0.25) == 0.0

    def test_first_correction_leading_symplectic(self):
        assert series_coefficient(1, 2, F(2)) == F(-1, 48)
        assert sff_series(4, 1, 0.1) == pytest.approx(
            -1.0 / 4800.0 + float(sum(series_coefficient(1, m, F(2)) * F(1, 10) ** m
                                      for m in (3, 4, 5, 6))), abs=1e-16)

    def test_matches_orthogonal_taylor(self):
        # closed form 2 tau - tau log(1 + 2 tau): exact Taylor coefficients
        for m in SERIES_POWERS[0]:
            want = F(2) if m == 1 else -F((-1) ** m * 2 ** (m - 1), m - 1)
            assert series_coefficient(0, m, F(1, 2)) == want
        # first correction (tau/6)(1 - 1/(1+2 tau)^2)
        for m in SERIES_POWERS[1]:
            want = F((-1) ** m * m * 2 ** (m - 1), 6)
            assert series_coefficient(1, m, F(1, 2)) == want

    def test_matches_symplectic_taylor(self):
        for m in SERIES_POWERS[0]:
            want = F(1, 2) if m == 1 else F(1, 4 * (m - 1))
            assert series_coefficient(0, m, F(2)) == want
        for m in SERIES_POWERS[1]:
            assert series_coefficient(1, m, F(2)) == F(-m, 96)

    def test_second_order_taylor_from_relation(self):
        for kappa, d in ((F(1, 2), F(7, 360)), (F(2), F(7, 5760))):
            # the float coefficient the beta = 1, 4 closed forms use
            assert _d_coeff(float(kappa)) == float(d)
            for m in SERIES_POWERS[2]:
                want = d * m * (m - 1) * (m + 1) * (m + 2) \
                    * series_coefficient(0, m, kappa)
                assert series_coefficient(2, m, kappa) == want


class TestX6:
    def test_closed_forms(self):
        # the first relation against the closed forms; the second is checked
        # on the series, where it holds exactly at kappa = 1/2 and 2
        (first1, second1), (first4, second4) = verify_x6(1), verify_x6(4)
        assert max(first1, first4) < 1e-10
        assert second1 == 0.0 and second4 == 0.0

    def test_series_level_beta2(self):
        assert verify_x6(2) == (0.0, 0.0)

    def test_series_level_beta6(self):
        # first relation holds exactly at every stored order; the second holds
        # exactly at tau^2 but not beyond, since the tau^3/tau^4 coefficients
        # are decided by the oracle (TestOracle), not by d(kappa)
        first, second = verify_x6(6)
        assert first == 0.0
        kap = F(3)
        d = (kap ** 3 - 1) / (720 * kap ** 3 * (kap - 1))
        lhs2 = series_coefficient(2, 2, kap)
        assert lhs2 == d * 2 * 1 * 3 * 4 * series_coefficient(0, 2, kap)
        assert 1e-4 < second < 1e-2

    def test_general_beta_tau2_exact(self):
        for kap in (F(3, 2), F(5, 2), F(4)):
            d = (kap ** 3 - 1) / (720 * kap ** 3 * (kap - 1))
            c = -F(1) / (12 * kap)
            assert series_coefficient(1, 2, kap) == c * 2 * series_coefficient(0, 2, kap)
            assert series_coefficient(2, 2, kap) == d * 24 * series_coefficient(0, 2, kap)


class TestSymmetryAndZeros:
    def test_antisymmetry(self):
        assert _series_antisymmetric()

    @pytest.mark.parametrize("name", ["p2", "p4", "q2", "q4", "r2", "p6", "q6"])
    def test_zeros_on_unit_circle(self, name):
        roots = np.roots([float(c) for c in reversed(POLYNOMIALS[name])])
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-10

    def test_r4_zeros_defect_recorded(self):
        # the quartic in the second-correction series has a real reciprocal
        # root pair off the unit circle (moduli ~2.11 and ~0.47), unlike every
        # other stored polynomial; the oracle decides that this is the true
        # quartic (TestOracle)
        roots = np.roots([float(c) for c in reversed(POLYNOMIALS["r4"])])
        dev = np.max(np.abs(np.abs(roots) - 1.0))
        assert 1.0 < dev < 1.2
        assert root_modulus_deviation(("p2", "p4", "q2", "q4", "r2", "r4")) == dev

    def test_polynomials_palindromic(self):
        for name, poly in POLYNOMIALS.items():
            assert poly == tuple(reversed(poly)), name


# outside {1/2, 1, 2}, where d(kappa) and the tables agree beyond tau^2 anyway
ORACLE_KAPPAS = (F(3), F(3, 2), F(5, 7), F(7, 3), F(11, 4), F(1, 3), F(9, 5), F(13, 2))


class TestOracle:
    """Exact CβE moments E|Tr U^k|^2 from Jack polynomials decide the tables."""

    @pytest.fixture(scope="class")
    def oracles(self):
        return {kap: oracle_series_coefficients(kap) for kap in ORACLE_KAPPAS}

    def test_unitary_is_min_k_n(self):
        for N in (1, 3, 8):
            for k in range(1, 12):
                assert cbe_trace_moment(2, N, k) == min(k, N)

    @pytest.mark.parametrize("beta", [1, 4])
    def test_matches_sff_exact(self, beta):
        for N, k in ((8, 3), (12, 5), (10, 7), (3, 5), (4, 9)):
            assert float(cbe_trace_moment(beta, N, k)) == pytest.approx(
                2 * np.pi * sff_exact(beta, N, k), rel=1e-14)

    def test_reproduces_stored_series(self, oracles):
        for kap, oracle in oracles.items():
            for key in _SERIES:
                assert series_coefficient(*key, kap) == oracle[key], (kap, key)

    def test_decides_tau8_reading(self, oracles):
        for kap, oracle in oracles.items():
            assert series_coefficient(0, 8, kap) == oracle[0, 8]

    def test_decides_second_correction_against_relation(self, oracles):
        # d(kappa) would give 26/2187 and 13/486 at kappa = 3
        oracle = oracles[F(3)]
        assert (oracle[2, 3], oracle[2, 4]) == (F(25, 2187), F(37, 1458))
        d = F(3 ** 3 - 1, 720 * 3 ** 3 * 2)
        assert d * 3 * 2 * 4 * 5 * series_coefficient(0, 3, F(3)) == F(26, 2187)
        assert d * 4 * 3 * 5 * 6 * series_coefficient(0, 4, F(3)) == F(13, 486)

    def test_k_power_structure_at_redundant_k(self, oracles):
        # fitted from k <= 5; k = 7, 8 were not used
        for kap in (F(3), F(5, 7)):
            oracle = oracles[kap]
            for k in (7, 8):
                sums, den = sff._moment_series(kap.numerator, kap.denominator, k, ORACLE_ORDER)
                for r, s_r in enumerate(sums):
                    a_r = F(s_r, den * kap.numerator ** r)
                    assert a_r == sum(c * k ** m for (j, m), c in oracle.items()
                                      if m + 2 * j - 1 == r), (kap, k, r)


# ---------------------------------------------------------------------------
# Reference: the exact kernels in Fraction arithmetic and the k-power fit by
# Gauss-Jordan elimination. The library runs the same formulas on integers
# over one common denominator.

def _ref_jack_terms(k, alpha):
    for lam, boxes in _partition_boxes(k):
        theta = math.prod((j * alpha - i for i, j, _, _ in boxes[1:]), start=F(1))
        j_lam = math.prod(((alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
                           for _, _, arm, leg in boxes), start=F(1))
        yield (len(lam), (k * alpha * theta) ** 2 / j_lam,
               [(j * alpha - i, (j + 1) * alpha - i - 1) for i, j, _, _ in boxes])


def _ref_trace_moment(beta, N, k):
    total = F(0)
    for length, weight, shifts in _ref_jack_terms(k, 2 / F(beta)):
        if length <= N:
            for x, y in shifts:
                weight *= (N + x) / (N + y)
            total += weight
    return total


def _ref_moment_expansion(kappa, k, order):
    alpha = 1 / F(kappa)
    q = alpha.denominator
    total = [F(0)] * (order + 1)
    for _, weight, shifts in _ref_jack_terms(k, alpha):
        series = [1] + [0] * order
        for x, y in shifts:
            qx, qy = int(q * x), int(q * y)
            for n in range(order, 0, -1):
                series[n] += qx * series[n - 1]
            for n in range(1, order + 1):
                series[n] -= qy * series[n - 1]
        for r in range(order + 1):
            total[r] += weight * F(series[r], q ** r)
    return total


def _ref_solve(a, b):
    n = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


def _ref_oracle(kappa):
    k_max = len(_k_powers(ORACLE_ORDER)) + 1
    moments = {k: _ref_moment_expansion(kappa, k, ORACLE_ORDER) for k in range(1, k_max + 1)}
    coeffs = {}
    for r in range(ORACLE_ORDER + 1):
        powers = _k_powers(r)
        fit_ks = range(1, len(powers) + 1)
        fit = _ref_solve([[F(k) ** p for p in powers] for k in fit_ks],
                         [moments[k][r] for k in fit_ks])
        for k in range(len(powers) + 1, k_max + 1):
            assert sum(c * k ** p for c, p in zip(fit, powers)) == moments[k][r]
        for c, p in zip(fit, powers):
            coeffs[(r + 1 - p) // 2, p] = c
    return coeffs


class TestIntegerKernelsMatchFractionReference:
    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS, ids=str)
    def test_oracle(self, kappa):
        got = oracle_series_coefficients(kappa)
        assert got == _ref_oracle(kappa)
        assert all(type(v) is F for v in got.values())

    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS, ids=str)
    def test_moment_expansion(self, kappa):
        for k in range(1, 9):
            sums, den = sff._moment_series(kappa.numerator, kappa.denominator, k, ORACLE_ORDER)
            got = [F(c, den * kappa.numerator ** r) for r, c in enumerate(sums)]
            assert got == _ref_moment_expansion(kappa, k, ORACLE_ORDER), k
            assert all(type(v) is F for v in got)

    @pytest.mark.parametrize("beta", [F(2, 3), F(5, 2), 6], ids=str)
    def test_trace_moment(self, beta):
        for N in (1, 2, 3, 5, 9):
            for k in range(1, 9):
                got = cbe_trace_moment(beta, N, k)
                assert got == _ref_trace_moment(beta, N, k) and type(got) is F, (N, k)

    def test_spare_k_check_raises(self, monkeypatch):
        # a moment off the k-power structure at a spare k is refused
        series = sff._moment_series

        def corrupted(p, q, k, order):
            sums, den = series(p, q, k, order)
            return ([s + (k == 6) for s in sums], den)

        monkeypatch.setattr(sff, "_moment_series", corrupted)
        with pytest.raises(ArithmeticError, match="not a polynomial in k"):
            oracle_series_coefficients(F(3))
