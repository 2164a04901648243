import math
from fractions import Fraction as F

import numpy as np
import pytest

from circbeta import (E_CUE_SMALL_S, P0_BETA1, P0_BETA2, P1_BETA1, P1_BETA2,
                      P2_BETA2, correction_factor, correction_residual,
                      gauss_legendre, p_bulk, rho2_bulk_term,
                      spacing_series_identity_holds, surmise_correction,
                      wigner_surmise)
from circbeta.spacing import CHEB_NODES, SeriesTable, _p_samples, tables_match_through


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_mul_nu(p, q, top):
    """Product of two polynomials in x_1..x_k with coefficients in nu, as dicts
    {(exponents, nu power): Fraction}, dropping x-degrees above top."""
    out = {}
    for (a, na), u in p.items():
        for (b, nb), v in q.items():
            e = tuple(i + j for i, j in zip(a, b))
            if sum(e) <= top:
                out[e, na + nb] = out.get((e, na + nb), 0) + u * v
    return out


def _cue_gap_series(max_s_power):
    """{(s, xi, pi, nu): Fraction} of the finite-N CUE gap series through
    s^max_s_power (at most 15), from the cluster expansion in xi."""
    top = max_s_power - 1
    # K(u) = sum_m k_m (pi u)^(2m), k_m polynomials in nu, from
    # sinc(w) = K(w) sinc(w / N) term by term in w^2
    sinc = [F((-1) ** m, math.factorial(2 * m + 1)) for m in range(top // 2 + 1)]
    k = []
    for m in range(len(sinc)):
        km = {0: sinc[m]}
        for j in range(1, m + 1):
            for n, c in k[m - j].items():
                km[n + j] = km.get(n + j, 0) - sinc[j] * c
        k.append(km)

    def kernel(i, j, dim):
        out = {}
        for m, km in enumerate(k):
            for r in range(2 * m + 1):
                e = [0] * dim
                e[i], e[j] = r, 2 * m - r
                c = math.comb(2 * m, r) * (-1) ** r
                for n, v in km.items():
                    out[tuple(e), n] = out.get((tuple(e), n), 0) + c * v
        return out

    def det(dim):
        # 1, 1 - K12^2 and 1 - K12^2 - K13^2 - K23^2 + 2 K12 K13 K23
        deg = top - dim + 1
        out = {((0,) * dim, 0): F(1)}
        pairs = [kernel(i, j, dim) for i in range(dim) for j in range(i + 1, dim)]
        terms = [(-1, _poly_mul_nu(a, a, deg)) for a in pairs]
        if dim == 3:
            terms.append((2, _poly_mul_nu(_poly_mul_nu(*pairs[:2], deg), pairs[2], deg)))
        for sign, poly in terms:
            for key, v in poly.items():
                out[key] = out.get(key, 0) + sign * v
        return out

    series = {(0, 0, 0, 0): F(1)}
    for dim in (1, 2, 3):
        for (e, n), v in det(dim).items():
            key = (sum(e) + dim, dim, sum(e), n)
            cube = math.prod(i + 1 for i in e)     # int over (0, s)^dim
            series[key] = series.get(key, 0) + F(-1) ** dim * v / (
                math.factorial(dim) * cube)
    return {key: v for key, v in series.items() if v != 0}


class TestTableChecksums:
    def test_gap_series_retyped(self):
        # independent re-typing: nu-polynomials rebuilt from their factored form
        factored = {
            (4, 2, 2): ([F(1), F(-1)], F(1, 36)),
            (6, 2, 4): (poly_mul([F(1), F(-1)], [F(2), F(-3)]), F(-1, 1350)),
            (8, 2, 6): (poly_mul(poly_mul([F(1), F(-1)], [F(1), F(-2)]),
                                 [F(3), F(-5)]), F(1, 52920)),
            (9, 3, 6): (poly_mul(poly_mul([F(1), F(-1)], [F(1), F(-1)]),
                                 [F(1), F(-4)]), F(-1, 291600)),
            (10, 2, 8): (poly_mul(poly_mul([F(1), F(-1)], [F(2), F(-3)]),
                                  [F(1), F(-5), F(7)]), F(-1, 1275750)),
            (11, 3, 8): (poly_mul(poly_mul([F(1), F(-1)], [F(1), F(-1)]),
                                  poly_mul([F(1), F(-4)], [F(6), F(-19)])),
                         F(1, 29767500)),
        }
        got = E_CUE_SMALL_S.coefficients_through(11)
        want = {(0, 0, 0, 0): F(1), (1, 1, 0, 0): F(-1)}
        for (sp, xp, pp), (nu_poly, scale) in factored.items():
            for np_, coeff in enumerate(nu_poly):
                if coeff:
                    want[(sp, xp, pp, np_)] = coeff * scale
        assert got == want

    def test_gap_series_from_cluster_expansion(self):
        # E = sum_k (-xi)^k / k! int_(0,s)^k det[K(x_i - x_j)] with the finite-N
        # kernel K(u) = sin(pi u) / (N sin(pi u / N)); the k-point term starts
        # at s^(k^2), so k <= 3 gives every term through s^11 exactly
        assert E_CUE_SMALL_S.coefficients_through(11) == _cue_gap_series(11)

    def test_beta2_spacing_retyped(self):
        want = {(2, 0, 2, 0): F(1, 3), (4, 0, 4, 0): F(-2, 45),
                (6, 0, 6, 0): F(1, 315), (7, 1, 6, 0): F(-1, 4050),
                (8, 0, 8, 0): F(-2, 14175), (9, 1, 8, 0): F(11, 496125)}
        assert P0_BETA2.coefficients_through(9) == want

    def test_beta1_spacing_retyped(self):
        # (xi - 2) and (xi - 2)(3 xi - 32) coefficients rebuilt from factors
        want = {(1, 0, 2, 0): F(1, 6), (3, 0, 4, 0): F(-1, 60),
                (5, 0, 6, 0): F(1, 1680), (7, 0, 8, 0): F(-1, 90720),
                (9, 0, 10, 0): F(1, 7983360)}
        for xp, c in enumerate([F(-2) * F(-1, 270), F(-1, 270)]):
            want[(4, xp, 4, 0)] = c
        for xp, c in enumerate([F(-2) * F(1, 4725), F(1, 4725)]):
            want[(6, xp, 6, 0)] = c
        quad = poly_mul([F(-2), F(1)], [F(-32), F(3)])   # (xi-2)(3xi-32)
        for xp, c in enumerate(quad):
            want[(8, xp, 8, 0)] = c * F(1, 5292000)
        assert P0_BETA1.coefficients_through(9) == want

    def test_xi_zero_column_is_two_point_series_beta2(self):
        # 1 - sinc^2 Taylor coefficients, exact
        a = [F((-1) ** k, math.factorial(2 * k + 1)) for k in range(5)]
        sinc2 = poly_mul(a, a)
        got = {k: v for k, v in P0_BETA2.coefficients_through(8).items() if k[1] == 0}
        want = {(2 * m, 0, 2 * m, 0): -sinc2[m] for m in range(1, 5)}
        assert got == want

    def test_xi_zero_column_is_two_point_series_beta1(self):
        # even s-powers: (1 - sinc^2) - Si * (sin u - u cos u)/u^2
        # odd s-powers: (pi/2) * (sin u - u cos u)/u^2
        a = [F((-1) ** k, math.factorial(2 * k + 1)) for k in range(6)]
        sinc2 = poly_mul(a, a)
        b = [F((-1) ** (k + 1) * 2 * k, math.factorial(2 * k + 1))
             for k in range(1, 6)]          # (sin - u cos)/u^2 at u^(2k-1)
        c = [F((-1) ** k, (2 * k + 1) * math.factorial(2 * k + 1))
             for k in range(6)]             # Si(u) at u^(2k+1)
        got = P0_BETA1.coefficients_through(9)
        for m in (1, 2, 3, 4):              # odd s-power 2m-1, pi power 2m
            assert got.get((2 * m - 1, 0, 2 * m, 0), F(0)) == b[m - 1] / 2
        for m in (2, 3, 4):                 # even s-power 2m
            bsi = sum(b[k - 1] * c[m - k] for k in range(1, m + 1))
            assert got.get((2 * m, 0, 2 * m, 0), F(0)) == -sinc2[m] - bsi


class TestEvalSeries:
    def test_limit_value(self):
        s, xi = 0.2, 1.0
        got = E_CUE_SMALL_S(s, xi)
        partial = (1 - s + np.pi ** 2 * s ** 4 / 36 - 2 * np.pi ** 4 * s ** 6 / 1350
                   + 3 * np.pi ** 6 * s ** 8 / 52920 - np.pi ** 6 * s ** 9 / 291600)
        assert got == pytest.approx(partial, abs=1e-7)

    def test_constant_terms(self):
        assert E_CUE_SMALL_S(0.0, 0.7, 12) == 1.0
        for table in (P0_BETA2, P1_BETA2, P2_BETA2, P0_BETA1, P1_BETA1):
            assert table(0.0, 0.7) == 0.0

    def test_second_correction_leading_term(self):
        want = -np.pi ** 4 * 0.1 ** 4 / 15 + np.pi ** 6 * 0.1 ** 6 / 45 \
            - np.pi ** 8 * 0.1 ** 8 * 2 / 675
        assert P2_BETA2(0.1, 0.0) == pytest.approx(want, rel=1e-7)


class TestSeriesIdentities:
    def test_beta2_exact(self):
        assert spacing_series_identity_holds(2)

    def test_beta1_exact(self):
        assert spacing_series_identity_holds(1)

    @pytest.mark.parametrize("nu_power, table", [(0, P0_BETA2), (1, P1_BETA2)])
    def test_spacing_tables_are_gap_derivatives(self, nu_power, table):
        # P = E''/xi^2 term by term, for the nu^0 and nu^1 parts of the gap series
        part = SeriesTable("e_part", tuple((sp, xp - 2, pp, 0, frac)
                                           for sp, xp, pp, np_, frac in E_CUE_SMALL_S.terms
                                           if np_ == nu_power))
        assert tables_match_through(part.second_derivative(), table, 9)

    def test_wrong_factor_fails(self):
        lhs = P0_BETA2.s_squared().second_derivative().scaled(F(-1, 6))
        assert not tables_match_through(lhs, P1_BETA2, 9)

    def test_no_identity_asserted_for_p2(self):
        # second-correction table is exposed as data; no analogue holds for it
        lhs = P0_BETA2.s_squared().second_derivative().scaled(F(-1, 12))
        assert not tables_match_through(lhs, P2_BETA2, 9)


class TestPBulk:
    def test_beta2_order0_small_s(self):
        s = 0.1
        lead = np.pi ** 2 * s ** 2 / 3 - 2 * np.pi ** 4 * s ** 4 / 45
        assert p_bulk(2, 0, s, 1.0) == pytest.approx(lead, rel=1e-3)
        assert p_bulk(2, 0, s, 1.0) == pytest.approx(
            P0_BETA2(s, 1.0), rel=1e-4)

    def test_beta2_order1_small_s(self):
        s = 0.1
        lead = -np.pi ** 2 * s ** 2 / 3 + np.pi ** 4 * s ** 4 / 9
        assert p_bulk(2, 1, s, 1.0) == pytest.approx(lead, rel=1e-3)
        assert p_bulk(2, 1, s, 1.0) == pytest.approx(
            P1_BETA2(s, 1.0), rel=1e-4)

    def test_beta1_order0_small_s(self):
        s = 0.1
        want = P0_BETA1(s, 1.0)
        assert p_bulk(1, 0, s, 1.0) == pytest.approx(want, rel=1e-4)

    def test_positivity_and_level_repulsion(self):
        for xi in (0.5, 1.0):
            vals = [p_bulk(2, 0, s, xi) for s in np.linspace(0.05, 3.0, 25)]
            assert all(v > -1e-9 for v in vals)
        assert p_bulk(2, 0, 1e-3, 1.0) < 1e-4
        assert p_bulk(4, 0, 1e-3, 1.0) < 1e-4
        # linear repulsion for the orthogonal case
        assert p_bulk(1, 0, 0.01, 1.0) == pytest.approx(np.pi ** 2 * 0.01 / 6,
                                                        rel=2e-2)

    def test_xi_zero_fallback(self):
        assert p_bulk(2, 0, 0.8, 0.0) == rho2_bulk_term(2, 0, 0.8)
        assert p_bulk(1, 1, 0.8, 0.0) == rho2_bulk_term(1, 1, 0.8)
        assert p_bulk(4, 0, 0.8, 0.0) == 4.0 * rho2_bulk_term(4, 0, 1.6)

    @pytest.mark.parametrize("beta", [2, 4])
    def test_xi_to_zero_continuity(self, beta):
        # the Fredholm pipeline approaches the two-point closed form
        for s in (0.6, 1.1):
            assert p_bulk(beta, 0, s, 1e-3) == pytest.approx(
                p_bulk(beta, 0, s, 0.0), abs=5e-3)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("xi", [0.0, 0.7])
    def test_array_matches_scalar_calls(self, beta, xi):
        grid = np.linspace(0.05, 2.72, 19)
        for order in (0, 1):
            got = p_bulk(beta, order, grid, xi)
            want = [p_bulk(beta, order, float(s), xi) for s in grid]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_list_input(self, xi):
        got = p_bulk(2, 0, [0.5, 1.0], xi)
        assert np.array_equal(got, p_bulk(2, 0, np.array([0.5, 1.0]), xi))

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_rejects_bad_s(self, xi, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            p_bulk(2, 0, bad, xi)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            p_bulk(2, 0, [0.5, bad], xi)

    @pytest.mark.parametrize("beta, order, xi", [
        (2, -1, 0.5), (2, 2, 0.5), (2, 2, 0.0), (4, 2, 0.0), (1, -1, 1.0)])
    def test_rejects_order(self, beta, order, xi):
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            p_bulk(beta, order, 1.0, xi)

    def test_moment_nulls_of_correction(self):
        rule = gauss_legendre(200, 1e-3, 4.0)
        for j in (0, 1):
            val = rule.integrate(lambda s: s ** j * p_bulk(2, 1, s, 1.0))
            assert abs(val) < 1e-3


def spacing_identity_residual(beta, s_grid, xi_grid):
    """Max residual of P_1 = -(1/(6 beta)) (s^2 P_0)'' over the grids, from the
    samples p_bulk interpolates."""
    hi = 1.1 * s_grid.max()
    return max(correction_residual(
        lambda xs: _p_samples(beta, xi, hi)[0],
        lambda xs: _p_samples(beta, xi, hi)[1],
        correction_factor(beta), 0.0, hi, s_grid, CHEB_NODES, 0, 2) for xi in xi_grid)


class TestSpacingIdentity:
    def test_beta2(self):
        r = spacing_identity_residual(2, np.linspace(0.2, 2.5, 24), (0.5, 1.0))
        assert r < 1e-4

    @pytest.mark.parametrize("beta,cb", [(1, 6.0), (4, 24.0)])
    def test_other_betas(self, beta, cb):
        assert correction_factor(beta) == -1.0 / cb
        r = spacing_identity_residual(beta, np.linspace(0.2, 2.5, 24), (0.5, 1.0))
        assert r < 1e-4


class TestWignerSurmise:
    rule = gauss_legendre(400, 0.0, 12.0)

    def test_normalization(self):
        assert self.rule.integrate(wigner_surmise) == pytest.approx(1.0, abs=1e-10)

    def test_unit_mean(self):
        assert self.rule.integrate(lambda s: s * wigner_surmise(s)) \
            == pytest.approx(1.0, abs=1e-10)

    def test_correction_moment_nulls(self):
        assert self.rule.integrate(surmise_correction) == pytest.approx(0.0, abs=1e-9)
        assert self.rule.integrate(lambda s: s * surmise_correction(s)) \
            == pytest.approx(0.0, abs=1e-9)

    def test_correction_against_finite_differences(self):
        h = 1e-4
        for s in (0.4, 1.0, 2.2):
            g = lambda t: t * t * wigner_surmise(t)
            fd = -(g(s + h) - 2 * g(s) + g(s - h)) / (12.0 * h * h)
            assert surmise_correction(s) == pytest.approx(fd, abs=1e-6)

    def test_graphical_accuracy_of_correction(self):
        grid = np.linspace(0.0, 3.0, 61)
        exact = np.array([p_bulk(2, 1, s, 1.0) if s > 0 else 0.0 for s in grid])
        assert np.max(np.abs(exact - surmise_correction(grid))) < 0.02


def test_series_table_operations():
    t = SeriesTable("demo", ((3, 0, 0, 0, F(1, 2)),))
    assert t.s_squared().terms == ((5, 0, 0, 0, F(1, 2)),)
    assert t.second_derivative().terms == ((1, 0, 0, 0, F(3)),)
    assert t.scaled(F(2)).terms == ((3, 0, 0, 0, F(1)),)
    assert t(2.0) == 4.0
