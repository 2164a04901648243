from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from circbeta import (E_CUE_SMALL_S, P0_BETA2, P1_BETA2, IntegrationFailure,
                      KernelSpec, e_bulk, e_tau, fredholm_det, gauss_legendre, painleve,
                      sigma1_from_sigma0, solve_sigma0)
from circbeta.painleve import _ORDER, _origin_block, _poly_eval, _residual_d1y

EXACT_X = (Fraction(1), Fraction(1, 3), Fraction(2, 7))    # xi / pi


def sigma0_series(xi, n_terms):
    """Taylor coefficients [c_0 .. c_n_terms] of the gap transcendent at t = 0."""
    return np.array(_origin_block(xi / np.pi, n_terms)[0], float)


def sigma1_series(xi, n_terms):
    """Taylor coefficients [c_0 .. c_n_terms] of the first-correction
    transcendent -(2 t s s' + t^2 s'') / 12 at t = 0: t (int sigma_1/t)'."""
    return np.arange(n_terms + 1) * np.array(_origin_block(xi / np.pi, n_terms)[4], float)


@pytest.fixture
def residual_log(monkeypatch):
    """Every abscissa at which solve_sigma0 checks the second-order residual;
    the residual is raised by `bump` wherever bump(t) is true."""
    log = {"t": [], "bump": lambda t: np.zeros_like(t, dtype=bool)}

    def recorder(t, s, sp, spp):
        t = np.asarray(t, float)
        log["t"].append(t.copy())
        return _residual_d1y(t, s, sp, spp) + log["bump"](t)

    monkeypatch.setattr(painleve, "_residual_d1y", recorder)
    return log


class TestSeries:
    def test_boundary_coefficients(self):
        for xi in (0.3, 1.0):
            c = sigma0_series(xi, 4)
            assert c[1] == pytest.approx(-xi / np.pi, abs=1e-15)
            assert c[2] == pytest.approx(-xi ** 2 / np.pi ** 2, abs=1e-15)

    def test_third_coefficient_regression(self):
        # frozen value from the order-by-order substitution, xi = 1
        assert sigma0_series(1.0, 3)[3] == pytest.approx(-0.032251534433199495,
                                                         abs=1e-15)

    def test_deep_orders(self):
        # the recursion never divides by xi, so deep orders stay accurate
        assert np.all(np.isfinite(sigma0_series(1.0, 40)))
        # the terms of the series at t = 4, near its radius of convergence,
        # against exact arithmetic, relative to the largest; single coefficients
        # near a sign change lose more digits to cancellation
        exact = np.array([float(a) for a in _origin_block(Fraction(1, 3), 40)[0]])
        terms = 4.0 ** np.arange(41)
        err = np.abs(sigma0_series(np.pi / 3, 40) - exact) * terms
        assert np.max(err) <= 1e-14 * np.max(np.abs(exact) * terms)

    def test_exact_coefficients_known(self):
        for x in EXACT_X:
            a = _origin_block(x, 5)[0]
            assert a[:3] == [0, -x, -x ** 2]
            assert a[4] == -x ** 4 + x ** 2 / 9
            assert a[5] == -x ** 5 + 5 * x ** 3 / 36

    def test_sigma1_boundary_exact(self):
        # the algebraic combination of the series reproduces the stated
        # boundary data through order t^5 exactly in rational arithmetic
        for x in EXACT_X:
            d = [k * f for k, f in enumerate(_origin_block(x, 5)[4])]
            assert d[:4] == [0, 0, 0, 0]
            assert d[4] == -x ** 2 / 9
            assert d[5] == -5 * x ** 3 / 36

    def test_sigma1_series_floats(self):
        s = sigma1_series(1.0, 5)
        assert s[4] == pytest.approx(-1.0 / (9 * np.pi ** 2), abs=1e-15)
        assert s[5] == pytest.approx(-5.0 / (36 * np.pi ** 3), abs=1e-15)


def _in_t(table, x, max_power, nu_power=0):
    """The nu^nu_power part of a SeriesTable at xi = pi x, as Taylor
    coefficients in t = pi s: each term s^a xi^b pi^c is homogeneous, b + c = a."""
    out = [Fraction(0)] * (max_power + 1)
    for sp, xp, pp, np_, frac in table.terms:
        assert xp + pp == sp
        if np_ == nu_power and sp <= max_power:
            out[sp] += frac * x ** xp
    return out


def _gap_terms(x):
    """Exact Taylor coefficients in t through t^11 of E_0 = exp int sigma_0/t
    and E_1 = E_0 int sigma_1/t."""
    block = _origin_block(x, 11)
    e0 = [Fraction(1)]
    for n in range(1, 12):
        e0.append(sum(k * block[3][k] * e0[n - k] for k in range(1, n + 1)) / n)
    return e0, [sum(e0[i] * block[4][n - i] for i in range(n + 1)) for n in range(12)]


class TestExactOracle:
    """The recursion at t = 0 in exact arithmetic against the golden small-s
    tables: E_0 = exp int sigma_0/t and E_1 = E_0 int sigma_1/t are the nu^0
    and nu^1 parts of the finite-N gap series, and their second derivatives
    over xi^2 are the spacing series P_0 and P_1."""

    @pytest.mark.parametrize("x", EXACT_X)
    def test_gap_series(self, x):
        e0, e1 = _gap_terms(x)
        assert e0 == _in_t(E_CUE_SMALL_S, x, 11, 0)
        assert e1 == _in_t(E_CUE_SMALL_S, x, 11, 1)

    @pytest.mark.parametrize("x", EXACT_X)
    def test_spacing_series(self, x):
        for e, table in zip(_gap_terms(x), (P0_BETA2, P1_BETA2)):
            second = [(n + 2) * (n + 1) * e[n + 2] / x ** 2 for n in range(10)]
            assert second == _in_t(table, x, 9)


class TestSolve:
    def test_xi_zero_fixed_point(self):
        sol = solve_sigma0(0.0, np.pi)
        assert np.all(sol.sigma0 == 0.0)
        # the general step rule: all-zero Taylor coefficients, one step to t_max
        sol = sigma1_from_sigma0(sol)
        assert sol.grid.tolist() == [0.0, np.pi]
        for s in (0.0, 0.5):
            assert e_tau(sol, s, 0) == 1.0 and e_tau(sol, s, 1) == 0.0

    def test_matches_series_in_small_window(self):
        sol = solve_sigma0(0.5, 0.5)
        c = sigma0_series(0.5, 6)
        k = np.arange(7)
        for t in np.linspace(1e-2, 5e-2, 7):
            series = float(np.sum(c * t ** k))
            assert float(sol._dense(t)[0]) == pytest.approx(series, abs=1e-9)

    def test_residual_invariant(self):
        for xi in (0.25, 1.0):
            sol = solve_sigma0(xi, 3 * np.pi)
            assert np.max(np.abs(sol.ode_residual)) <= 1e-8

    def test_third_order_system_reproduces_series(self):
        # plain ODE integration of the third-order system near t = 0.1
        c = sigma0_series(1.0, 6)
        k = np.arange(7)
        t0 = 1e-2
        y0 = np.array([np.sum(c * t0 ** k),
                       np.sum(k[1:] * c[1:] * t0 ** (k[1:] - 1)),
                       np.sum(k[2:] * (k[2:] - 1) * c[2:] * t0 ** (k[2:] - 2))])

        def rhs(t, y):
            s, sp, spp = y
            return np.array([sp, spp, -(t * spp + 6 * t * sp ** 2 + 4 * t * t * sp
                                        - 4 * s * (t + sp)) / t ** 2])

        traj = solve_ivp(rhs, (t0, 0.1), y0, method="RK45", rtol=1e-12, atol=1e-14)
        series_at = float(np.sum(c * 0.1 ** k))
        assert traj.y[0, -1] == pytest.approx(series_at, abs=1e-8)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            solve_sigma0(1.0, 40.0)
        with pytest.raises(ValueError):
            solve_sigma0(1.2, np.pi)
        for t_max in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                solve_sigma0(0.5, t_max)

    def test_supported_range_ends_at_six_pi(self):
        # at xi = 1 the steps leave the solution past t ~ 8 pi for another one of
        # the second-order equation, which the residual monitor cannot see
        t = 6 * np.pi
        assert abs(solve_sigma0(1.0, t).sigma0[-1] - (-t * t / 4 - 0.25)) < 1e-3
        with pytest.raises(ValueError, match=r"t_max must lie in \(0, 18.8496\]"):
            solve_sigma0(1.0, t + 0.1)

    @pytest.mark.parametrize("xi", [0.25, 0.5, 0.8, 1.0])
    def test_step_count(self, xi):
        assert solve_sigma0(xi, 2 * np.pi + 0.2).grid.size <= 8

    @pytest.mark.parametrize("xi", [0.25, 1.0])
    def test_residual_checked_inside_every_step(self, xi, residual_log):
        sol = solve_sigma0(xi, 2 * np.pi + 0.2)
        t = np.concatenate(residual_log["t"])
        for a, b in zip(sol.grid[:-1], sol.grid[1:]):
            assert np.count_nonzero((t > a) & (t < b)) >= 8
        assert np.all(np.isin(sol.grid, t))

    def test_residual_failure_reports_first_bad_t(self, residual_log):
        residual_log["bump"] = lambda t: t > 2.0
        with pytest.raises(IntegrationFailure) as err:
            solve_sigma0(0.7, np.pi)
        t = np.concatenate(residual_log["t"])
        assert err.value.t_last == np.min(t[t > 2.0])

    def test_integration_failure_carries_last_t(self, monkeypatch):
        # the Taylor recursion of y' = y^2 from y(0) = 1 in place of the sigma
        # system: it blows up at t = 1, where the steps collapse
        def taylor(y0, order):
            u = [y0]
            for k in range(order):
                u.append(sum(u[i] * u[k - i] for i in range(k + 1)) / (k + 1))
            return np.tile(u, (5, 1))

        monkeypatch.setattr(painleve, "_origin_block", lambda x, order: taylor(1.0, order))
        monkeypatch.setattr(painleve, "_sigma_taylor",
                            lambda c, y, order: taylor(float(y[0]), order))
        with pytest.raises(IntegrationFailure) as err:
            solve_sigma0(1.0, 2.0)
        assert 0.9 < err.value.t_last <= 1.05

    def test_step_count_cap(self, monkeypatch):
        full = solve_sigma0(0.5, 3 * np.pi)
        monkeypatch.setattr(painleve, "_MAX_STEPS", 5)
        with pytest.raises(IntegrationFailure) as err:
            solve_sigma0(0.5, 3 * np.pi)
        assert err.value.t_last == full.grid[5]

    @pytest.mark.parametrize("xi", [0.25, 0.5, 0.8, 1.0])
    def test_first_step_bounded_by_tail_alone(self, xi):
        # the series at t = 0 carries no parasitic solution, so no cap
        # proportional to the distance from t = 0 applies to the first step
        grid = solve_sigma0(xi, 2 * np.pi + 0.2).grid
        assert grid[0] == 0.0 and grid[1] > 1.0

    @pytest.mark.parametrize("xi", [0.25, 0.5, 0.8, 1.0])
    def test_dense_states_against_dop853(self, xi):
        # all five dense states against an independent Runge-Kutta solve of
        # the same system from the series data at a point off the singular t = 0
        t0, t_max = 1e-2, 2 * np.pi + 0.2
        y0 = _poly_eval(np.array(_origin_block(xi / np.pi, _ORDER), float), t0)

        def rhs(t, y):
            s, sp, spp = y[:3]
            return np.array([sp, spp, -(t * spp + 6 * t * sp ** 2 + 4 * t * t * sp
                                        - 4 * s * (t + sp)) / t ** 2,
                             s / t, -(2 * s * sp + t * spp) / 12])

        ref = solve_ivp(rhs, (t0, t_max), y0, method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        t = np.linspace(t0, t_max, 1001)
        assert np.max(np.abs(solve_sigma0(xi, t_max)._dense(t) - ref.sol(t))) <= 1e-10


class TestSigma1:
    def test_xi_zero(self):
        sol = sigma1_from_sigma0(solve_sigma0(0.0, np.pi))
        assert np.all(sol.sigma1 == 0.0)

    def test_small_t_boundary(self):
        sol = sigma1_from_sigma0(solve_sigma0(1.0, 1.0))
        t = 0.05
        y = sol._dense(t)
        s1 = float(-(2 * t * y[0] * y[1] + t * t * y[2]) / 12.0)
        # two-term boundary data: agreement is limited by its own t^6 tail
        lead = -t ** 4 / (9 * np.pi ** 2) - 5 * t ** 5 / (36 * np.pi ** 3)
        assert s1 == pytest.approx(lead, rel=5e-3)
        # against the full stored series the trajectory is solver-accurate
        k = np.arange(9)
        series = float(np.sum(sigma1_series(1.0, 8) * t ** k))
        assert s1 == pytest.approx(series, rel=1e-9)

    def test_pointwise_relation(self):
        sol = sigma1_from_sigma0(solve_sigma0(0.7, np.pi))
        expect = -(2 * sol.grid * sol.sigma0 * sol.sigma0_prime
                   + sol.grid ** 2 * sol.sigma0_doubleprime) / 12.0
        assert np.allclose(sol.sigma1, expect, atol=0.0)


class TestTauRoute:
    def test_small_s_limit(self):
        sol = solve_sigma0(1.0, np.pi)
        assert e_tau(sol, 1e-4, 0) == pytest.approx(1.0, abs=2e-4)
        assert e_tau(sol, 0.0, 0) == 1.0

    def test_route_equivalence_order0(self):
        sol = solve_sigma0(1.0, np.pi + 0.1)
        nys = fredholm_det(KernelSpec("sine"), 1.0, 1.0)
        assert e_tau(sol, 1.0, 0) == pytest.approx(nys, abs=1e-8)

    def test_route_equivalence_order1(self):
        sol = sigma1_from_sigma0(solve_sigma0(0.5, 2 * np.pi + 0.1))
        nys = e_bulk(2, 1, 2.0, 0.5)
        assert e_tau(sol, 2.0, 1) == pytest.approx(nys, abs=1e-6)

    def test_route_equivalence_grid(self):
        # ten interval lengths, four thinning values
        s_grid = np.linspace(0.2, 2.0, 10)
        worst = 0.0
        for xi in (0.05, 0.25, 0.5, 1.0):
            sol = sigma1_from_sigma0(solve_sigma0(xi, np.pi * 2.05))
            for s in s_grid:
                worst = max(worst, abs(e_tau(sol, s, 0) - e_bulk(2, 0, s, xi)),
                            abs(e_tau(sol, s, 1) - e_bulk(2, 1, s, xi)))
        assert worst < 1e-10

    @pytest.mark.parametrize("xi", [0.25, 0.5, 1.0])
    def test_against_gauss_legendre_tail(self, xi):
        # a 128-point Gauss-Legendre rule for int_0^(pi s) sigma_k / t on the
        # dense sigma_0 trajectory
        sol = sigma1_from_sigma0(solve_sigma0(xi, 2 * np.pi + 0.2))

        def reference(s, order):
            rule = gauss_legendre(128, 0.0, np.pi * s)
            t = rule.nodes
            s0, sp, spp = sol._dense(t)[:3]
            integral = [float(np.sum(rule.weights * vals / t))
                        for vals in (s0, -(2 * t * s0 * sp + t * t * spp) / 12)]
            e0 = np.exp(integral[0])
            return e0 if order == 0 else e0 * integral[1]

        for s in (5e-3 / np.pi, *np.linspace(0.05, 2.0, 12)):
            for order in (0, 1):
                assert abs(e_tau(sol, s, order) - reference(s, order)) <= 1e-12

    def test_out_of_range(self):
        sol = solve_sigma0(1.0, 1.0)
        with pytest.raises(ValueError):
            e_tau(sol, 1.0, 0)   # pi * 1.0 exceeds t_max = 1.0

    def test_residual_definition(self):
        sol = solve_sigma0(0.5, np.pi)
        again = _residual_d1y(sol.grid, sol.sigma0, sol.sigma0_prime,
                              sol.sigma0_doubleprime)
        assert np.allclose(again, sol.ode_residual)
