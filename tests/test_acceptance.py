"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 6 checks the stored structure-function series. The zeros of p2, p4,
q2, q4 and r2 lie on the unit circle; those of the quartic r4 do not, and the
exact CβE oracle decides that the stored r4 is nonetheless the true quartic,
so r4 is checked against the oracle and its off-circle root moduli recorded.
"""

import time
from fractions import Fraction as F

import numpy as np

import circbeta as cb
from circbeta.cli import _identity_registry
from circbeta.sff import POLYNOMIALS, _series_antisymmetric, root_modulus_deviation
from circbeta.spacing import P0_BETA1, P0_BETA2, P1_BETA1, P1_BETA2


def report(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail}) "
          f"[{elapsed:.1f}s / {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    return ok


def test_criterion_1_route_equivalence():
    t0 = time.time()
    worst0 = worst1 = 0.0
    sine, lker = cb.KernelSpec("sine"), cb.KernelSpec("l")
    for xi in (0.25, 0.5, 1.0):
        sol = cb.sigma1_from_sigma0(cb.solve_sigma0(xi, 2 * np.pi + 0.2))
        for s in (0.5, 1.0, 2.0):
            worst0 = max(worst0, abs(cb.e_tau(sol, s, 0)
                                     - cb.fredholm_det(sine, s, xi)))
            worst1 = max(worst1, abs(cb.e_tau(sol, s, 1)
                                     - cb.fredholm_trace_correction(sine, lker, s, xi)))
    ok = worst0 <= 1e-8 and worst1 <= 1e-7
    report(1, ok, f"|dE0|={worst0:.2e}<=1e-8, |dE1|={worst1:.2e}<=1e-7", t0, 10.0)
    assert ok


def test_criterion_2_correction_identity():
    t0 = time.time()
    # E_1 = -(s^2/12) E_0'' at xi = 0.5, 1 on 31 points of [0.1, 3]
    worst = _identity_registry()["e-corr-beta2"][2]()
    ok = worst <= 2e-12
    report(2, ok, f"max residual {worst:.2e} <= 2e-12", t0, 10.0)
    assert ok


def test_criterion_3_finite_N_ground_truth():
    t0 = time.time()
    est = cb.extract_correction([20, 40, 80], 1.0, 1.0)
    d0 = abs(est.E0 - cb.e_bulk(2, 0, 1.0, 1.0))
    d1 = abs(est.E1 - cb.e_bulk(2, 1, 1.0, 1.0))
    ok = d0 <= 1e-7 and d1 <= 1e-4 and abs(est.residual_order - 4.0) <= 0.3
    report(3, ok, f"|dE0|={d0:.2e}, |dE1|={d1:.2e}, order={est.residual_order:.2f}",
           t0, 5.0)
    assert ok


def test_criterion_4_series_golden_data():
    t0 = time.time()
    ok_b2, ok_b1 = (p0.s_squared().second_derivative().scaled(c).coefficients_through(9)
                    == p1.coefficients_through(9)
                    for p0, p1, c in ((P0_BETA2, P1_BETA2, F(-1, 12)),
                                      (P0_BETA1, P1_BETA1, F(-1, 6))))
    worst = max(abs(cb.e_finite_cue(N, 2 * np.pi * 0.15 / N, 1.0)
                    - cb.E_CUE_SMALL_S(0.15, 1.0, N)) for N in (5, 10))
    ok = ok_b2 and ok_b1 and worst <= 1e-6
    report(4, ok, f"exact ids: {ok_b2},{ok_b1}; finite-N diff {worst:.2e} <= 1e-6",
           t0, 1.0)
    assert ok


def test_criterion_5_pfaffian_corrections():
    t0 = time.time()
    worst = 0.0
    Ns = np.array([50.0, 100.0, 200.0])
    A = np.vander(1.0 / Ns ** 2, 3, increasing=True)
    for beta in (1, 4):
        for x in (0.5, 1.0, 1.7):
            vals = np.array([cb.rho2_bulk_finite(beta, int(N), x) for N in Ns])
            fit = np.linalg.solve(A, vals)
            worst = max(worst, abs(fit[1] - cb.rho2_bulk_term(beta, 1, x)))
    # rho_1 = -(1/(6 beta))(x^2 rho_0)'' on 15 points of [0.2, 3]
    registry = _identity_registry()
    r1 = registry["rho2-corr-beta1"][2]()
    r4 = registry["rho2-corr-beta4"][2]()
    ok = worst <= 1e-3 and r1 <= 1e-7 and r4 <= 1e-7
    report(5, ok, f"Richardson {worst:.2e}<=1e-3; identities {r1:.1e},{r4:.1e}<=1e-7",
           t0, 20.0)
    assert ok


# kappa values at which the oracle decides the second-correction coefficients;
# all lie outside {1/2, 1, 2}, where the general-beta relation for the second
# correction agrees with the tables anyway. Five values fix the quartic r4.
ORACLE_KAPPAS = (F(3), F(3, 2), F(5, 7), F(7, 3), F(11, 4))


def test_criterion_6_structure_functions():
    t0 = time.time()
    worst = 0.0
    for beta in (1, 4):
        for tau in (0.3, 0.7, 1.5):
            dev = 100 ** 2 * (cb.sff_bulk_scaled(beta, 100, tau)
                              - cb.sff_bulk_term(beta, 0, tau))
            worst = max(worst, abs(dev - cb.sff_bulk_term(beta, 1, tau)))
    closed = max(*cb.verify_x6(1), *cb.verify_x6(4))
    antisymmetric = _series_antisymmetric()
    zero_dev = {name: root_modulus_deviation((name,))
                for name in ("p2", "p4", "q2", "q4", "r2", "p6", "q6")}
    zeros_ok = max(zero_dev.values()) <= 1e-10
    oracle_ok = True
    for kap in ORACLE_KAPPAS:
        oracle = cb.oracle_series_coefficients(kap)
        oracle_ok &= all(cb.series_coefficient(2, m, kap) == oracle[2, m] for m in (2, 3, 4))
    r4_moduli = np.sort(np.abs(np.roots([float(c) for c in reversed(POLYNOMIALS["r4"])])))
    r4_ok = bool(np.allclose(r4_moduli, [0.47443, 1.0, 1.0, 2.10778], rtol=0, atol=1e-5))
    ok = (worst <= 1e-3 and closed <= 1e-10 and antisymmetric and zeros_ok
          and oracle_ok and r4_ok)
    report(6, ok, f"Richardson {worst:.2e}<=1e-3; closed-form {closed:.2e}<=1e-10; "
           f"antisymmetry {antisymmetric}; root moduli dev {zero_dev}; "
           f"second correction = oracle {oracle_ok}; r4 moduli {np.round(r4_moduli, 5)}",
           t0, 5.0)
    assert worst <= 1e-3 and closed <= 1e-10 and antisymmetric
    assert zeros_ok, f"zeros off the unit circle: {zero_dev}"
    assert oracle_ok, "stored second-correction coefficients differ from the oracle"
    assert r4_ok, f"r4 root moduli {r4_moduli} are not the decided ~0.474, 1, 1, ~2.108"


def test_criterion_7_even_beta_pipeline():
    t0 = time.time()
    worst_det = 0.0
    for x in (0.3, 0.7, 1.2):
        want = 1 - (np.sin(np.pi * x) / (20 * np.sin(np.pi * x / 20))) ** 2
        worst_det = max(worst_det, abs(cb.rho2_even_beta(2, x, 20) - want))
    # Richardson 1/N^2 coefficient against -(1/(6 beta))(x^2 rho_0)'', fitted
    # in {1, 1/N^2, 1/N^4, 1/N^6} through N = 32, 48, 64, 96
    registry = _identity_registry()
    r2 = registry["rho2-even-corr-beta2"][2]()
    r4 = registry["rho2-even-corr-beta4"][2]()
    rec = cb.verify_moment_recurrence(2)
    c1_ok = True
    for N in (12, 37):
        frac0, pw0 = cb.leading_xi_coefficient_exact(0, 2, N)
        frac1, pw1 = cb.leading_xi_coefficient_exact(1, 2, N)
        c1_ok &= (frac0 == F(1, 3) * (1 - F(1, N * N)) and pw0 == 2)
        c1_ok &= (frac1 == -F(1, 4050) * (1 - F(4, N * N))
                  * (1 - F(1, N * N)) ** 2 and pw1 == 6)
    ok = worst_det <= 1e-7 and r2 <= 1e-8 and r4 <= 3e-8 and rec <= 1e-8 and c1_ok
    report(7, ok, f"det {worst_det:.2e}<=1e-7; Richardson {r2:.2e}<=1e-8, "
           f"{r4:.2e}<=3e-8; recurrence {rec:.2e}<=1e-8; exact coeffs {c1_ok}",
           t0, 60.0)
    assert ok


def test_criterion_8_figure_reproduction():
    t0 = time.time()
    grid = np.linspace(0.0, 3.0, 121)
    exact = np.where(grid > 0, cb.p_bulk(2, 1, grid, 1.0), 0.0)
    sup = float(np.max(np.abs(exact - cb.surmise_correction(grid))))
    rule = cb.gauss_legendre(200, 1e-3, 4.0)
    m0 = rule.integrate(lambda s: cb.p_bulk(2, 1, s, 1.0))
    m1 = rule.integrate(lambda s: s * cb.p_bulk(2, 1, s, 1.0))
    ok = sup <= 0.02 and abs(m0) <= 1e-3 and abs(m1) <= 1e-3
    report(8, ok, f"sup dev {sup:.3f}<=0.02; moments {m0:.1e},{m1:.1e}<=1e-3",
           t0, 30.0)
    assert ok
