"""Library entry points refuse non-finite values and non-integral or negative
counts with a ValueError instead of returning nan or a spurious number."""

import math
import tracemalloc

import numpy as np
import pytest

from circbeta import (KernelSpec, cbe_trace_moment, e_finite_cue, e_pm, e_tau,
                      extract_correction, fredholm_det, gauss_legendre, kernel_eval, morris,
                      numerics, oracle_series_coefficients, pfaffian, pfaffian_entries,
                      rho2_bulk_finite, rho_n_cue, rho_n_pfaffian, selberg, sff_series,
                      solve_sigma0, verify_x6)
from circbeta.sff import cbe_moment_expansion


@pytest.fixture(scope="module")
def sol():
    return solve_sigma0(1.0, 3.0)


def antisymmetric(a01, n=4):
    A = np.zeros((n, n))
    A[0, 1], A[1, 0] = a01, -a01
    return A


@pytest.mark.parametrize("call, name", [
    (lambda _: sff_series(math.nan, 0, 0.5), "beta"),
    (lambda _: sff_series(math.inf, 0, 0.5), "beta"),
    (lambda sol: e_tau(sol, math.nan, 0), "s"),
    (lambda _: e_finite_cue(10, 1.0, math.nan), "xi"),
    (lambda _: rho_n_cue(9, [math.nan, 0.1]), "angles"),
    (lambda _: rho_n_cue(9, [math.inf, 0.1]), "angles"),
    (lambda _: rho_n_pfaffian(1, 9, [math.nan, 0.1]), "angles"),
    (lambda _: rho_n_pfaffian(4, 9, [[0.2, -math.inf]]), "angles"),
    (lambda _: pfaffian(antisymmetric(math.nan)), "matrix entries"),
    (lambda _: pfaffian(antisymmetric(math.inf)), "matrix entries"),
    (lambda _: pfaffian(antisymmetric(-math.inf, 6)), "matrix entries"),
])
def test_non_finite_refused(call, name, sol):
    # each call gets the module's Painleve solution; only e_tau uses it
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(sol)


@pytest.mark.parametrize("call, message", [
    (lambda: selberg(-1, 0.0, 0.0, 2.0), "n must be nonnegative"),
    (lambda: selberg(1.5, 0.0, 0.0, 2.0), "n must be an integer"),
    (lambda: morris(-2, 0.0, 0.0, 1.0), "N must be nonnegative"),
    (lambda: morris(2.5, 0.0, 0.0, 1.0), "N must be an integer"),
    (lambda: cbe_trace_moment(2, 2.5, 3), "N must be an integer"),
    (lambda: cbe_trace_moment(2, 3, 1.5), "k must be an integer"),
    (lambda: rho_n_cue(2.5, [0.1, 0.5]), "N must be an integer"),
    (lambda: rho_n_pfaffian(1, 2.5, [0.3]), "N must be an integer"),
    (lambda: pfaffian_entries(7.5), "N must be an integer"),
    (lambda: KernelSpec("cue", 2.5), "N must be a positive integer"),
    (lambda: KernelSpec("cue", math.nan), "N must be a positive integer"),
    (lambda: KernelSpec("cue", True), "N must be a positive integer"),
    (lambda: KernelSpec("cue", 0), "N must be a positive integer"),
    (lambda: e_finite_cue(True, 1.0, 0.5), "N must be a positive integer"),
    (lambda: rho2_bulk_finite(2, True, 0.3), "N must be an integer >= 2"),
    (lambda: e_finite_cue(4097, 1.0, 0.5), "N must be at most 4096"),
    (lambda: gauss_legendre(1025, 0.0, 1.0), "n must be at most 1024"),
    (lambda: extract_correction([20.5, 40, 80], 1.0, 1.0), "N must be a positive integer"),
    (lambda: extract_correction([True, 40, 80], 1.0, 1.0), "N must be a positive integer"),
    (lambda: extract_correction([20, 40, 4097], 1.0, 1.0), "N must be at most 4096"),
    (lambda: e_pm(True, 0, 1.0, 0.5), "sign must be"),
    (lambda: e_pm(1.0, 0, 1.0, 0.5), "sign must be"),
    (lambda: e_pm(np.float64(-1.0), 1, 1.0, 0.5), "sign must be"),
    (lambda: e_pm(0, 0, 1.0, 0.5), "sign must be"),
    (lambda: KernelSpec("sine", 3), "takes no N"),
    (lambda: KernelSpec("l_minus", 2.5), "takes no N"),
])
def test_bad_integer_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_gauss_legendre_bound_allocates_nothing(monkeypatch):
    # refused before the rule is looked up: 1025 nodes would build a 1025 x 1025 matrix
    looked_up, rule = [], numerics._legendre
    monkeypatch.setattr(numerics, "_legendre", lambda n: looked_up.append(n) or rule(n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most 1024"):
            gauss_legendre(1025, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16384 and looked_up == []


@pytest.mark.parametrize("call, message", [
    (lambda: verify_x6(-2), "beta must be finite and positive"),
    (lambda: verify_x6(math.nan), "beta must be finite and positive"),
    (lambda: verify_x6(math.inf), "beta must be finite and positive"),
    (lambda: cbe_trace_moment(0, 3, 2), "beta must be finite and positive"),
    (lambda: cbe_trace_moment(True, 3, 2), "beta must be finite and positive"),
    (lambda: cbe_moment_expansion(2, 3, -1), "order must be an integer >= 0"),
    (lambda: cbe_moment_expansion(2, 3, 1.5), "order must be an integer >= 0"),
    (lambda: cbe_moment_expansion(True, 3, 2), "kappa must be finite and positive"),
    (lambda: cbe_moment_expansion(math.inf, 3, 2), "kappa must be finite and positive"),
    (lambda: cbe_moment_expansion(2, 2.5, 2), "k must be a positive integer"),
    (lambda: cbe_moment_expansion(2, 0, 2), "k must be a positive integer"),
    (lambda: oracle_series_coefficients(0), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients(-1), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients(math.nan), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients("3"), "kappa must be finite and positive"),
])
def test_exact_path_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: fredholm_det(KernelSpec("sine"), 1.0, math.nan),
    lambda: fredholm_det(KernelSpec("sine"), 1.0, math.inf),
    lambda: fredholm_det(KernelSpec("plus"), [0.5, 1.0], -0.1),
    lambda: e_pm(+1, 0, 1.0, 1.5),
    lambda: e_pm(-1, 0, [0.5, 1.0], math.nan),
])
def test_xi_outside_unit_interval_refused(call):
    # the order-0 determinant checks xi like the order-1 trace correction
    with pytest.raises(ValueError, match=r"xi must lie in \[0, 1\]"):
        call()


def test_integral_floats_still_accepted():
    assert selberg(2.0, 0.0, 0.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert morris(2.0, 1.0, 1.0, 1.0) == pytest.approx(6.0, rel=1e-12)
    assert cbe_trace_moment(2, 3.0, 2.0) == 2
    assert rho_n_cue(3.0, [0.1, 0.5]) == pytest.approx(rho_n_cue(3, [0.1, 0.5]))
    assert rho_n_pfaffian(1, 9.0, [0.1, 0.5]) == rho_n_pfaffian(1, 9, [0.1, 0.5])
    assert kernel_eval(KernelSpec("cue", 12.0), 0.3, 0.0) == \
        kernel_eval(KernelSpec("cue", 12), 0.3, 0.0)
    for beta in (2, 4):
        assert rho2_bulk_finite(beta, 20.0, 0.3) == rho2_bulk_finite(beta, 20, 0.3)
    assert e_pm(np.int64(-1), 0, 1.0, 0.5) == e_pm(-1, 0, 1.0, 0.5)
    assert KernelSpec("sine", None) == KernelSpec("sine")
