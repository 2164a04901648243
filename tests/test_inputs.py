"""Library entry points refuse non-finite values and non-integral or negative
counts with a ValueError instead of returning nan or a spurious number; every
export keeps that contract under a generated set of bad arguments."""

import ast
import dataclasses
import inspect
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import circbeta as cb
from circbeta import (KernelSpec, cbe_trace_moment, chebyshev_diff_matrix, chebyshev_points,
                      correction_residual, e_finite_cue, e_pm, e_tau, evenness_factor,
                      extract_correction, fredholm_det, gauss_legendre,
                      leading_xi_coefficient_exact, morris, numerics,
                      oracle_series_coefficients, pfaffian, rho2_bulk_finite,
                      rho_n_cue, rho_n_pfaffian, selberg, selberg_log, sff_exact, sff_series,
                      solve_sigma0, verify_x6)
from circbeta.painleve import SigmaSolution


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
    # past the float range: refused, not an OverflowError
    (lambda _: cb.rho2_even_beta(6, 0.7, 10 ** 400), "N"),
    (lambda _: cb.rho2_even_beta(6, 0.7, Fraction(10 ** 400, 3)), "N"),
])
def test_non_finite_refused(call, name, sol):
    # each call gets the module's Painleve solution; only e_tau uses it
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(sol)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: selberg(-1, 0.0, 0.0, 2.0), "n must be an integer >= 0",
                 id="<lambda>-n must be nonnegative"),
    (lambda: selberg(1.5, 0.0, 0.0, 2.0), "n must be an integer"),
    pytest.param(lambda: morris(-2, 0.0, 0.0, 1.0), "N must be an integer >= 0",
                 id="<lambda>-N must be nonnegative"),
    (lambda: morris(2.5, 0.0, 0.0, 1.0), "N must be an integer"),
    (lambda: sff_exact(2, 2.5, 3), "N must be an integer"),
    (lambda: sff_exact(2, 3, 1.5), "k must be an integer"),
    (lambda: rho_n_cue(2.5, [0.1, 0.5]), "N must be an integer"),
    (lambda: rho_n_pfaffian(1, 2.5, [0.3]), "N must be an integer"),
    (lambda: e_finite_cue(2.5, 1.0, 0.5), "N must be a positive integer"),
    (lambda: e_finite_cue(math.nan, 1.0, 0.5), "N must be a positive integer"),
    (lambda: cbe_trace_moment(2, True, 3), "N must be a positive integer"),
    (lambda: e_finite_cue(0, 1.0, 0.5), "N must be a positive integer"),
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
    # one past each cap on a count whose cost grows with it
    *(pytest.param(call, message, id=f"cap-{name}") for name, call, message in (
        ("rho2_bulk_finite", lambda: rho2_bulk_finite(4, 4097, 0.3), "N must be at most 4096"),
        ("rho_n_pfaffian", lambda: rho_n_pfaffian(1, 4097, [0.3, 0.5]), "N must be at most 4096"),
        ("rho_n_cue", lambda: rho_n_cue(4097, [0.3, 0.5]), "N must be at most 4096"),
        ("morris", lambda: morris(4097, 1.0, 1.0, 1.0), "N must be at most 4096"),
        ("selberg_log", lambda: selberg_log(4097, 0.5, 0.5, 1.0), "n must be at most 4096"),
        ("chebyshev_points", lambda: chebyshev_points(1025, 0.0, 1.0), "n must be at most 1024"),
        ("chebyshev_diff_matrix", lambda: chebyshev_diff_matrix(1025, 0.0, 1.0),
         "n must be at most 1024"),
        ("correction_residual", lambda: correction_residual(
            np.sin, np.cos, 1.0, 0.0, 1.0, [0.5], 1025, 0, 0), "n must be at most 1024"),
        ("cbe_trace_moment", lambda: cbe_trace_moment(2, 3, 21), "k must be at most 20"),
        ("evenness_factor", lambda: evenness_factor(65, 1.0, 20.5), "n must be at most 64"),
        ("evenness_factor-kappa", lambda: evenness_factor(3, 3.5, 20.5),
         r"kappa must lie in \[0, 3\]"),
        ("leading_xi_coefficient_exact", lambda: leading_xi_coefficient_exact(63, 2, 300),
         "k must be at most 62"),
        ("leading_xi_coefficient_exact-N", lambda: leading_xi_coefficient_exact(0, 2, 10 ** 8),
         "N must be at most 10000000"),
        # a float N enters as the rational it holds: 1000.1 has denominator 2^43
        ("leading_xi_coefficient_exact-denominator",
         lambda: leading_xi_coefficient_exact(0, 2, 1000.1), "N must be at most 10000000"))),
])
def test_bad_integer_refused(call, message):
    # refused before anything is built at the refused size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 65536


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
    (lambda: oracle_series_coefficients(True), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients(math.inf), "kappa must be finite and positive"),
    (lambda: cbe_trace_moment(2, 3, 2.5), "k must be a positive integer"),
    (lambda: cbe_trace_moment(2, 3, 0), "k must be a positive integer"),
    (lambda: oracle_series_coefficients(0), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients(-1), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients(math.nan), "kappa must be finite and positive"),
    (lambda: oracle_series_coefficients("3"), "kappa must be finite and positive"),
    # past the float range, as selberg and morris refuse theirs: it returned inf
    (lambda: evenness_factor(20, 1.0, 100.0), "evenness product overflows a float"),
])
def test_exact_path_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: fredholm_det(KernelSpec("sine"), 1.0, math.nan),
    lambda: fredholm_det(KernelSpec("sine"), 1.0, math.inf),
    lambda: fredholm_det(KernelSpec("sine"), [0.5, 1.0], -0.1),
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
    for beta in (2, 4):
        assert rho2_bulk_finite(beta, 20.0, 0.3) == rho2_bulk_finite(beta, 20, 0.3)
    assert e_pm(np.int64(-1), 0, 1.0, 0.5) == e_pm(-1, 0, 1.0, 0.5)
    # a beta or an order, a member of a fixed set, takes an integral float too
    assert cb.e_bulk(2.0, 1.0, 1.0, 0.5) == cb.e_bulk(2, 1, 1.0, 0.5)
    assert cb.p_bulk(np.float64(2.0), 1.0, 1.0, 0.5) == cb.p_bulk(2, 1, 1.0, 0.5)
    assert sff_exact(2.0, 10, 3) == sff_exact(2, 10, 3)
    assert cb.rho2_even_beta(6.0, 0.7) == cb.rho2_even_beta(6, 0.7)


# ---------------------------------------------------------------------------
# The contract of every export, generated: each parameter of one base call is
# set in turn to each of BAD. A parameter that takes a number (or an array of
# numbers) must make the call raise ValueError or return a value whose every
# number is finite; one that takes a callable, a SigmaSolution or a
# KernelSpec may also raise TypeError. Each call must finish within 1 s.

BAD = (True, math.nan, math.inf, -math.inf, -1, 2.5, 1e9, "3")
SOL = solve_sigma0(1.0, 3.0)
SINE, LKER = KernelSpec("sine"), KernelSpec("l")
SKEW = np.array([[0.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 4.0, 5.0],
                 [-2.0, -4.0, 0.0, 6.0], [-3.0, -5.0, -6.0, 0.0]])
SERIES = (0.5, 0.5, 20.0)

# one base call per export: its positional arguments
BASE = {
    "gauss_legendre": (8, 0.0, 1.0),
    "sine_integral": (0.5,),
    "chebyshev_points": (8, 0.0, 1.0),
    "chebyshev_diff_matrix": (8, 0.0, 1.0),
    "spectral_derivative": (np.linspace(0.0, 1.0, 8) ** 2, 2, 0.0, 1.0),
    "chebyshev_interpolate": (np.arange(8.0), 0.0, 1.0, 0.3),
    "correction_factor": (2,),
    "correction_residual": (np.sin, np.cos, -1 / 12, 0.0, 1.0, np.linspace(0.1, 0.9, 5),
                            16, 2, 0),
    "KernelSpec": ("sine",),
    "rho_n_cue": (8, [0.1, 0.5]),
    "rho_n_pfaffian": (1, 8, [0.1, 0.5]),
    "pfaffian": (SKEW,),
    "rho2_bulk_term": (1, 0, 0.5),
    "rho2_bulk_finite": (1, 8, 0.5),
    "fredholm_det": (SINE, 0.5, 0.5),
    "fredholm_trace_correction": (SINE, LKER, 0.5, 0.5),
    "e_bulk": (2, 0, 0.5, 0.5),
    "e_pm": (1, 0, 0.5, 0.5),
    "e_finite_cue": (8, 0.5, 0.5),
    "extract_correction": ([20, 40, 80], 1.0, 0.5),
    "solve_sigma0": (1.0, 3.0),
    "sigma1_from_sigma0": (SOL,),
    "e_tau": (SOL, 0.5, 0),
    "E_CUE_SMALL_S": SERIES,
    "P0_BETA2": SERIES,
    "P1_BETA2": SERIES,
    "P2_BETA2": SERIES,
    "P0_BETA1": SERIES,
    "P1_BETA1": SERIES,
    "p_bulk": (2, 0, 0.5, 0.5),
    "spacing_series_residual": (2,),
    "wigner_surmise": (0.5,),
    "surmise_correction": (0.5,),
    "sff_exact": (1, 20, 7),
    "sff_bulk_scaled": (1, 20, 0.35),
    "sff_bulk_term": (1, 0, 0.5),
    "sff_series": (3.0, 0, 0.5),
    "series_coefficient": (0, 2, 1.5),
    "verify_x6": (3,),
    "cbe_trace_moment": (2, 5, 3),
    "oracle_series_coefficients": (Fraction(3, 2),),
    "selberg": (2, 0.5, 0.5, 1.0),
    "selberg_log": (2, 0.5, 0.5, 1.0),
    "morris": (2, 1.0, 1.0, 1.0),
    "evenness_factor": (3, 1.0, 20.5),
    "rho2_even_beta": (2, 0.5, 40, 64, "auto", True),
    "moment_integral": (2, 1.0, (2, 1)),
    "verify_moment_recurrence": (2,),
    "leading_xi_coefficient_exact": (1, 2, 20),
    "rho2_correction_limit": (2, 0.5),
}


def exported():
    """circbeta's public names, less its modules and its exception classes."""
    return {name for name, v in vars(cb).items()
            if not name.startswith("_") and not inspect.ismodule(v)
            and not (isinstance(v, type) and issubclass(v, Exception))}


def finite(v) -> bool:
    """Whether every number reachable through v's fields, arrays, tuples and
    dict values is finite; a Fraction is."""
    if dataclasses.is_dataclass(v):
        return all(finite(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (tuple, list)):
        return all(map(finite, v))
    if isinstance(v, dict):
        return all(map(finite, v.values()))
    if v is None or isinstance(v, (Fraction, str)) or callable(v):
        return True
    a = np.asarray(v)
    return a.dtype.kind not in "fc" or bool(np.isfinite(a).all())


def test_table_is_the_export_list():
    assert set(BASE) == exported()


# Each export's non-test caller: a src module other than __init__, or a
# bench/ script, whose syntax tree uses the name; or, for an export that only
# the tests call, the reason it stays public.
CALLERS = {
    "gauss_legendre": "gap",
    "sine_integral": "correlations",
    "chebyshev_points": "spacing",
    "chebyshev_diff_matrix": "numerics",
    "spectral_derivative": "spacing",
    "chebyshev_interpolate": "spacing",
    "correction_factor": "cli",
    "correction_residual": "cli",
    "KernelSpec": "bench/workloads",
    "rho_n_cue": "the n-point density of the CUE at finite N, the determinant of its "
                 "kernel sin(N t / 2) / (2 pi sin(t / 2))",
    "rho_n_pfaffian": "correlations",
    "pfaffian": "the library's one Pfaffian, at any shape, which beta_even and "
                "correlations reach through _pfaffian",
    "rho2_bulk_term": "cli",
    "rho2_bulk_finite": "cli",
    "fredholm_det": "bench/workloads",
    "fredholm_trace_correction": "bench/workloads",
    "e_bulk": "cli",
    "e_pm": "cli",
    "e_finite_cue": "bench/workloads",
    "extract_correction": "bench/workloads",
    "solve_sigma0": "bench/workloads",
    "sigma1_from_sigma0": "bench/workloads",
    "e_tau": "bench/workloads",
    "E_CUE_SMALL_S": "spacing",
    "P0_BETA2": "spacing",
    "P1_BETA2": "spacing",
    "P2_BETA2": "the 1/N^4 term of the beta = 2 spacing series, the paper's second "
                "correction, held to the exact small-s record",
    "P0_BETA1": "spacing",
    "P1_BETA1": "spacing",
    "p_bulk": "cli",
    "spacing_series_residual": "cli",
    "wigner_surmise": "the Wigner surmise whose induced correction fig1 draws",
    "surmise_correction": "cli",
    "sff_exact": "bench/workloads",
    "sff_bulk_scaled": "cli",
    "sff_bulk_term": "cli",
    "sff_series": "the general-beta small-tau series of each structure-function term",
    "series_coefficient": "sff",
    "verify_x6": "cli",
    "cbe_trace_moment": "the exact CβE moment E|Tr U^k|^2 that decides the stored "
                        "structure-function series",
    "oracle_series_coefficients": "sff",
    "selberg": "beta_even",
    "selberg_log": "beta_even",
    "morris": "the Morris integral, the finite-N normalisation that the evenness "
              "product reduces",
    "evenness_factor": "beta_even",
    "rho2_even_beta": "cli",
    "moment_integral": "beta_even",
    "verify_moment_recurrence": "cli",
    "leading_xi_coefficient_exact": "the exact leading small-s coefficient of xi^k at "
                                    "finite N (Appendix B), acceptance criterion 7",
    "rho2_correction_limit": "bench/workloads",
}


def _loaded_names():
    """{caller: every name its syntax tree loads or reads as an attribute}, for
    the src modules other than __init__ and the bench/ scripts."""
    root = Path(__file__).resolve().parents[1]
    files = [(p.stem, p) for p in (root / "src" / "circbeta").glob("*.py")
             if p.name != "__init__.py"]
    files += [(f"bench/{p.stem}", p) for p in (root / "bench").glob("*.py")]
    out = {}
    for caller, path in files:
        tree = ast.parse(path.read_text())
        out[caller] = {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out[caller] |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return out


def test_every_export_has_a_caller_or_a_reason():
    assert set(CALLERS) == exported()
    loaded = _loaded_names()
    for name, caller in CALLERS.items():
        if caller in loaded:
            assert name in loaded[caller], (name, caller)
        else:
            # a reason: no src module or bench script calls the export
            assert " " in caller and not any(name in names for names in loaded.values()), name


@pytest.mark.parametrize("name", sorted(BASE))
def test_export_keeps_the_contract(name):
    fn, base = getattr(cb, name), BASE[name]
    assert finite(fn(*base))
    broken = []
    for i, good in enumerate(base):
        may_type = callable(good) or isinstance(good, (SigmaSolution, KernelSpec))
        for bad in BAD:
            args = base[:i] + (bad,) + base[i + 1:]
            t0 = time.perf_counter()
            try:
                ok = finite(fn(*args))
            except ValueError:
                ok = True
            except TypeError:
                ok = may_type
            if not ok or time.perf_counter() - t0 >= 1.0:
                broken.append((i, bad))
    assert broken == []
