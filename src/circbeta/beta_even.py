"""Two-point correlation of the circular ensemble at even beta via the
beta-dimensional integral representation, Selberg/Morris constants, the
evenness-in-N factor, the Richardson estimate of the 1/N^2 correction, and the
moment-integral recurrence verification."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .correlations import rho2_bulk_term
from .gap import AccuracyWarning
from .numerics import gauss_jacobi, gauss_legendre

F = Fraction
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Closed product constants

def selberg_log(n: int, a: float, b: float, c: float) -> float:
    """log of the Selberg integral int prod t^a (1-t)^b prod |t_k - t_j|^(2c)."""
    if n == 0:
        return 0.0
    if a <= -1 or b <= -1:
        raise ValueError("need a, b > -1")
    if c <= -min(1.0 / n, (a + 1) / (n - 1) if n > 1 else np.inf,
                 (b + 1) / (n - 1) if n > 1 else np.inf):
        raise ValueError("c outside the convergence region")
    j = np.arange(n)
    return float(np.sum(gammaln(a + 1 + j * c) + gammaln(b + 1 + j * c)
                        + gammaln(1 + (j + 1) * c)
                        - gammaln(a + b + 2 + (n + j - 1) * c) - gammaln(1 + c)))


def selberg(n: int, a: float, b: float, c: float) -> float:
    return math.exp(selberg_log(n, a, b, c))


def selberg_exact(n: int, a: int, b: int, c: int) -> Fraction:
    """Selberg integral at integer parameters, exact."""
    out = F(1)
    for j in range(n):
        out *= F(math.factorial(a + j * c) * math.factorial(b + j * c)
                 * math.factorial((j + 1) * c),
                 math.factorial(a + b + 1 + (n + j - 1) * c) * math.factorial(c))
    return out


def morris(N: int, a: float, b: float, lam: float) -> float:
    """Morris integral as a Gamma-function product, log-Gamma arithmetic."""
    if N == 0:
        return 1.0
    j = np.arange(N)
    args = np.concatenate([lam * j + a + b + 1, lam * (j + 1) + 1,
                           lam * j + a + 1, lam * j + b + 1, [1 + lam]])
    if np.any(args <= 0):
        raise ValueError("Gamma pole in Morris product")
    return math.exp(float(np.sum(gammaln(lam * j + a + b + 1)
                                 + gammaln(lam * (j + 1) + 1)
                                 - gammaln(lam * j + a + 1)
                                 - gammaln(lam * j + b + 1)
                                 - gammaln(1 + lam))))


def evenness_factor(n: int, kappa: float, N: float) -> float:
    """prod_{k=1}^{n-1} prod_{l=1}^{k kappa} (kappa^2 N^2 - l^2); even in N."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1.0
    for k in range(1, n):
        top = kappa * k
        if abs(top - round(top)) > 1e-12:
            raise ValueError("k * kappa must be integral")
        for el in range(1, round(top) + 1):
            out *= kappa * kappa * N * N - el * el
    return out


def evenness_factor_exact(n: int, kappa: int, N) -> Fraction:
    out = F(1)
    for k in range(1, n):
        for el in range(1, kappa * k + 1):
            out *= kappa * kappa * F(N) ** 2 - el * el
    return out


def v2_coefficient(n: int, kappa: float) -> float:
    """Coefficient of 1/N^2 in the normalized large-N form of the factor."""
    return n / (12.0 * kappa) * (n - 1) * (kappa * (n - 1) + 1) * (kappa * n + 1)


# ---------------------------------------------------------------------------
# Quadrature engines for the beta-dimensional integral
#   I[f_sym] = int_[0,1]^beta prod_j w(u_j) f(u_j) prod_{j<k} |u_k-u_j|^(4/beta)
# with w(u) = u^(-1+2/beta) (1-u)^(-1+2/beta).

_CHUNK = 500_000


@lru_cache(maxsize=2)   # each entry holds up to 2.5M x beta int64s
def _combo_array(n: int, beta: int):
    if math.comb(n, beta) > 2_500_000:
        return None
    return np.array(list(itertools.combinations(range(n), beta)), dtype=np.int64)


def _combo_chunks(n: int, beta: int):
    arr = _combo_array(n, beta)
    if arr is not None:
        yield arr
        return
    it = itertools.combinations(range(n), beta)
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def _tensor_integral(beta: int, f, n_nodes: int, inserts=None):
    """Tensor Gauss-Jacobi evaluation; ties vanish through the coupling factor,
    so the sum reduces to beta! times the sum over node combinations.

    ``inserts`` is an optional list of exponent tuples; for each, the value of
    the symmetrized distinct-index sum of monomials is returned alongside."""
    rule = gauss_jacobi(n_nodes, -1.0 + 2.0 / beta, -1.0 + 2.0 / beta)
    u, w = rule.nodes, rule.weights
    g = w * f(u)
    logp = np.log(np.abs(u[:, None] - u[None, :])
                  + np.eye(n_nodes)) * (4.0 / beta)
    base_total = 0.0 + 0.0j
    ins_totals = [0.0 + 0.0j] * (len(inserts) if inserts else 0)
    fact = math.factorial(beta)
    for combs in _combo_chunks(n_nodes, beta):
        G = np.prod(g[combs], axis=1)
        L = np.zeros(len(combs))
        for a, b in itertools.combinations(range(beta), 2):
            L += logp[combs[:, a], combs[:, b]]
        contrib = G * np.exp(L)
        base_total += fact * np.sum(contrib)
        if inserts:
            uc = u[combs]
            for idx, expo in enumerate(inserts):
                ins_totals[idx] += fact * np.sum(contrib * _distinct_sum(uc, expo))
    if inserts:
        return base_total, ins_totals
    return base_total


def _distinct_sum(uc: np.ndarray, expo) -> np.ndarray:
    """sum over ordered distinct index tuples of prod u^(expo_i), vectorized
    over the combination axis, via power sums (m <= 3)."""
    m = len(expo)
    p = {}

    def ps(a):
        if a not in p:
            p[a] = np.sum(uc ** a, axis=1)
        return p[a]

    if m == 0:
        return np.ones(uc.shape[0])
    if m == 1:
        return ps(expo[0])
    if m == 2:
        a, b = expo
        return ps(a) * ps(b) - ps(a + b)
    if m == 3:
        a, b, c = expo
        return (ps(a) * ps(b) * ps(c) - ps(a + b) * ps(c) - ps(a + c) * ps(b)
                - ps(b + c) * ps(a) + 2.0 * ps(a + b + c))
    raise NotImplementedError("m <= 3 only")


# -- beta = 2: moment-determinant (Andreief) reduction, weight is flat -------

def _integral_beta2(f, n_nodes: int) -> complex:
    rule = gauss_legendre(n_nodes, 0.0, 1.0)
    u, w = rule.nodes, rule.weights
    fu = w * f(u)
    m = [np.sum(fu * u ** p) for p in range(3)]
    return 2.0 * (m[0] * m[2] - m[1] * m[1])


# -- beta = 4: de Bruijn Pfaffian of pair integrals, panel split at 1/2 ------

@lru_cache(maxsize=8)
def _beta4_rules(n: int):
    gjl = gauss_jacobi(n, -0.5, 0.0)          # weight t^(-1/2) on (0,1)
    leg = gauss_legendre(n, 0.0, 1.0)
    gjj = gauss_jacobi(n, -0.5, -0.5)
    return (gjl.nodes, gjl.weights, leg.nodes, leg.weights, gjj.nodes, gjj.weights)


def _integral_beta4(f, n_nodes: int) -> complex:
    """24 Pf[Q], Q_jk = int_{0<=x<=y<=1} (x^j y^k - x^k y^j) h(x) h(y) dx dy
    with h(u) = f(u) u^(-1/2) (1-u)^(-1/2); spectrally accurate panel split."""
    tl, wl, xg, wg, xj, wj = _beta4_rules(n_nodes)
    fx = f(xj)
    M = np.array([np.sum(wj * xj ** p * fx) for p in range(4)])
    # left panel y in (0, 1/2): the y^(+-1/2) factors cancel between h(y) and
    # the inner integral; plain outer rule on the analytic remainder
    yl = xg / 2.0
    wyl = wg / 2.0
    Xl = yl[:, None] * tl[None, :]
    Fl = f(Xl)
    psi = np.array([np.sum(wl[None, :] * tl[None, :] ** p * Fl / np.sqrt(1.0 - Xl),
                           axis=1) for p in range(4)])
    gl = f(yl) / np.sqrt(1.0 - yl)
    # right panel y in (1/2, 1): split the inner integral at full moments,
    # tail (1-y)^(1/2) branch cancels against the weight of h(y)
    yrm = 1.0 - tl / 2.0
    wyrm = wl / math.sqrt(2.0)
    grm = f(yrm) / np.sqrt(yrm)
    yrh = 0.5 + xg / 2.0
    wyrh = wg / 2.0
    Xh = 1.0 - (1.0 - yrh)[:, None] * tl[None, :]
    Fh = f(Xh)
    phi = np.array([np.sum(wl[None, :] * Xh ** p * Fh / np.sqrt(Xh), axis=1)
                    for p in range(4)])
    grh = f(yrh) / np.sqrt(yrh)
    Q = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        for k in range(j + 1, 4):
            left = np.sum(wyl * gl * yl ** (j + k) * (psi[j] - psi[k]))
            right = np.sum(wyrm * grm * (yrm ** k * M[j] - yrm ** j * M[k])) \
                - np.sum(wyrh * grh * (yrh ** k * phi[j] - yrh ** j * phi[k]))
            Q[j, k] = left + right
            Q[k, j] = -Q[j, k]
    return 24.0 * (Q[0, 1] * Q[2, 3] - Q[0, 2] * Q[1, 3] + Q[0, 3] * Q[1, 2])


_DEFAULT_ORDER = {2: 64, 4: 48, 6: 24}


def _weighted_integral(beta: int, f, n_nodes: int, method: str) -> complex:
    if method == "hankel":
        return _integral_beta2(f, n_nodes)
    if method == "pfaffian":
        return _integral_beta4(f, n_nodes)
    return _tensor_integral(beta, f, n_nodes)


def _auto_method(beta: int) -> str:
    return {2: "hankel", 4: "pfaffian"}.get(beta, "tensor")


def _log_prefactor_finite(beta: int, N: int) -> float:
    kap = beta / 2.0
    j = np.arange(N - 2)
    log_m = float(np.sum(gammaln(kap * j + 2 * beta + 1) + gammaln(kap * (j + 1) + 1)
                         - 2.0 * gammaln(kap * j + beta + 1) - gammaln(1 + kap)))
    return (math.log(N - 1) - math.log(N) + N * gammaln(kap + 1)
            - gammaln(beta * N / 2.0 + 1) + log_m
            - selberg_log(beta, -1 + 2.0 / beta, -1 + 2.0 / beta, 2.0 / beta))


def rho2_even_beta(beta: int, x: float, N: int | float | None = None,
                   quad_order: int | None = None, method: str = "auto",
                   check_convergence: bool | None = None) -> float:
    """Bulk-scaled two-point correlation (unit density) at separation x for
    even beta, from the beta-dimensional integral representation; N = None
    gives the limit curve.

    Integer N uses the Morris-product prefactor; real (including negative) N
    uses the equivalent Gamma-free reduction through the evenness product,
    which continues the formula off the integers."""
    if beta not in (2, 4, 6):
        raise ValueError("beta must be 2, 4, or 6")
    if method == "auto":
        method = _auto_method(beta)
    n_nodes = quad_order or _DEFAULT_ORDER[beta]
    if check_convergence is None:
        check_convergence = method != "tensor"
    if N is not None and abs(x) >= abs(N) / 2.0:
        raise ValueError("separation must stay within one period, |x| < N/2")
    if x == 0.0 and N is not None:
        return 0.0

    def value(nn):
        kap = beta / 2.0
        if N is None:
            f = lambda u: np.exp(2j * np.pi * x * u)
            integral = _weighted_integral(beta, f, nn, method)
            log_pre = (beta * math.log(kap) + 3.0 * gammaln(kap + 1)
                       - gammaln(beta + 1) - gammaln(3.0 * kap + 1)
                       - selberg_log(beta, -1 + 2.0 / beta, -1 + 2.0 / beta, 2.0 / beta))
            pre = math.exp(log_pre) * np.exp(-1j * np.pi * beta * x) \
                * (2.0 * np.pi * abs(x)) ** beta
            return complex(pre * integral) if x >= 0 else complex(
                np.conj(pre * integral))
        theta = TWO_PI * x / N
        z = 1.0 - np.exp(1j * theta)
        f = lambda u: (1.0 - z * u) ** (N - 2)
        integral = _weighted_integral(beta, f, nn, method)
        if isinstance(N, (int, np.integer)):
            log_pre = _log_prefactor_finite(beta, int(N))
            scale = math.exp(log_pre)
        else:
            # Gamma-ratio block reduced to the product even in N
            log_pre = (3.0 * gammaln(kap + 1) - gammaln(2 * kap + 1)
                       - gammaln(3 * kap + 1)
                       - selberg_log(beta, -1 + 2.0 / beta, -1 + 2.0 / beta,
                                     2.0 / beta))
            scale = math.exp(log_pre) * evenness_factor(2, kap, N)
        pre = scale * (2.0 * math.sin(theta / 2.0)) ** beta \
            * np.exp(-1j * np.pi * beta * x * (N - 2) / N)
        return complex(pre * integral)

    got = value(n_nodes)
    if check_convergence:
        again = value(2 * n_nodes)
        if abs(again - got) > 1e-6:
            warnings.warn(f"rho2_even_beta not converged at {n_nodes} nodes "
                          f"(doubling moved it by {abs(again - got):.2e})",
                          AccuracyWarning)
        got = again
    if abs(got.imag) > 1e-9:
        warnings.warn(f"imaginary residue {got.imag:.2e}", AccuracyWarning)
    return float(got.real)


def rho2_correction_estimate(beta: int, x: float, N_pair=(32, 64)) -> float:
    """Two-point Richardson estimate of the 1/N^2 coefficient of the two-point
    function at separation x, from N in N_pair."""
    n1, n2 = N_pair
    if n1 < 16:
        raise ValueError("need N >= 16")
    f1 = rho2_even_beta(beta, x, n1, check_convergence=False)
    f2 = rho2_even_beta(beta, x, n2, check_convergence=False)
    return (f1 - f2) / (1.0 / n1 ** 2 - 1.0 / n2 ** 2)


# ---------------------------------------------------------------------------
# Moment integrals and the integration-by-parts recurrence

def moment_integral(beta: int, theta: float, exponents=(), quad_order=None) -> complex:
    """I^(m)(a_1..a_m): the weighted integral with the distinct-index
    symmetrized monomial sum inserted; exponents = () gives the base integral."""
    if beta not in (2, 4):
        raise NotImplementedError("moment integrals support beta = 2, 4")
    m = len(exponents)
    if m > 3:
        raise NotImplementedError("m <= 3 only")
    if m > beta:
        return 0.0 + 0.0j
    nn = quad_order or _DEFAULT_ORDER[beta]
    f = lambda u: np.exp(1j * theta * u)
    if m == 0:
        return complex(_tensor_integral(beta, f, nn))
    base, (ins,) = _tensor_integral(beta, f, nn, inserts=[tuple(exponents)])
    return complex(ins)


def _even(x: int) -> int:
    return 1 if x % 2 == 0 else 0


def recurrence_sides(beta: int, theta: float, a: tuple, quad_order=None):
    """Left and right sides of the moment-integral recurrence for a_1 >= 2."""
    a = tuple(int(v) for v in a)
    m = len(a)
    if m < 1 or a[0] < 2:
        raise ValueError("need a_1 >= 2")
    rest = a[1:]
    I = lambda *expo: moment_integral(beta, theta, expo, quad_order)
    lhs = -1j * theta * (I(a[0] - 1, *rest) - I(*a))
    rhs = 0.0 + 0.0j
    for j in (1, 2):
        p = a[0] - j
        sub = sum(I(k, p - k, *rest) for k in range(p // 2 + 1))
        if _even(p):
            sub -= 0.5 * I(p // 2, p // 2, *rest)
        rhs += (4.0 / beta) * (-1) ** j * sub
    for idx in range(1, m):
        ak = a[idx]
        sgn = float(np.sign(a[0] - ak))
        if sgn == 0.0:
            continue
        others = a[1:idx] + a[idx + 1:]
        inner = 0.0 + 0.0j
        for j in (1, 2):
            tot = a[0] + ak - j
            sub = sum(I(el, tot - el, *others)
                      for el in range(min(a[0] + 1 - j, ak), tot // 2 + 1))
            if _even(tot):
                sub -= 0.5 * I(tot // 2, tot // 2, *others)
            inner += (-1) ** j * sub
        rhs += (4.0 / beta) * sgn * inner
    rhs += (2.0 / beta + a[0] - 2) * I(a[0] - 2, *rest)
    rhs -= (4.0 / beta + a[0] - 2) * I(a[0] - 1, *rest)
    return lhs, rhs


DEFAULT_RECURRENCE_CASES = ((2,), (3,), (4,), (2, 1), (3, 1), (3, 2), (4, 1))


def _initial_condition_residual(beta: int, theta: float, quad_order=None) -> float:
    """Index reduction I^(m)(0, rest) = (beta - m + 1) I^(m-1)(rest) and the
    power-sum partition identities tying theta-derivatives of the base
    integral to the distinct-index sums (stencil derivatives)."""
    I = lambda *expo: moment_integral(beta, theta, expo, quad_order)
    worst = 0.0
    for rest in ((1,), (2,), (1, 1)):
        if len(rest) + 1 > beta:
            continue
        worst = max(worst, abs(I(0, *rest) - (beta - len(rest)) * I(*rest)))
    h = 0.01
    base = [moment_integral(beta, theta + k * h, (), quad_order)
            for k in (-2, -1, 0, 1, 2)]
    d1 = (base[0] - 8 * base[1] + 8 * base[3] - base[4]) / (12 * h)
    d2 = (-base[0] + 16 * base[1] - 30 * base[2] + 16 * base[3] - base[4]) \
        / (12 * h * h)
    worst = max(worst, abs(I(1) - (-1j) * d1))
    worst = max(worst, abs(I(2) + I(1, 1) - (-d2)))
    return worst


def verify_moment_recurrence(beta: int, cases=DEFAULT_RECURRENCE_CASES,
                             thetas=(1.0, 2.5), quad_order=None) -> float:
    """Max residual of the integration-by-parts recurrence over the cases and
    theta values, together with its initial-condition identities."""
    worst = 0.0
    for th in thetas:
        for case in cases:
            lhs, rhs = recurrence_sides(beta, th, case, quad_order)
            worst = max(worst, abs(lhs - rhs))
    worst = max(worst, _initial_condition_residual(beta, thetas[0], quad_order))
    return worst


# ---------------------------------------------------------------------------
# Leading small-s coefficient of xi^k at finite N

def leading_xi_s_power(k: int, beta: int) -> int:
    kap = beta // 2
    return k + kap * (k + 2) * (k + 1)


def leading_xi_coefficient_exact(k: int, beta: int, N) -> tuple[Fraction, int]:
    """(rational, pi power) of the coefficient of xi^k s^(k + kappa(k+2)(k+1));
    exact for integer kappa = beta/2 and rational N."""
    if beta % 2 or beta < 2:
        raise ValueError("even beta only")
    kap = beta // 2
    n = k + 2
    if isinstance(N, int) and not n < N / 2:
        raise ValueError("need k + 2 < N/2")
    pi_pow = kap * (k + 2) * (k + 1)
    out = F((-1) ** k, math.factorial(k))
    out *= F(2, 1) ** pi_pow / F(N) ** pi_pow
    out *= selberg_exact(k, beta, beta, kap)
    out *= F(math.factorial(kap)) ** n / math.factorial(n * kap)
    for j in range(1, n):
        out *= F(math.factorial(kap * j), math.factorial(kap * (n + j)))
    out *= evenness_factor_exact(n, kap, N)
    return out, pi_pow


def leading_xi_coefficient(k: int, beta: int, N: float) -> float:
    """Float leading coefficient; log-Gamma arithmetic, real N allowed."""
    if beta % 2 or beta < 2:
        raise ValueError("even beta only")
    kap = beta / 2.0
    n = k + 2
    if not n < N / 2:
        raise ValueError("need k + 2 < N/2")
    pw = kap * (k + 2) * (k + 1)
    log_mag = (pw * math.log(2.0 * math.pi / N) - gammaln(k + 1)
               + selberg_log(k, beta, beta, kap)
               + n * gammaln(kap + 1) - gammaln(n * kap + 1))
    for j in range(1, n):
        log_mag += gammaln(kap * j + 1) - gammaln(kap * (n + j) + 1)
    return (-1) ** k * math.exp(log_mag) * evenness_factor(n, kap, N)


def rho2_correction_limit(beta: int, x: float) -> float:
    """Closed-form 1/N^2 coefficient in unit-density variables for beta = 2, 4
    (cross-check target for the Richardson route)."""
    if beta == 2:
        return rho2_bulk_term(2, 1, x)
    if beta == 4:
        return 4.0 * rho2_bulk_term(4, 1, 2.0 * x)
    raise ValueError("closed forms available for beta = 2, 4")
