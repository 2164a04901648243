"""Two-point correlation of the circular ensemble at even beta via the
beta-dimensional integral representation, Selberg/Morris constants, the
evenness-in-N factor, the Richardson estimate of the 1/N^2 correction, and the
moment-integral recurrence verification."""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .correlations import rho2_bulk_term
from .gap import AccuracyWarning
from .numerics import (chebyshev_interpolate, chebyshev_points, gauss_legendre,
                       inverse_square_fit, spectral_derivative)

F = Fraction
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Closed product constants

def selberg_log(n: int, a: float, b: float, c: float) -> float:
    """log of the Selberg integral int prod t^a (1-t)^b prod |t_k - t_j|^(2c)."""
    if not all(map(math.isfinite, (a, b, c))):
        raise ValueError(f"a, b and c must be finite, got ({a}, {b}, {c})")
    if n == 0:
        return 0.0
    if a <= -1 or b <= -1:
        raise ValueError("need a, b > -1")
    if c <= -min(1.0 / n, (a + 1) / (n - 1) if n > 1 else np.inf,
                 (b + 1) / (n - 1) if n > 1 else np.inf):
        raise ValueError("c outside the convergence region")
    lg = math.lgamma
    return math.fsum(lg(a + 1 + j * c) + lg(b + 1 + j * c) + lg(1 + (j + 1) * c)
                     - lg(a + b + 2 + (n + j - 1) * c) - lg(1 + c) for j in range(n))


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
    if not all(map(math.isfinite, (a, b, lam))):
        raise ValueError(f"a, b and lam must be finite, got ({a}, {b}, {lam})")
    if N == 0:
        return 1.0
    j = np.arange(N)
    args = np.concatenate([lam * j + a + b + 1, lam * (j + 1) + 1,
                           lam * j + a + 1, lam * j + b + 1, [1 + lam]])
    if np.any(args <= 0):
        raise ValueError("Gamma pole in Morris product")
    lg = math.lgamma
    return math.exp(math.fsum(lg(lam * j + a + b + 1) + lg(lam * (j + 1) + 1) - lg(lam * j + a + 1)
                              - lg(lam * j + b + 1) - lg(1 + lam) for j in range(N)))


def evenness_factor(n: int, kappa: float, N: float) -> float:
    """prod_{k=1}^{n-1} prod_{l=1}^{k kappa} (kappa^2 N^2 - l^2); even in N,
    and exact for an integer kappa with an int or Fraction N."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for k in range(1, n):
        top = kappa * k
        if abs(top - round(top)) > 1e-12:
            raise ValueError("k * kappa must be integral")
        for el in range(1, round(top) + 1):
            out *= kappa * kappa * N * N - el * el
    return out


def v2_coefficient(n: int, kappa: float) -> float:
    """Coefficient of 1/N^2 in the normalized large-N form of the factor."""
    return n / (12.0 * kappa) * (n - 1) * (kappa * (n - 1) + 1) * (kappa * n + 1)


# ---------------------------------------------------------------------------
# Engines for the beta-dimensional integral
#   I[f_sym] = int_[0,1]^beta prod_j w(u_j) f(u_j) prod_{j<k} |u_k-u_j|^(4/beta)
# with w(u) = u^(-1+2/beta) (1-u)^(-1+2/beta).

# -- beta = 2: moment-determinant (Andreief) reduction, weight is flat -------

def _integral_beta2(f, n_nodes: int) -> complex:
    rule = gauss_legendre(n_nodes, 0.0, 1.0)
    u, w = rule.nodes, rule.weights
    fu = w * f(u)
    m = [np.sum(fu * u ** p) for p in range(3)]
    return 2.0 * (m[0] * m[2] - m[1] * m[1])


# -- beta = 4: de Bruijn Pfaffian of pair integrals, u = sin^2 phi ----------

@lru_cache(maxsize=8)
def _beta4_rule(n: int):
    """u_i = sin^2 phi_i at phi_i = pi i / (2n), i = 0..n (the Chebyshev
    points of (0, 1)); cos(2 j phi_i) for j < 4; and the antisymmetric
    W with a W b = int_{0 <= phi <= psi <= pi/2} (a(phi) b(psi) - b(phi) a(psi))
    for even pi-periodic a, b of degree <= n in cos 2 phi, from their samples."""
    # built in place, so that few (n+1) x (n+1) arrays are alive at once
    i = np.arange(n + 1.0)
    # cos(pi i k / n), with i k reduced mod 2n so that every argument is below 2 pi
    T = np.outer(i, i) % (2 * n)
    T *= np.pi / n
    np.cos(T, out=T)
    cos = T[:4].copy()
    # T, symmetric, maps samples to cosine coefficients by the trapezoid rule over
    # the whole period: interior samples count twice, and so do the coefficients
    # of cos 2 l phi, 0 < l < n
    twice = np.where((i == 0) | (i == n), 1.0, 2.0)
    T *= np.outer(twice, twice / (2 * n))
    # the integral above for a = cos 2 l phi, b = cos 2 m phi is 1/(l^2 - m^2)
    # when l + m, and so l^2 - m^2, is odd, else 0
    A = np.subtract.outer(i * i, i * i)
    np.divide(A % 2, A, out=A, where=A != 0)
    return np.sin(np.pi / (2 * n) * i) ** 2, cos, T @ A @ T


def _integral_beta4(f, n_nodes: int) -> complex:
    """24 Pf[Q], Q_jk = int_{0<=x<=y<=1} (x^j y^k - x^k y^j) h(x) h(y) dx dy
    with h(u) = f(u) u^(-1/2) (1-u)^(-1/2). Under u = sin^2 phi, h du = 2 f dphi;
    in the basis T_j(1 - 2u) = cos 2 j phi (determinant 512 against u^j) each
    pair integral is a_j W a_k, with a_j = 2 cos(2 j phi) f(sin^2 phi)."""
    u, cos, W = _beta4_rule(n_nodes)
    a = 2.0 * cos * f(u)
    Q = a @ W @ a.T
    return 3.0 / 64.0 * (Q[0, 1] * Q[2, 3] - Q[0, 2] * Q[1, 3] + Q[0, 3] * Q[1, 2])


# -- any even beta: the holonomic (Aomoto) system ---------------------------
# With n = beta, a = -1 + 2/beta and tau = 2/beta, let J_q be I[f_sym] with
# e_q(u_1..u_n) inserted. Integration by parts closes J = (J_0..J_n) under
# p J' = (R0 + c R1) J, with p(t) = t for f = e^(tu) and p(z) = z (1 - z) for
# f = (1 - zu)^(N-2). J is analytic at the regular singular point 0, where
# J_q / J_{q-1} = A_q / B_q (Aomoto). It is continued from its Frobenius series
# there by Taylor steps, each expanding it about its start c by
#   p(c) (k+1) a_{k+1} = (R0 + c R1 - p'(c) k) a_k + (R1 - p'' (k-1) / 2) a_{k-1}.

_TERMS = 24
# (step / distance to the nearest singular point, cap on step * rate n|N| or n)
_STEPS = ((1 / 6, 2.0), (1 / 8, 3.0))
_X_MAX = 200.0   # steps, time and memory grow as |x|: 0.4 s and 32 MB at 200


def _system(n: int, N):
    """R0, R1 and J(0) of the system for the limit (N None) or finite N."""
    tau = 2.0 / n
    a = -1.0 + tau
    q = np.arange(n + 1.0)
    A = (n - q + 1) * (1 + a + tau * (n - q))
    B = q * (2 + 2 * a + tau * (2 * n - q - 1))
    if N is None:
        R1 = np.diag(q) + np.diag(q[1:], 1)
    else:
        R1 = np.diag(np.append(A[1:], 0.0) - q * (N - 2)) - np.diag(B[1:] + q[1:] * (N - 2), 1)
    return (np.diag(-B) + np.diag(A[1:], -1), R1,
            selberg(n, a, a, tau) * np.cumprod(np.append(1.0, A[1:] / B[1:])))


def _holonomic(n: int, s, N, ratio: float, cap: float) -> np.ndarray:
    """J_0 at the path points of parameters s >= 0, t = i s in the limit (N
    None) and z = 1 - e^(i s) at finite N, all from one continuation."""
    R0, R1, j0 = _system(n, N)
    m, half_pp = n + 1, 0.0 if N is None else -1.0
    point, dist, rate, v = (lambda v: 1j * v), (lambda v: v), n, [0.5]
    if N is not None:   # 1 - e^(i v) without cancellation at small v; |1 - z| = 1
        point, rate, v = (lambda v: -2j * np.sin(v / 2) * np.exp(0.5j * v)), n * abs(N), \
            [min(0.05, 0.5 / abs(N))]
        dist = lambda v: min(2.0 * math.sin(v / 2.0), 1.0)
    while len(v) < 2 or v[-1] < np.max(s, initial=0.0):
        v.append(v[-1] + min(ratio * dist(v[-1]), cap / rate))
    c = point(np.array(v))
    # Frobenius series at 0 in powers of z / |c_0|: (k - R0) a_k = (R1 - p'' (k-1) / 2) a_{k-1}
    inv = np.linalg.inv(np.arange(1.0, _TERMS + 1)[:, None, None] * np.eye(m) - R0)
    b = [j0.astype(complex)]
    for k in range(1, _TERMS + 1):
        b.append(inv[k - 1] @ (abs(c[0]) * (R1 @ b[-1] - half_pp * (k - 1) * b[-1])))
    b = np.array(b)
    # the expansions about all step starts c_j at once, in powers of (z - c_j) / h_j,
    # as matrices cur[:, j, :] acting on J(c_j); rows evaluates J_0 at the points s
    cj, step, h = c[:-1], np.diff(c), np.abs(np.diff(c))
    p, dp = (cj, 1.0) if N is None else (cj - cj * cj, 1.0 - 2.0 * cj[:, None])
    j = np.clip(np.searchsorted(v, s, side="right") - 1, 0, len(cj) - 1)
    near = s < v[0]
    u = np.where(near, point(s) / abs(c[0]), (point(s) - cj[j]) / h[j])
    cur = np.repeat(np.eye(m, dtype=complex)[:, None, :], len(cj), axis=1)
    P, rows, prev, r1_prev, f = cur.copy(), cur[0, j], 0.0, 0.0, (h / p)[:, None]
    for k in range(_TERMS):
        r0_cur, r1_cur = (np.vstack([R0, R1]) @ cur.reshape(m, -1)).reshape(2, m, -1, m)
        cur, prev, r1_prev = f * (r0_cur + cj[:, None] * r1_cur - k * dp * cur + h[:, None]
                                  * (r1_prev - half_pp * (k - 1) * prev)) / (k + 1), cur, r1_cur
        P += (step / h)[:, None] ** (k + 1) * cur
        rows = rows + u[:, None] ** (k + 1) * cur[0, j]
    J = [b.T @ (c[0] / abs(c[0])) ** np.arange(_TERMS + 1)]
    for k in range(len(cj)):
        J.append(P[:, k] @ J[-1])
    return np.where(near, np.polynomial.polynomial.polyval(u, b[:, 0]),
                    np.einsum("gi,gi->g", rows, np.array(J)[j]))


_METHODS = {2: ("hankel", "holonomic"), 4: ("pfaffian", "holonomic"), 6: ("holonomic",)}
_DEFAULT_ORDER = {2: 64, 4: 48}


def _weighted_integral(beta: int, f, n_nodes: int, method: str) -> complex:
    return (_integral_beta2 if method == "hankel" else _integral_beta4)(f, n_nodes)


def _integrand(beta: int, x: float, N):
    """(pre, f): the two-point function at separation x is Re[pre I[f]]."""
    kap = beta / 2.0
    log_c = (3.0 * math.lgamma(kap + 1) - math.lgamma(beta + 1) - math.lgamma(3.0 * kap + 1)
             - selberg_log(beta, -1 + 2.0 / beta, -1 + 2.0 / beta, 2.0 / beta))
    if N is None:
        f = lambda u: np.exp(2j * np.pi * x * u)
        scale, chord, shift = kap ** beta, TWO_PI * x, x
    else:
        theta = TWO_PI * x / N
        z = 1.0 - np.exp(1j * theta)
        f = lambda u: (1.0 - z * u) ** (N - 2)
        scale = evenness_factor(2, kap, N)
        chord, shift = 2.0 * math.sin(theta / 2.0), x * (N - 2) / N
    return math.exp(log_c) * scale * chord ** beta * np.exp(-1j * np.pi * beta * shift), f


def rho2_even_beta(beta: int, x, N: int | float | None = None,
                   quad_order: int | None = None, method: str = "auto",
                   check_convergence: bool | None = None):
    """Bulk-scaled two-point correlation (unit density) at separation x, a
    number or an array, for even beta, from the beta-dimensional integral
    representation; N = None gives the limit curve.

    The "hankel" (beta = 2) and "pfaffian" (beta = 4) quadratures use
    quad_order nodes and then twice as many; "holonomic" (the default at beta =
    6) serves every x from one continuation at each of two step settings. The
    two must agree, to 1e-6 and 1e-10, or an AccuracyWarning is raised.
    check_convergence=False returns the first alone.

    The finite-N prefactor is the Gamma-free reduction of the Morris-product
    constant through the evenness product, so any real (including negative)
    N is accepted and the value is even in N; its N -> oo form, with
    (kappa N)^beta for the product, gives the limit."""
    return _rho2_even(beta, x, N, quad_order, method, check_convergence)


def _rho2_even(beta, x, N, quad_order, method, check_convergence):
    # the library's own holonomic calls enter here: bench/tracer.py has no holonomic group
    if beta not in _METHODS:
        raise ValueError("beta must be 2, 4, or 6")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)) or (N is not None and not math.isfinite(N)):
        raise ValueError(f"x and N must be finite, got x = {x}, N = {N}")
    method = _METHODS[beta][0] if method == "auto" else method
    if method not in _METHODS[beta]:
        raise ValueError(f"method {method!r} cannot serve beta = {beta}; use auto or "
                         + " or ".join(_METHODS[beta]))
    if method == "holonomic" and (quad_order is not None or np.any(np.abs(xs) > _X_MAX)):
        raise ValueError(f"the holonomic engine takes no quad_order, and |x| <= {_X_MAX:g}")
    n_nodes = _DEFAULT_ORDER.get(beta) if quad_order is None else quad_order
    if method != "holonomic" and n_nodes < beta:
        raise ValueError(f"quad_order must be at least {beta} for the {method} engine")
    if N is not None and np.any(np.abs(xs) >= abs(N) / 2.0):
        raise ValueError("separation must stay within one period, |x| < N/2")
    if method == "holonomic":
        # even in x: run each path forwards, with theta = 2 pi x / N >= 0
        xs_path = np.abs(xs.ravel()) * (1.0 if N is None or N > 0 else -1.0)
        pre = np.array([_integrand(beta, v, N)[0] for v in xs_path.tolist()])
        s = TWO_PI * np.abs(xs_path) / (1.0 if N is None else abs(N))
        value, tol = (lambda k: pre * _holonomic(beta, s, N, *_STEPS[k])), 1e-10
    else:
        terms = [_integrand(beta, v, N) for v in xs.ravel().tolist()]
        value, tol = (lambda k: np.array([complex(pre * _weighted_integral(
            beta, f, n_nodes * 2 ** k, method)) for pre, f in terms])), 1e-6
    got = value(0)
    if check_convergence is not False:
        again = value(1)
        if (moved := np.max(np.abs(again - got), initial=0.0)) > tol:
            warnings.warn(f"rho2_even_beta not converged: the {method} engine's check "
                          f"moved it by {moved:.2e}", AccuracyWarning)
        got = again
    if np.max(np.abs(got.imag), initial=0.0) > 1e-9:
        warnings.warn(f"imaginary residue {np.max(np.abs(got.imag)):.2e}", AccuracyWarning)
    got = got.real.reshape(xs.shape)
    return float(got) if got.ndim == 0 else got


def rho2_correction_estimate(beta: int, x):
    """Richardson estimate of the 1/N^2 coefficient of the two-point function
    at separation x (a number or an array, |x| < 16): the exact fit {1, 1/N^2,
    1/N^4, 1/N^6} through N = 32, 48, 64, 96, one holonomic continuation per N
    at its first step setting."""
    Ns = (32, 48, 64, 96)
    fit = inverse_square_fit(Ns, [_rho2_even(beta, x, N, None, "holonomic", False)
                                  for N in Ns])[1]
    return float(fit) if np.ndim(fit) == 0 else fit


# ---------------------------------------------------------------------------
# Moment integrals and the integration-by-parts recurrence

def moment_integral(beta: int, theta: float, exponents=()) -> complex:
    """I^(m)(a_1..a_m): the weighted integral with the distinct-index
    symmetrized monomial sum inserted; exponents = () gives the base integral.

    The sum is the coefficient of t_1...t_m in prod_j (1 + sum_i t_i u_j^a_i),
    of degree <= beta in each t_i. So the integral of f(u) = e^(i theta u)
    times 1 + sum_i t_i u^a_i, run through the engine of rho2_even_beta with
    each t_i over the beta-th roots of unity and weighted by conj(t_1...t_m),
    averages to it exactly: beta^m engine calls."""
    if beta not in (2, 4):
        raise NotImplementedError("moment integrals support beta = 2, 4")
    if not all(float(a).is_integer() and a >= 0 for a in exponents):
        raise ValueError(f"exponents must be nonnegative integers, got {exponents}")
    m = len(exponents)
    if m > 3:
        raise NotImplementedError("m <= 3 only")
    if m > beta:
        return 0.0 + 0.0j
    nn, method = _DEFAULT_ORDER[beta], _METHODS[beta][0]
    roots = [1j ** (4 * k // beta) for k in range(beta)]   # exact at beta = 2, 4
    total = 0.0 + 0.0j
    for ts in itertools.product(roots, repeat=m):
        g = lambda u, ts=ts: np.exp(1j * theta * u) * (
            1.0 + sum(t * u ** a for t, a in zip(ts, exponents)))
        total += np.conj(np.prod(ts)) * _weighted_integral(beta, g, nn, method)
    return complex(total / beta ** m)


def _even(x: int) -> int:
    return 1 if x % 2 == 0 else 0


def _integrals(beta: int):
    """moment_integral(beta, theta, exponents) as a function of (theta,
    exponents) that computes each distinct integral once; I^(m) is symmetric
    in its exponents, so they are keyed sorted."""
    cached = lru_cache(maxsize=None)(
        lambda theta, expo: moment_integral(beta, theta, expo))
    return lambda theta, expo: cached(theta, tuple(sorted(expo)))


def recurrence_sides(beta: int, theta: float, a: tuple):
    """Left and right sides of the moment-integral recurrence for a_1 >= 2."""
    return _sides(beta, theta, a, _integrals(beta))


def _sides(beta: int, theta: float, a: tuple, integral):
    a = tuple(int(v) for v in a)
    m = len(a)
    if m < 1 or a[0] < 2:
        raise ValueError("need a_1 >= 2")
    rest = a[1:]
    I = lambda *expo: integral(theta, expo)
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


def _initial_condition_residual(beta: int, theta: float, integral) -> float:
    """Index reduction I^(m)(0, rest) = (beta - m + 1) I^(m-1)(rest) and the
    power-sum partition identities tying theta-derivatives of the base
    integral, taken spectrally from its values on 16 Chebyshev nodes of
    [theta - 1/2, theta + 1/2], to the distinct-index sums."""
    I = lambda *expo: integral(theta, expo)
    worst = 0.0
    for rest in ((1,), (2,), (1, 1)):
        if len(rest) + 1 > beta:
            continue
        worst = max(worst, abs(I(0, *rest) - (beta - len(rest)) * I(*rest)))
    lo, hi = theta - 0.5, theta + 0.5
    base = np.array([integral(t, ()) for t in chebyshev_points(16, lo, hi)])
    d1, d2 = (sum(unit * chebyshev_interpolate(spectral_derivative(part, k, lo, hi),
                                               lo, hi, theta)
                  for unit, part in ((1.0, base.real), (1j, base.imag)))
              for k in (1, 2))
    worst = max(worst, abs(I(1) - (-1j) * d1))
    worst = max(worst, abs(I(2) + I(1, 1) - (-d2)))
    return worst


def verify_moment_recurrence(beta: int, cases=DEFAULT_RECURRENCE_CASES,
                             thetas=(1.0, 2.5)) -> float:
    """Max residual of the integration-by-parts recurrence over the cases and
    theta values, together with its initial-condition identities; each
    distinct moment integral is computed once."""
    integral = _integrals(beta)
    worst = 0.0
    for th in thetas:
        for case in cases:
            lhs, rhs = _sides(beta, th, case, integral)
            worst = max(worst, abs(lhs - rhs))
    worst = max(worst, _initial_condition_residual(beta, thetas[0], integral))
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
    kap, n, N = beta // 2, k + 2, F(N)
    if not n < N / 2:
        raise ValueError("need k + 2 < N/2")
    pi_pow = kap * (k + 2) * (k + 1)
    out = F((-1) ** k, math.factorial(k))
    out *= F(2, 1) ** pi_pow / N ** pi_pow
    out *= selberg_exact(k, beta, beta, kap)
    out *= F(math.factorial(kap)) ** n / math.factorial(n * kap)
    for j in range(1, n):
        out *= F(math.factorial(kap * j), math.factorial(kap * (n + j)))
    out *= evenness_factor(n, kap, N)
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
    log_mag = (pw * math.log(2.0 * math.pi / N) - math.lgamma(k + 1)
               + selberg_log(k, beta, beta, kap)
               + n * math.lgamma(kap + 1) - math.lgamma(n * kap + 1))
    for j in range(1, n):
        log_mag += math.lgamma(kap * j + 1) - math.lgamma(kap * (n + j) + 1)
    return (-1) ** k * math.exp(log_mag) * evenness_factor(n, kap, N)


def rho2_correction_limit(beta: int, x: float) -> float:
    """Closed-form 1/N^2 coefficient in unit-density variables for beta = 2, 4
    (cross-check target for the Richardson route)."""
    if beta == 2:
        return rho2_bulk_term(2, 1, x)
    if beta == 4:
        return 4.0 * rho2_bulk_term(4, 1, 2.0 * x)
    raise ValueError("closed forms available for beta = 2, 4")
