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

from .correlations import _pfaffian, _rho2_density_one
from .gap import AccuracyWarning
from .numerics import (_CUE_MAX_N, _SLICE_ENTRIES, _choice, _read_only, _real, _whole,
                       chebyshev_interpolate, chebyshev_points, gauss_legendre,
                       inverse_square_fit, spectral_derivative)

F = Fraction
TWO_PI = 2.0 * math.pi
# Largest n of the evenness product, a product of kappa n (n - 1) / 2 factors;
# leading_xi_coefficient_exact takes k <= n - 2
_POINTS_MAX = 64
# Largest |N|, and largest denominator of a Fraction N, of the exact record,
# whose integers grow as N^(kappa n (n - 1)): the worst call at this cap,
# leading_xi_coefficient_exact(62, 6, (10^14 - 1)/10^7), takes 0.6 s (2 cores)
_EXACT_N_MAX = 10 ** 7


# ---------------------------------------------------------------------------
# Closed product constants

def selberg_log(n: int, a: float, b: float, c: float) -> float:
    """log of the Selberg integral int prod t^a (1-t)^b prod |t_k - t_j|^(2c)
    over n <= 4096 variables."""
    a, b, c = _real("a", a), _real("b", b), _real("c", c)
    if (n := _whole("n", n, 0, _CUE_MAX_N)) == 0:
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
    """The Selberg integral; a value past the float range is refused."""
    try:
        return math.exp(selberg_log(n, a, b, c))
    except OverflowError:
        raise ValueError("the Selberg integral overflows a float; use selberg_log") from None


def selberg_exact(n: int, a: int, b: int, c: int) -> Fraction:
    """Selberg integral at integer parameters, exact."""
    out = F(1)
    for j in range(n):
        out *= F(math.factorial(a + j * c) * math.factorial(b + j * c)
                 * math.factorial((j + 1) * c),
                 math.factorial(a + b + 1 + (n + j - 1) * c) * math.factorial(c))
    return out


def morris(N: int, a: float, b: float, lam: float) -> float:
    """Morris integral as a Gamma-function product, log-Gamma arithmetic, for
    N <= 4096; a value past the float range is refused."""
    a, b, lam = _real("a", a), _real("b", b), _real("lam", lam)
    if (N := _whole("N", N, 0, _CUE_MAX_N)) == 0:
        return 1.0
    j = np.arange(N)
    args = np.concatenate([lam * j + a + b + 1, lam * (j + 1) + 1,
                           lam * j + a + 1, lam * j + b + 1, [1 + lam]])
    if np.any(args <= 0):
        raise ValueError("Gamma pole in Morris product")
    lg = math.lgamma
    try:
        return math.exp(math.fsum(lg(lam * j + a + b + 1) + lg(lam * (j + 1) + 1)
                                  - lg(lam * j + a + 1) - lg(lam * j + b + 1) - lg(1 + lam)
                                  for j in range(N)))
    except OverflowError:
        raise ValueError("the Morris integral overflows a float") from None


def _evenness_product(n: int, kappa, p, q=1):
    """prod (kappa^2 p^2 - l^2 q^2) over 1 <= l <= k kappa, 1 <= k < n: the
    evenness product at N = p/q times q^(kappa n (n - 1)). The factors are
    multiplied pairwise, level by level, so that exact integers of like size
    meet; up to three factors this is the order of math.prod."""
    out = [kappa * kappa * p * p - el * el * q * q
           for k in range(1, n) for el in range(1, round(kappa * k) + 1)]
    while len(out) > 1:
        out = [a * b for a, b in zip(out[::2], out[1::2])] + out[len(out) & ~1:]
    return out[0] if out else 1


def evenness_factor(n: int, kappa: float, N: float) -> float:
    """prod_{k=1}^{n-1} prod_{l=1}^{k kappa} (kappa^2 N^2 - l^2) in floats, for
    n <= 64 and kappa <= 3; even in N, and refused past the float range."""
    n = _whole("n", n, 1, _POINTS_MAX)
    kappa, N = _real("kappa", kappa, 0.0, 3.0), _real("N", N)
    if any(abs(kappa * k - round(kappa * k)) > 1e-12 for k in range(1, n)):
        raise ValueError("k * kappa must be integral")
    if not math.isfinite(out := _evenness_product(n, kappa, N)):
        raise ValueError("the evenness product overflows a float")
    return out


# ---------------------------------------------------------------------------
# Engines for the beta-dimensional integral
#   I[f_sym] = int_[0,1]^beta prod_j w(u_j) f(u_j) prod_{j<k} |u_k-u_j|^(4/beta)
# with w(u) = u^(-1+2/beta) (1-u)^(-1+2/beta).

# -- beta = 2: moment-determinant (Andreief) reduction, weight is flat -------

def _integral_beta2(f, n_nodes: int):
    """I[f] for each row of f(u), shape (..., n_nodes) at the n_nodes nodes u."""
    rule = gauss_legendre(n_nodes, 0.0, 1.0)
    u, w = rule.nodes, rule.weights
    m = (w * f(u)) @ (u[:, None] ** np.arange(3))
    return 2.0 * (m[..., 0] * m[..., 2] - m[..., 1] * m[..., 1])


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


def _integral_beta4(f, n_nodes: int):
    """24 Pf[Q] for each row of f(u), shape (..., n_nodes + 1), with Q_jk =
    int_{0<=x<=y<=1} (x^j y^k - x^k y^j) h(x) h(y) dx dy and h(u) = f(u)
    u^(-1/2) (1-u)^(-1/2). Under u = sin^2 phi, h du = 2 f dphi; in the basis
    T_j(1 - 2u) = cos 2 j phi (determinant 512 against u^j) each pair integral
    is a_j W a_k, with a_j = 2 cos(2 j phi) f(sin^2 phi)."""
    u, cos, W = _beta4_rule(n_nodes)
    a = 2.0 * cos * f(u)[..., None, :]
    Q = (a.reshape(-1, n_nodes + 1) @ W).reshape(a.shape) @ a.swapaxes(-1, -2)
    return 3.0 / 64.0 * _pfaffian(Q)


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


def _path(N):
    """(point, dist, rate, v0): the path point of parameter v, t = i v in the
    limit (N None) and z = 1 - e^(i v) at finite N, without cancellation at
    small v; its distance to the nearest singular point (|1 - z| = 1); the rate
    per unit n that caps a step; and the first parameter v0."""
    if N is None:
        return (lambda v: 1j * v), (lambda v: v), 1.0, 0.5
    return ((lambda v: -2j * np.sin(v / 2) * np.exp(0.5j * v)),
            (lambda v: min(2.0 * math.sin(v / 2.0), 1.0)), abs(N), min(0.05, 0.5 / abs(N)))


@lru_cache(maxsize=16)
def _start(n: int, N):
    """The Taylor step matrices M_k, the Frobenius series of J_0 at 0 in powers
    of z / |c_0|, and J at the path's first point c_0: they depend on (n, N)
    alone, and are read-only."""
    R0, R1, j0 = _system(n, N)
    point, _, _, v0 = _path(N)
    c0, half_pp = point(v0), 0.0 if N is None else -1.0
    # (k - R0) b_k = |c_0| (R1 - p'' (k-1) / 2) b_{k-1}
    inv = np.linalg.inv(np.arange(1.0, _TERMS + 1)[:, None, None] * np.eye(n + 1) - R0)
    b = [j0.astype(complex)]
    for k in range(1, _TERMS + 1):
        b.append(inv[k - 1] @ (abs(c0) * (R1 @ b[-1] - half_pp * (k - 1) * b[-1])))
    b = np.array(b)
    k, eye = np.arange(_TERMS)[:, None, None], np.eye(n + 1)
    # with p' = 1 + c p'', M_k = [R0 - k, R1 - p'' k, R1 - p'' (k-1) / 2] / (k+1)
    M = np.concatenate([R0 - k * eye, R1 - 2 * half_pp * k * eye,
                        R1 - half_pp * (k - 1) * eye], axis=2) / (k + 1)
    return _read_only(M, b[:, 0], b.T @ (c0 / abs(c0)) ** np.arange(_TERMS + 1))


def _taylor(M, c, p, step, hosts):
    """The Taylor series of the fundamental matrix about every step start c (a
    1-d array, with p = p(c)), in powers of (z - c) / h, h = |step|:
      (k+1) a_{k+1} = (h / p) [(R0 + c R1 - p' k) a_k + h (R1 - p'' (k-1) / 2) a_{k-1}],
    one real matmul per term, M_k on the float view of [a_k; c a_k; h a_{k-1}],
    with the m x m matrices a_k side by side. Returns the propagators over the
    steps, sum_k (step / h)^k a_k, shape (c.size, m, m), and row 0 of every a_k
    about the starts of index hosts, shape (_TERMS + 1, hosts.size, m)."""
    m, K = M.shape[1], c.size
    h = np.abs(step)
    w, f, c, h = (np.repeat(v, m) for v in (step / h, h / p, c, h.astype(complex)))
    buffers = np.zeros((2, 3 * m, K * m), complex)
    buffers[0, :m].reshape(m, K, m)[np.arange(m), :, np.arange(m)] = 1.0
    np.multiply(c, buffers[0, :m], out=buffers[0, m:2 * m])
    # per buffer: its float view, then its blocks a, c a and h a_{k-1}
    blocks = [(b.view(float), b[:m], b[m:2 * m], b[2 * m:]) for b in buffers]
    P, wk, scaled = buffers[0, :m].copy(), w.copy(), np.empty((m, K * m), complex)
    rows = np.empty((_TERMS + 1, hosts.size, m), complex)
    rows[0] = buffers[0, 0].reshape(K, m)[hosts]
    for k in range(_TERMS):
        (Y, a, _, _), (_, new, c_new, h_a) = blocks[k % 2], blocks[1 - k % 2]
        np.multiply(h, a, out=h_a)
        np.matmul(M[k], Y, out=new.view(float))
        np.multiply(f, new, out=new)
        np.multiply(c, new, out=c_new)
        np.multiply(wk, new, out=scaled)
        P += scaled
        wk *= w
        rows[k + 1] = new[0].reshape(K, m)[hosts]
    return P.reshape(m, K, m).transpose(1, 0, 2), rows


def _holonomic(n: int, s, N, steps) -> np.ndarray:
    """J_0 at the path points of parameters s >= 0, t = i s in the limit (N
    None) and z = 1 - e^(i s) at finite N, one row per (ratio, cap) setting of
    steps. The step starts of all settings are the entries of one Taylor
    recursion, run in slices of _SLICE_ENTRIES / m^2 entries, which also keeps
    row 0 of each term about every step start that holds a point; each setting
    chains its steps from J(c_0), the cached start, and each point sums its
    step's series, row 0 times J, by Horner's rule in (z - c) / h."""
    M, b0, j_start = _start(n, N)
    point, dist, rate, v0 = _path(N)
    m, z, s_max = n + 1, point(s), np.max(s, initial=0.0)
    paths, host, first = [], [], 0
    for ratio, cap in steps:
        v = [v0]
        while len(v) < 2 or v[-1] < s_max:
            v.append(v[-1] + min(ratio * dist(v[-1]), cap / (n * rate)))
        paths.append(point(np.array(v)))
        host.append(first + np.clip(np.searchsorted(v, s, side="right") - 1, 0, len(v) - 2))
        first += len(v) - 1
    c, step, host = (np.concatenate(a) for a in ([path[:-1] for path in paths],
                                                  [np.diff(path) for path in paths], host))
    hosts, at = np.unique(host, return_inverse=True)
    u = (np.tile(z, len(steps)) - c[host]) / np.abs(step[host])
    p = c if N is None else c - c * c
    P, rows = np.empty((c.size, m, m), complex), np.empty((_TERMS + 1, hosts.size, m), complex)
    size = max(1, _SLICE_ENTRIES // (m * m))
    for lo in range(0, c.size, size):
        mine, cut = (hosts >= lo) & (hosts < lo + size), slice(lo, lo + size)
        P[cut], rows[:, mine] = _taylor(M, c[cut], p[cut], step[cut], hosts[mine] - lo)
    # J at every step start: each setting chains its steps from J(c_0)
    J, first = [], 0
    for path in paths:
        J.append(j_start)
        for A in P[first:first + path.size - 2]:
            J.append(A @ J[-1])
        first += path.size - 1
    g = np.einsum("kgi,gi->kg", rows, np.array(J)[hosts])
    far = g[_TERMS, at]
    for k in range(_TERMS - 1, -1, -1):
        far = far * u + g[k, at]
    far = far.reshape(len(steps), s.size)
    close = s < v0
    far[:, close] = (z[close] / abs(point(v0)))[:, None] ** np.arange(_TERMS + 1) @ b0
    return far


_METHODS = {2: ("hankel", "holonomic"), 4: ("pfaffian", "holonomic"), 6: ("holonomic",)}
_ENGINES = {"hankel": _integral_beta2, "pfaffian": _integral_beta4}
_DEFAULT_ORDER = {2: 64, 4: 48}
# largest |x| per engine. The holonomic steps grow as |x|: at 200 both settings
# take 0.14 s with a traced peak of 14.5 MB (2 cores, BLAS on 1 thread). The
# quadratures' nodes resolve e^(2 pi i x u) up to about 20: there the pfaffian
# engine's check warns; by 28 it is off by 4.7, and at N = 1000 by 0.04 at 30.
_X_MAX = {"hankel": 20.0, "pfaffian": 20.0, "holonomic": 200.0}


def _integrand(beta: int, x, N):
    """(pre, f): the two-point function at the separations x, a 1-d array, is
    Re[pre I[f]], f(u) holding one row per x."""
    kap = beta / 2.0
    log_c = (3.0 * math.lgamma(kap + 1) - math.lgamma(beta + 1) - math.lgamma(3.0 * kap + 1)
             - selberg_log(beta, -1 + 2.0 / beta, -1 + 2.0 / beta, 2.0 / beta))
    if N is None:
        f = lambda u: np.exp(np.multiply.outer(2j * np.pi * x, u))
        scale, chord, shift = kap ** beta, TWO_PI * x, x
    else:
        theta = TWO_PI * x / N
        z = 1.0 - np.exp(1j * theta)
        f = lambda u: (1.0 - np.multiply.outer(z, u)) ** (N - 2)
        scale = evenness_factor(2, kap, N)
        chord, shift = 2.0 * np.sin(theta / 2.0), x * (N - 2) / N
    return math.exp(log_c) * scale * chord ** beta * np.exp(-1j * np.pi * beta * shift), f


def rho2_even_beta(beta: int, x, N: int | float | None = None,
                   quad_order: int | None = None, method: str = "auto",
                   check_convergence: bool | None = None):
    """Bulk-scaled two-point correlation (unit density) at separation x, a
    number or an array, for even beta, from the beta-dimensional integral
    representation; N = None gives the limit curve, and any finite real N
    enters as a float. |x| is at most 200 for the holonomic engine and 20 for
    the quadratures, which are exact, and take any |x| < N/2, at an integer N
    in [2, 2 quad_order - 1] (beta = 2) or [2, quad_order - 1] (beta = 4).

    The default engine serves every caller: the "hankel" (beta = 2) and
    "pfaffian" (beta = 4) quadratures take all x at once with quad_order (an
    integer in [beta, 256]) nodes and then twice as many; "holonomic" (beta =
    6) serves every x at two step settings from one engine call, one Taylor
    recursion over the steps of both. The two must agree, to 1e-6 and 1e-10,
    or an AccuracyWarning is raised; the second is returned.
    check_convergence=False computes and returns the first alone.
    method="holonomic" at beta = 2, 4 is the tests' second pipeline.

    The finite-N prefactor is the Gamma-free reduction of the Morris-product
    constant through the evenness product, so any real (including negative)
    N is accepted and the value is even in N; its N -> oo form, with
    (kappa N)^beta for the product, gives the limit."""
    beta = _choice("beta", beta, _METHODS)
    method = _choice("method", method, ("auto",) + _METHODS[beta])
    method = _METHODS[beta][0] if method == "auto" else method
    N = None if N is None else _real("N", N)
    if method == "holonomic" and quad_order is not None:
        raise ValueError("the holonomic engine takes no quad_order")
    if check_convergence is not None and not isinstance(check_convergence, (bool, np.bool_)):
        raise ValueError("check_convergence must be True, False or None, got "
                         f"{check_convergence!r}")
    # at most 512 nodes to certify
    n_nodes = (_DEFAULT_ORDER.get(beta) if quad_order is None
               else _whole("quad_order", quad_order, beta, 256))
    # at an integer N >= 2 the integrand (1 - z u)^(N-2) is a polynomial, which the
    # quadratures integrate exactly up to N = 2n - 1 (hankel, n Gauss nodes) and
    # n - 1 (pfaffian, n + 1 Chebyshev points): there every |x| < N/2 is served
    reach = (N / 2.0 if method in _ENGINES and N is not None and N.is_integer()
             and 2 <= N < n_nodes * (2 if method == "hankel" else 1) else _X_MAX[method])
    xs = np.asarray(_real("x", x, -reach, reach))
    if N is not None and np.any(np.abs(xs) >= abs(N) / 2.0):
        raise ValueError("separation must stay within one period, |x| < N/2")
    flat, rounds = xs.ravel(), 2 if check_convergence in (None, True) else 1
    if method == "holonomic":
        # even in x: run each path forwards, with theta = 2 pi x / N >= 0
        xs_path = np.abs(flat) * (1.0 if N is None or N > 0 else -1.0)
        pre = _integrand(beta, xs_path, N)[0]
        s = TWO_PI * np.abs(xs_path) / (1.0 if N is None else abs(N))
        rows, tol = pre * _holonomic(beta, s, N, _STEPS[:rounds]), 1e-10
    else:
        engine, step = _ENGINES[method], max(1, _SLICE_ENTRIES // (8 * n_nodes + 4))
        terms = [_integrand(beta, flat[i:i + step], N) for i in range(0, flat.size or 1, step)]
        rows, tol = [np.concatenate([pre * engine(f, n_nodes * 2 ** k) for pre, f in terms])
                     for k in range(rounds)], 1e-6
    got = rows[-1]
    if rounds == 2 and (moved := np.max(np.abs(got - rows[0]), initial=0.0)) > tol:
        warnings.warn(f"rho2_even_beta not converged: the {method} engine's check "
                      f"moved it by {moved:.2e}", AccuracyWarning)
    if np.max(np.abs(got.imag), initial=0.0) > 1e-9:
        warnings.warn(f"imaginary residue {np.max(np.abs(got.imag)):.2e}", AccuracyWarning)
    got = got.real.reshape(xs.shape)
    return float(got) if got.ndim == 0 else got


def rho2_correction_estimate(beta: int, x):
    """Richardson estimate of the 1/N^2 coefficient of the two-point function
    at separation x (a number or an array, |x| < 16): the exact fit {1, 1/N^2,
    1/N^4, 1/N^6} through N = 32, 48, 64, 96, one certified rho2_even_beta
    array call per N with its default engine."""
    Ns = (32, 48, 64, 96)
    fit = inverse_square_fit(Ns, [rho2_even_beta(beta, x, N) for N in Ns])[1]
    return float(fit) if np.ndim(fit) == 0 else fit


# ---------------------------------------------------------------------------
# Moment integrals and the integration-by-parts recurrence

# largest exponent of a moment integral: the beta = 2 rule integrates u^a
# exactly only while the degree stays below 128, and the recurrence's sums
# over the exponents grow with a_1
_EXPONENT_MAX = 32
# largest |theta| of a moment integral: at exponents up to 32 the beta = 4 rule
# moves against twice its order by 9e-11 (relative) at 50, 1.6e-8 at 60 and 0.26
# at 80, and the recurrence reads 2.5e-15, 1.3e-12 and 1.3e-5 (beta = 2: 3e-11 to 150)
_THETA_MAX = 50.0
# the recurrence's cases (a_1 >= 2) and thetas
_CASES = ((2,), (3,), (4,), (2, 1), (3, 1), (3, 2), (4, 1))
_THETAS = (1.0, 2.5)


def moment_integral(beta: int, theta: float, exponents=()) -> complex:
    """I^(m)(a_1..a_m): the weighted integral with the distinct-index
    symmetrized monomial sum inserted, at beta = 2 or 4, |theta| <= 50 and for
    at most three exponents, nonnegative integers; exponents = () gives the
    base integral.

    The sum is the coefficient of t_1...t_m in prod_j (1 + sum_i t_i u_j^a_i),
    of degree <= beta in each t_i. So the integral of f(u) = e^(i theta u)
    times 1 + sum_i t_i u^a_i, run through the engine of rho2_even_beta with
    each t_i over the beta-th roots of unity and weighted by conj(t_1...t_m),
    averages to it exactly: one engine call over the beta^m rows."""
    beta, theta = _choice("beta", beta, (2, 4)), _real("theta", theta, -_THETA_MAX, _THETA_MAX)
    exponents = [_whole("exponent", a, 0, _EXPONENT_MAX)
                 for a in np.ravel(np.asarray(exponents, object))]
    m = _whole("the number of exponents", len(exponents), 0, 3)
    if m > beta:
        return 0.0 + 0.0j
    # each t_i over the beta-th roots of unity, exact at beta = 2, 4: one row per choice
    roots = [1j ** (4 * k // beta) for k in range(beta)]
    ts = np.array(list(itertools.product(roots, repeat=m)), dtype=complex).reshape(beta ** m, m)
    rows = lambda u: np.exp(1j * theta * u) * (1.0 + ts @ u ** np.reshape(exponents, (m, 1)))
    total = np.conj(ts.prod(axis=1)) @ _ENGINES[_METHODS[beta][0]](rows, _DEFAULT_ORDER[beta])
    return complex(total / beta ** m)


def _sides(beta: int, theta: float, a, integral):
    """Left and right sides of the moment-integral recurrence for the
    exponents a, a_1 >= 2, through integral(theta, exponents).

    The integration by parts in u_1 pairs, for each other exponent b = a_k and
    j = 1, 2, the term x^A y^b / (x - y), A = a_1 + 1 - j, with its swap:
    (x^A y^b - x^b y^A) / (2 (x - y)) = +-1/2 sum_{i=min}^{max-1} x^i
    y^(A+b-1-i) over min(A, b) <= i < max(A, b), with + when A > b, - when
    A < b, and no terms when A = b. If a_1 > b, both A >= b; otherwise both
    A <= b. So sgn = +1 when a_1 > a_k and -1 otherwise: at an equal pair the
    j = 1 sum is empty and the j = 2 sum, 1/2 I(a_1 - 1, a_1 - 1, rest),
    takes sgn = -1."""
    I = lambda *expo: integral(theta, expo)

    def half(tot, lo, rest):
        # 1/2 sum_{k=lo}^{tot-lo} I(k, tot-k, rest): I is symmetric in its exponents
        return 0.5 * sum(I(k, tot - k, *rest) for k in range(lo, tot - lo + 1))
    a0, rest = a[0], a[1:]
    lhs = -1j * theta * (I(a0 - 1, *rest) - I(*a))
    rhs = 0.0 + 0.0j
    for j in (1, 2):
        rhs += (4.0 / beta) * (-1) ** j * half(a0 - j, 0, rest)
    for idx, ak in enumerate(a[1:], 1):
        sgn = 1.0 if a0 > ak else -1.0
        others = a[1:idx] + a[idx + 1:]
        inner = 0.0 + 0.0j
        for j in (1, 2):
            inner += (-1) ** j * half(a0 + ak - j, min(a0 + 1 - j, ak), others)
        rhs += (4.0 / beta) * sgn * inner
    rhs += (2.0 / beta + a0 - 2) * I(a0 - 2, *rest)
    rhs -= (4.0 / beta + a0 - 2) * I(a0 - 1, *rest)
    return lhs, rhs


def _initial_condition_residual(beta: int, theta: float, integral) -> float:
    """Index reduction I^(m)(0, rest) = (beta - m + 1) I^(m-1)(rest) and the
    power-sum partition identities tying theta-derivatives of the base
    integral, taken spectrally from its values on 16 Chebyshev nodes of
    [theta - 1/2, theta + 1/2], to the distinct-index sums."""
    I = lambda *expo: integral(theta, expo)
    worst = 0.0
    # I^(m) vanishes for m > beta, where the reduction reads 0 = 0
    for rest in ((1,), (2,), (1, 1)):
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


def verify_moment_recurrence(beta: int) -> float:
    """Max residual of the integration-by-parts recurrence over _CASES and
    _THETAS, together with its initial-condition identities. Each distinct
    moment integral is computed once per call: I^(m) is symmetric in its
    exponents, so they are keyed sorted."""
    beta = _choice("beta", beta, (2, 4))
    cached = lru_cache(maxsize=None)(lambda theta, expo: moment_integral(beta, theta, expo))
    integral = lambda theta, expo: cached(theta, tuple(sorted(expo)))
    worst = 0.0
    for th, case in itertools.product(_THETAS, _CASES):
        lhs, rhs = _sides(beta, th, case, integral)
        worst = max(worst, abs(lhs - rhs))
    return max(worst, _initial_condition_residual(beta, _THETAS[0], integral))


# ---------------------------------------------------------------------------
# Leading small-s coefficient of xi^k at finite N

def leading_xi_coefficient_exact(k: int, beta: int, N) -> tuple[Fraction, int]:
    """(r, p): the coefficient r pi^p of xi^k s^(k + p), p = kappa (k+2)(k+1),
    that leads the xi^k term of the spacing function at finite N, for k <= 62
    and beta in {2, 4, 6}; exact at any real N (a float enters as the rational
    it holds) of magnitude and denominator at most 10^7."""
    k, beta = _whole("k", k, 0, _POINTS_MAX - 2), _choice("beta", beta, _METHODS)
    _real("N", N)
    N = F(int(N)) if isinstance(N, np.integer) else F(N)
    if abs(N) > _EXACT_N_MAX or N.denominator > _EXACT_N_MAX:
        raise ValueError(f"N must be at most {_EXACT_N_MAX} in magnitude and in "
                         f"denominator, got {N}")
    kap, n = beta // 2, k + 2
    if not n < N / 2:
        raise ValueError("need k + 2 < N/2")
    pi_pow = kap * (k + 2) * (k + 1)
    out = F((-1) ** k * 2 ** pi_pow, math.factorial(k)) * selberg_exact(k, beta, beta, kap)
    out *= F(math.factorial(kap)) ** n / math.factorial(n * kap)
    for j in range(1, n):
        out *= F(math.factorial(kap * j), math.factorial(kap * (n + j)))
    # evenness_factor / N^pi_pow, in which q^pi_pow cancels
    return out * F(_evenness_product(n, kap, N.numerator, N.denominator),
                   N.numerator ** pi_pow), pi_pow


def rho2_correction_limit(beta: int, x: float) -> float:
    """Closed-form 1/N^2 coefficient in unit-density variables for beta = 2, 4
    (cross-check target for the Richardson route)."""
    return _rho2_density_one(_choice("beta", beta, (2, 4)), 1, x)
