"""Quadrature rules, the sine integral, the digamma function, Chebyshev spectral
differentiation, and the one engine that checks every correction-to-limit
identity, shared by the other modules. numpy and the standard library only."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# Each Gauss rule is built once per order (and Jacobi exponents) and shared as
# read-only arrays. A Legendre entry holds the nodes and weights on (-1, 1),
# mapped per call so that callers whose intervals vary share the entry of each
# order, and the rule on (0, 1), which the quadrature engines ask for by the
# thousand and which is returned as is.
@lru_cache(maxsize=32)
def _legendre(n: int):
    x, w = _read_only(*leggauss(n))
    return x, w, QuadratureRule(*_read_only(0.5 * x + 0.5, 0.5 * w))


def _jacobi_p(n: int, al: float, be: float, x):
    """P_n and (1 - x^2) P_n' of the Jacobi family for the weight
    (1-x)^al (1+x)^be, by the three-term recurrence (n >= 1)."""
    ab = al + be
    k = np.arange(2, n + 1)
    c = 2 * k + ab
    den = 2 * k * (k + ab) * (c - 2)
    # P_k = a_k(x) P_{k-1} - u_k P_{k-2}, with a_k(x) linear in x
    a = np.multiply.outer((c - 1) * c * (c - 2) / den, x) + ((c - 1) * (al * al - be * be) / den)[:, None]
    u = (2 * (k + al - 1) * (k + be - 1) * c / den).tolist()
    prev, cur = np.ones_like(x), (al + 1.0) + (ab + 2.0) * (x - 1.0) / 2.0
    for a_k, u_k in zip(a, u):
        prev, cur = cur, a_k * cur - u_k * prev
    c = 2 * n + ab
    return cur, (n * (al - be - c * x) * cur + 2 * (n + al) * (n + be) * prev) / c


@lru_cache(maxsize=32)
def _jacobi(n: int, a_exp: float, b_exp: float) -> QuadratureRule:
    """Golub-Welsch (Math. Comp. 23 (1969) 221) for the weight
    (1-x)^b_exp (1+x)^a_exp on (-1, 1), one Newton step on the nodes, weights
    from 1/((1-x)(1+x) P_n'^2); then u = (1+x)/2."""
    al, be = b_exp, a_exp
    ab = al + be
    k = np.arange(1, n)
    c = 2 * k + ab
    diag = np.concatenate(([(be - al) / (ab + 2)], (be * be - al * al) / (c * (c + 2))))
    k, c = k[1:], c[1:]
    # the first entry in closed form: the general one is 0/0 at al + be = -1,
    # the beta = 4 weight
    off2 = np.concatenate(([4 * (1 + al) * (1 + be) / ((2 + ab) ** 2 * (3 + ab))],
                           4 * k * (k + al) * (k + be) * (k + ab) / (c * c * (c + 1) * (c - 1))))
    off2 = off2[:n - 1]
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off2), 1), UPLO="U")
    p, dp = _jacobi_p(n, al, be, x)
    x = x - (1 - x * x) * p / dp
    p, dp = _jacobi_p(n, al, be, x)
    w = (1 - x * x) / dp ** 2
    mass = math.exp(math.lgamma(a_exp + 1) + math.lgamma(b_exp + 1) - math.lgamma(a_exp + b_exp + 2))
    return QuadratureRule(*_read_only((x + 1.0) / 2.0, w * (mass / w.sum())))


def _whole(name: str, v) -> int:
    """v as an int, if it is an integer (int, numpy integer or integral float)."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, (float, np.floating)) and math.isfinite(v) and v == int(v):
        return int(v)
    raise ValueError(f"{name} must be an integer, got {v!r}")


def gauss_legendre(n: int, lo: float, hi: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on (lo, hi); the arrays are read-only."""
    n = _whole("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"bad interval ({lo}, {hi})")
    x, w, unit = _legendre(n)
    if (lo, hi) == (0.0, 1.0):
        return unit
    half = 0.5 * (hi - lo)
    return QuadratureRule(*_read_only(half * x + 0.5 * (hi + lo), half * w))


def gauss_jacobi(n: int, a_exp: float, b_exp: float) -> QuadratureRule:
    """n-point Gauss-Jacobi rule on (0, 1) for the weight u^a_exp (1-u)^b_exp;
    the arrays are read-only."""
    n = _whole("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (math.isfinite(a_exp) and math.isfinite(b_exp)) or a_exp <= -1 or b_exp <= -1:
        raise ValueError(f"exponents must be finite and exceed -1, got ({a_exp}, {b_exp})")
    return _jacobi(n, float(a_exp), float(b_exp))


# ---------------------------------------------------------------------------
# The sine integral, piece by piece. On the piece [c - h, c + h] of |x|,
#   Si = alpha + P0(s) cos|x| + P1(s) sin|x|,   s = (|x| - c)/h,
# with P0, P1 polynomials of degree _SI_TERMS - 1. Below 2.25 (pieces of
# half-width 1/4 centred at 0, 1/2, ..., 2) alpha = 0, P0 = Si cos, P1 = Si sin,
# both entire. Above, four pieces an octave up to 2^57, past which Si rounds to
# pi/2: alpha = pi/2, P0 = -f, P1 = -g with g - i f = e^{ix} E1(ix), the
# auxiliary functions. Each polynomial interpolates its function at Chebyshev
# points: Si from its power series; g - i f from the continued fraction of
# e^z E1(z) below 64 and from the asymptotic series above. Every element takes
# the same fixed sequence of operations, so an array gives the bits of the
# scalar calls.
_SI_TERMS = 16
# coefficient j of both rows sits at row _SI_SLOT[j] of the table, in
# bit-reversed order, so that each halving step of Estrin's scheme pairs two
# contiguous blocks
_SI_SLOT = [int(f"{j:04b}"[::-1], 2) for j in range(_SI_TERMS)]


def _si_table():
    d = _SI_TERMS
    s = np.cos(np.pi * (np.arange(d) + 0.5) / d)
    top = 2.25 * 2.0 ** (np.arange(225) / 4.0)
    c = np.concatenate((np.arange(5) / 2.0, (top[1:] + top[:-1]) / 2))
    h = np.concatenate((np.full(5, 0.25), (top[1:] - top[:-1]) / 2))
    x = c[:, None] + h[:, None] * s
    vals = np.empty((2,) + x.shape)
    near = x[:5]
    si = np.zeros_like(near)
    for k in range(25, -1, -1):
        si = si * -near * near + 1.0 / ((2 * k + 1) * math.factorial(2 * k + 1))
    si *= near
    vals[:, :5] = si * np.cos(near), si * np.sin(near)
    far = x[5:]
    gf = np.empty(far.shape, complex)                     # g - i f
    low = far < 64.0
    z, t = 1j * far[low], 0.0
    for k in range(100, 0, -1):
        t = k * k / (z + 2 * k + 1 - t)
    gf[low] = 1.0 / (z + 1 - t)
    y = -1.0 / far[~low] ** 2
    f = g = 0.0
    for k in range(10, -1, -1):
        f, g = f * y + math.factorial(2 * k), g * y + math.factorial(2 * k + 1)
    gf[~low] = -g * y - 1j * f / far[~low]
    vals[:, 5:] = gf.imag, -gf.real
    # coef[j, row, piece]: the interpolants in powers of s
    coef = np.linalg.solve(np.vander(s, increasing=True), vals.transpose(2, 0, 1).reshape(d, -1))
    coef = coef.reshape(d, 2, -1)
    coef[0::2, 0, 0] = coef[1::2, 1, 0] = 0.0   # parities at 0, so that Si(0) = 0
    table = np.vstack((coef[np.argsort(_SI_SLOT)].reshape(2 * d, -1),
                       np.where(c < 2.25, 0.0, np.pi / 2), c, 1.0 / h))
    return _read_only(table)[0], np.concatenate((c[:5] + 0.25, top[1:-1])), c[-1]


_SI_TABLE, _SI_EDGES, _SI_TOP = _si_table()


def sine_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x, to 1e-15 absolute."""
    x = np.asarray(x, float)
    ax = np.minimum(np.abs(x), _SI_TOP).ravel()
    t = _SI_TABLE.take(np.searchsorted(_SI_EDGES, ax, side="right"), axis=1, mode="clip")
    s = (ax - t[-2]) * t[-1]
    p = t[:-3].reshape(_SI_TERMS, 2, -1)
    for half in (8, 4, 2):              # Estrin's scheme
        p = p[:half] + p[half:] * s
        s = s * s
    p = p[0] + p[1] * s
    si = t[-3] + p[0] * np.cos(ax) + p[1] * np.sin(ax)
    return np.copysign(si.reshape(x.shape), x)[()]


# B_2k/(2k) of the asymptotic series, highest k first
_PSI_ASYMPTOTIC = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def _psi_parts(x: float):
    """(y, r) with psi(x) = log(y) + r: the upward recurrence to y >= 16, then
    the asymptotic series."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"digamma needs finite x > 0, got {x}")
    r = 0.0
    if x < 16.0:
        terms = []
        while x < 16.0:
            terms.append(-1.0 / x)
            x += 1.0
        r = math.fsum(terms)
    y = 1.0 / (x * x)
    tail = 0.0
    for b in _PSI_ASYMPTOTIC:
        tail = tail * y + b
    return x, r - 0.5 / x - tail * y


def digamma(x: float, minus: float | None = None) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for finite x > 0; given minus, psi(x) -
    psi(minus), formed without the cancellation of subtracting the two."""
    y, r = _psi_parts(float(x))
    if minus is None:
        return math.log(y) + r
    y0, r0 = _psi_parts(float(minus))
    return math.log1p((y - y0) / y0) + (r - r0)


# ---------------------------------------------------------------------------
# Chebyshev spectral differentiation (second-kind points, barycentric form)

def chebyshev_points(n: int, lo: float, hi: float) -> np.ndarray:
    """n Chebyshev points of the second kind on [lo, hi], ascending."""
    if n < 2:
        raise ValueError("need at least 2 points")
    theta = np.arange(n) * np.pi / (n - 1)
    x = np.cos(theta)[::-1]
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo)


def chebyshev_diff_matrix(n: int, lo: float, hi: float) -> np.ndarray:
    """Differentiation matrix acting on samples at chebyshev_points(n, lo, hi)."""
    if n < 2:
        raise ValueError("need at least 2 points")
    m = n - 1
    x = np.cos(np.arange(n) * np.pi / m)     # descending standard ordering
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    D = D[::-1, ::-1]                        # ascending node ordering
    return D * (2.0 / (hi - lo))


def spectral_derivative(values, order: int, lo: float, hi: float) -> np.ndarray:
    """Derivative of samples given on the Chebyshev grid over [lo, hi]."""
    v = np.asarray(values, float)
    if v.size < 4:
        raise ValueError("need at least 4 Chebyshev samples")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    D = chebyshev_diff_matrix(v.size, lo, hi)
    if order == 2:
        D = D @ D
    return D @ v


def inverse_square_fit(Ns, values) -> np.ndarray:
    """Coefficients c_0, ..., c_{k-1} of sum_r c_r N^(-2r) through the k pairs
    (N, value): the exact Richardson fit in powers of 1/N^2."""
    h = 1.0 / np.asarray(Ns, float) ** 2
    return np.linalg.solve(np.vander(h, h.size, increasing=True), np.asarray(values))


def correction_factor(beta):
    """-1/(6 beta): the factor that ties each first 1/N^2 correction to a second
    derivative of its limit; exact when beta is a Fraction."""
    return -1 / (6 * beta)


def correction_residual(q0, q1, c, lo: float, hi: float, grid, n_cheb: int,
                        outer: int, inner: int) -> float:
    """Max over grid of |Q_1 - c x^outer (d^2/dx^2)(x^inner Q_0)|.

    q0 and q1 map the array of n_cheb Chebyshev points on [lo, hi] to samples
    of Q_0 and Q_1; the residual is formed there and interpolated to grid.
    """
    xs = chebyshev_points(n_cheb, lo, hi)
    d2 = spectral_derivative(xs ** inner * q0(xs), 2, lo, hi)
    resid = q1(xs) - c * xs ** outer * d2
    return float(np.max(np.abs(chebyshev_interpolate(resid, lo, hi, grid))))


def chebyshev_interpolate(values, lo: float, hi: float, x):
    """Barycentric evaluation of the Chebyshev interpolant at x (scalar or array)."""
    v = np.asarray(values, float)
    n = v.size
    nodes = chebyshev_points(n, lo, hi)
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    xq = np.atleast_1d(np.asarray(x, float))
    diff = xq[:, None] - nodes[None, :]
    hit = np.isclose(diff, 0.0, atol=1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = w[None, :] / diff
        num = np.nansum(np.where(np.isfinite(r), r, 0.0) * v[None, :], axis=1)
        den = np.nansum(np.where(np.isfinite(r), r, 0.0), axis=1)
    # a query within 1e-14 of a node takes that (first) node's sample
    out = np.where(hit.any(axis=1), v[hit.argmax(axis=1)], num / den)
    return out if np.ndim(x) else float(out[0])
