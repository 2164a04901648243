"""Quadrature rules, the sine integral, Chebyshev spectral differentiation,
and the one engine that checks every correction-to-limit identity, shared by
the other modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# roots_jacobi loads scipy.linalg on its first call (about 60 ms); loading it
# with this module keeps that cost out of the first Gauss-Jacobi rule of a run
import scipy.linalg  # noqa: F401
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi, sici


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


@lru_cache(maxsize=32)
def _jacobi(n: int, a_exp: float, b_exp: float) -> QuadratureRule:
    # scipy weight is (1-x)^alpha (1+x)^beta on (-1, 1); u = (1+x)/2
    x, w = roots_jacobi(n, b_exp, a_exp)
    return QuadratureRule(*_read_only((x + 1.0) / 2.0, w / 2.0 ** (a_exp + b_exp + 1.0)))


def gauss_legendre(n: int, lo: float, hi: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on (lo, hi); the arrays are read-only."""
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError(f"exponents must exceed -1, got ({a_exp}, {b_exp})")
    return _jacobi(n, a_exp, b_exp)


def sine_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x."""
    return sici(x)[0]


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
