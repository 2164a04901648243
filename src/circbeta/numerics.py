"""Quadrature rules, special functions, adaptive ODE integration, and
Chebyshev spectral differentiation shared by the other modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.special import roots_jacobi, sici


class IntegrationFailure(RuntimeError):
    """ODE integration broke down; ``t_last`` holds the last good abscissa."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights of a Gauss rule on (lo, hi).

    ``kind`` is "legendre" (weight 1) or "jacobi" (weight u^a_exp (1-u)^b_exp
    on (0, 1)).
    """

    kind: str
    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray
    a_exp: float = 0.0
    b_exp: float = 0.0

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


def gauss_legendre(n: int, lo: float, hi: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on (lo, hi)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"bad interval ({lo}, {hi})")
    x, w = leggauss(n)
    half = 0.5 * (hi - lo)
    return QuadratureRule("legendre", lo, hi, half * x + 0.5 * (hi + lo), half * w)


def gauss_jacobi(n: int, a_exp: float, b_exp: float) -> QuadratureRule:
    """n-point Gauss-Jacobi rule on (0, 1) for the weight u^a_exp (1-u)^b_exp."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError(f"exponents must exceed -1, got ({a_exp}, {b_exp})")
    # scipy weight is (1-x)^alpha (1+x)^beta on (-1, 1); u = (1+x)/2
    x, w = roots_jacobi(n, b_exp, a_exp)
    return QuadratureRule("jacobi", 0.0, 1.0, (x + 1.0) / 2.0,
                          w / 2.0 ** (a_exp + b_exp + 1.0), a_exp, b_exp)


def clenshaw_curtis(n: int, lo: float, hi: float) -> QuadratureRule:
    """(n+1)-point Clenshaw-Curtis rule on (lo, hi), nodes ascending."""
    if n < 2:
        raise ValueError("need n >= 2 panels")
    j = np.arange(n + 1)
    theta = j * np.pi / n
    x = np.cos(theta)
    w = np.zeros(n + 1)
    for m in range(n + 1):
        acc = 1.0
        for k in range(1, n // 2 + 1):
            b = 1.0 if 2 * k == n else 2.0
            acc -= b * math.cos(2 * k * theta[m]) / (4 * k * k - 1)
        w[m] = 2.0 * acc / n
    w[0] /= 2.0
    w[-1] /= 2.0
    half = 0.5 * (hi - lo)
    return QuadratureRule("legendre", lo, hi, (half * x + 0.5 * (hi + lo))[::-1],
                          (half * w)[::-1])


def sine_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x."""
    return sici(x)[0]


# Bernoulli numbers B_2 .. B_12 for the asymptotic tail of psi
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def digamma(z: float) -> float:
    """psi(z) by upward recurrence to z >= 10 plus the 6-term asymptotic series."""
    z = float(z)
    if z <= 0 and z == round(z):
        raise ValueError(f"digamma pole at z = {z}")
    acc = 0.0
    if z < 0:
        # reflection: psi(1-z) = psi(z) + pi cot(pi z)
        acc = -math.pi / math.tan(math.pi * z)
        z = 1.0 - z
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0
    p = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        tail += b / (2 * k) * p
        p *= inv2
    return acc + math.log(z) - 0.5 / z - tail


def harmonic_number(n: int) -> float:
    return float(np.sum(1.0 / np.arange(1, n + 1)))


@dataclass(frozen=True)
class OdeProblem:
    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    state0: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    states: np.ndarray          # shape (len(t), dimension)
    dense: object = field(repr=False, default=None)

    def __call__(self, t):
        return self.dense(t)


def ode_integrate(problem: OdeProblem, t_end: float, tol: float) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) trajectory with dense output."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    sol = solve_ivp(problem.rhs, (problem.t0, t_end), np.asarray(problem.state0, float),
                    method="RK45", rtol=tol, atol=tol * 1e-2, dense_output=True)
    if not sol.success:
        t_last = float(sol.t[-1]) if sol.t.size else problem.t0
        raise IntegrationFailure(sol.message, t_last)
    return Trajectory(sol.t, sol.y.T, sol.sol)


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
