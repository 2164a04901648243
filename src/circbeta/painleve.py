"""Nonlinear-ODE route to the beta = 2 gap generating function: integrate the
second-order sigma transcendent through its differentiated third-order form
by a Taylor-series method, build the first-correction transcendent from the
proved algebraic relation, and exponentiate the tau-function integrals.

The third-order form is polynomial once multiplied by t^2, so each step's
Taylor coefficients follow from a recursion in plain floats; the step
polynomials are kept and serve as piecewise-polynomial dense output."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np


class IntegrationFailure(RuntimeError):
    """ODE integration broke down; ``t_last`` holds the last good abscissa."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


# Exact series coefficients of sigma_0 at t = 0 as polynomials in xi over
# powers of pi: each coefficient is a dict {(xi_power, pi_power): Fraction}
# with the value sum Frac * xi^a / pi^b.


def _poly_mul(p, q):
    out = {}
    for (a1, b1), f1 in p.items():
        for (a2, b2), f2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + f1 * f2
    return {k: v for k, v in out.items() if v != 0}


def _poly_add(p, q, scale=Fraction(1)):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, Fraction(0)) + scale * v
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _sigma0_coeffs_exact(n_max: int):
    """Taylor coefficients c_1 .. c_n_max solving
    (t c'')^2 + 4 (t c' - c)(t c' - c + (c')^2) = 0 order by order."""
    c = [dict() for _ in range(n_max + 1)]
    if n_max >= 1:
        c[1] = {(1, 1): Fraction(-1)}
    if n_max >= 2:
        c[2] = {(2, 2): Fraction(-1)}
    for n in range(3, n_max + 1):
        rest = {}
        # (t sigma'')^2 at t^n: j + k = n + 2 with j, k >= 2, excluding the
        # c_n cross terms (j, k) = (2, n), (n, 2)
        for j in range(2, n + 1):
            k = n + 2 - j
            if 2 <= k <= n and not (j == 2 and k == n) and not (j == n and k == 2):
                term = _poly_mul(c[j], c[k])
                rest = _poly_add(rest, term, Fraction(j * (j - 1) * k * (k - 1)))
        # 4 A^2 at t^n, A_k = (k - 1) c_k
        for j in range(2, n - 1):
            k = n - j
            if k >= 2:
                rest = _poly_add(rest, _poly_mul(c[j], c[k]),
                                 Fraction(4 * (j - 1) * (k - 1)))
        # 4 A B at t^n, B = (sigma')^2; skip the linear (p, j, k) = (n, 1, 1)
        for p in range(2, n + 1):
            for j in range(1, n + 2 - p):
                k = n + 2 - p - j
                if k < 1 or (p == n and j == k == 1):
                    continue
                term = _poly_mul(c[p], _poly_mul(c[j], c[k]))
                rest = _poly_add(rest, term, Fraction(4 * (p - 1) * j * k))
        # linear coefficient of c_n is -4 (n-1)^2 c_1^2 = -4 (n-1)^2 xi^2/pi^2
        cn = {}
        for (a, b), f in rest.items():
            cn[(a - 2, b - 2)] = f / (4 * (n - 1) ** 2)
        c[n] = cn
    return tuple(tuple(sorted(ci.items())) for ci in c)


def _eval_poly(items, xi: float) -> float:
    return sum(float(f) * xi ** a / math.pi ** b for (a, b), f in items)


def sigma0_series(xi: float, n_terms: int) -> np.ndarray:
    """Taylor coefficients [c_0 .. c_n_terms] of the gap transcendent at t = 0."""
    if n_terms < 2:
        raise ValueError("need n_terms >= 2")
    if n_terms > 12:
        raise ValueError("coefficients beyond order 12 are unreliable in "
                         "double precision; refusing")
    coeffs = _sigma0_coeffs_exact(n_terms)
    return np.array([_eval_poly(ci, xi) for ci in coeffs])


@lru_cache(maxsize=None)
def sigma1_series_exact(n_max: int):
    """Exact Taylor coefficients of -(1/12)(2 t s s' + t^2 s'') from the
    sigma_0 series, same dict-of-monomials representation."""
    c = [dict(ci) for ci in _sigma0_coeffs_exact(n_max)]
    out = [dict() for _ in range(n_max + 1)]
    for a in range(1, n_max + 1):
        for b in range(1, n_max + 1 - a):
            # 2 t sigma sigma' contributes 2 b c_a c_b at t^(a+b)
            out[a + b] = _poly_add(out[a + b], _poly_mul(c[a], c[b]), Fraction(2 * b))
    for a in range(2, n_max + 1):
        out[a] = _poly_add(out[a], c[a], Fraction(a * (a - 1)))
    return tuple(tuple(sorted(
        ((k, -v / 12) for k, v in oi.items() if v != 0))) for oi in out)


def sigma1_series(xi: float, n_terms: int) -> np.ndarray:
    return np.array([_eval_poly(ci, xi) for ci in sigma1_series_exact(n_terms)])


@dataclass(frozen=True)
class SigmaSolution:
    xi: float
    grid: np.ndarray
    sigma0: np.ndarray
    sigma0_prime: np.ndarray
    sigma0_doubleprime: np.ndarray
    ode_residual: np.ndarray
    t0: float
    sigma1: np.ndarray | None = None
    # dense output of (sigma_0, sigma_0', sigma_0'', int sigma_0/t, int sigma_1/t):
    # the Taylor polynomial of the step that holds t
    _dense: object = field(repr=False, default=None)

    @property
    def t_max(self) -> float:
        return float(self.grid[-1])


def _residual_d1y(t, s, sp, spp):
    return (t * spp) ** 2 + 4.0 * (t * sp - s) * (t * sp - s + sp * sp)


# interior abscissae of each accepted step, as fractions of the step, at which
# the dense output is checked against the second-order equation
_CHECK_FRACTIONS = np.arange(1, 9) / 9.0

# Taylor order of each step. The recursion divides by c^2, so its parasitic
# solutions are singular at t = 0 and grow beyond a step of about c: steps stay
# within _THETA * c. _MAX_STEPS bounds the work of one solve.
_ORDER = 28
_THETA = 0.5
_MAX_STEPS = 500


def _sigma_taylor(c: float, y, order: int) -> np.ndarray:
    """Taylor coefficients in h = t - c, through h^order, of the five states
    (sigma_0, sigma_0', sigma_0'', int sigma_0/t, int sigma_1/t) from their
    values y at t = c.

    sigma_0 solves t^2 s''' + t s'' + 6 t s'^2 + 4 t^2 s' - 4 t s - 4 s s' = 0,
    polynomial in t = c + h, so the h^k coefficient of s''' follows from those
    of lower order through the Cauchy products s'^2 and s s'."""
    # h^k coefficients of s, s', s'', s''', s'^2 and s s' sit at index k + 2
    # behind two zeros, so the shifted terms of t = c + h need no case split
    y = [float(v) for v in y]
    n = order + 5
    a, d1, d2, d3, p, q = ([0.0] * n for _ in range(6))
    a[2], a[3], a[4] = y[0], y[1], 0.5 * y[2]
    d1[2], d1[3], d2[2] = y[1], y[2], y[2]
    cc = c * c
    for k in range(2, order + 2):
        p[k] = sum(map(mul, d1[2:k + 1], d1[k:1:-1]))
        q[k] = sum(map(mul, a[2:k + 1], d1[k:1:-1]))
        d3[k] = -(2.0 * c * d3[k - 1] + d3[k - 2] + c * d2[k] + d2[k - 1]
                  + 6.0 * (c * p[k] + p[k - 1])
                  + 4.0 * (cc * d1[k] + 2.0 * c * d1[k - 1] + d1[k - 2])
                  - 4.0 * (c * a[k] + a[k - 1] + q[k])) / cc
        a[k + 3] = d3[k] / ((k - 1) * k * (k + 1))
        d1[k + 2] = d3[k] / ((k - 1) * k)
        d2[k + 1] = d3[k] / (k - 1)
    # int sigma_0/t: (c + h) I' = sigma_0 gives c (k+1) b_(k+1) + k b_k = a_k
    b = [y[3]]
    for k in range(order):
        b.append((a[k + 2] - k * b[k]) / (c * (k + 1)))
    # int sigma_1/t: I' = -(2 s s' + t s'') / 12
    f = [y[4]] + [-(2.0 * q[k + 2] + c * d2[k + 2] + d2[k + 1]) / (12.0 * (k + 1))
                  for k in range(order)]
    top = order + 3
    return np.array([a[2:top], d1[2:top], d2[2:top], b, f])


def _poly_eval(coeffs: np.ndarray, h):
    """The five states sum_j coeffs[..., :, j] h^j: shape (5,) for a scalar h,
    (5, n) for n abscissae h with coeffs of shape (n, 5, order + 1)."""
    powers = np.power.outer(h, np.arange(coeffs.shape[-1], dtype=float))
    return (coeffs @ powers[..., None])[..., 0].T


def _piecewise_dense(grid: np.ndarray, coeffs: np.ndarray):
    """Dense output from the per-step Taylor polynomials: coeffs[i] holds the
    five states' coefficients in t - grid[i] on [grid[i], grid[i+1]]."""
    def dense(t):
        t = np.asarray(t, float)
        i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(coeffs) - 1)
        return _poly_eval(coeffs[i], t - grid[i])
    return dense


def solve_sigma0(xi: float, t_max: float, tol: float = 1e-12,
                 t0: float = 1e-2, residual_tol: float = 1e-8) -> SigmaSolution:
    """Integrate the third-order form of the sigma equation from series data
    at t0 by Taylor-series steps, monitoring the second-order residual
    pointwise."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if t_max > 6.0 * np.pi:   # at xi = 1 it drifts to another solution past about 8 pi
        raise ValueError("t_max beyond supported range, 6 pi")
    if t_max <= t0 and xi > 0.0:
        raise ValueError("t_max must exceed the series start point")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if xi == 0.0:
        grid = np.linspace(t0, max(t_max, t0), 32)
        z = np.zeros_like(grid)
        return SigmaSolution(0.0, grid, z, z.copy(), z.copy(), z.copy(), t0,
                             _dense=lambda t: np.zeros((5, np.size(t))))
    cs = sigma0_series(xi, 6)
    k = np.arange(cs.size)
    y = np.array([
        np.sum(cs * t0 ** k),
        np.sum(k[1:] * cs[1:] * t0 ** (k[1:] - 1)),
        np.sum(k[2:] * (k[2:] - 1) * cs[2:] * t0 ** (k[2:] - 2)),
        _series_integral(xi, t0, 0),
        _series_integral(xi, t0, 1),
    ])
    # sigma_0, its first two derivatives and the two tau-function integrals,
    # one Taylor polynomial per step; each step keeps the last two terms of
    # every state's series below tol relative to the state
    grid, blocks = [t0], []
    c = t0
    while c < t_max:
        if len(blocks) == _MAX_STEPS:
            raise IntegrationFailure(f"step count reached {_MAX_STEPS}", c)
        coeffs = _sigma_taylor(c, y, _ORDER)
        scale = tol * np.maximum(1.0, np.abs(y))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h = min(float(np.min((scale / np.abs(coeffs[:, j])) ** (1.0 / j)))
                    for j in (_ORDER - 1, _ORDER))
        h = min(h, _THETA * c, t_max - c)
        if not h > 1e-8 * c:    # also catches a nan from overflowing coefficients
            raise IntegrationFailure(f"step size collapsed at t = {c}", c)
        y = _poly_eval(coeffs, h)
        c = t_max if t_max - c == h else c + h
        grid.append(c)
        blocks.append(coeffs)
    t, blocks = np.array(grid), np.array(blocks)
    s0, sp, spp = np.vstack([blocks[:, :3, 0], y[:3]]).T
    dense = _piecewise_dense(t, blocks)
    resid = _residual_d1y(t, s0, sp, spp)
    inner = (t[:-1, None] + np.diff(t)[:, None] * _CHECK_FRACTIONS).ravel()
    checked = np.concatenate([t, inner])
    bad = np.abs(np.concatenate([resid, _residual_d1y(inner, *dense(inner)[:3])])) \
        > residual_tol
    if np.any(bad):
        raise IntegrationFailure("sigma residual exceeded tolerance",
                                 float(np.min(checked[bad])))
    return SigmaSolution(xi, t, s0, sp, spp, resid, t0, _dense=dense)


def sigma1_from_sigma0(sol: SigmaSolution) -> SigmaSolution:
    """Fill sigma_1 = -(2 t s s' + t^2 s'') / 12 pointwise."""
    t = sol.grid
    s1 = -(2.0 * t * sol.sigma0 * sol.sigma0_prime + t * t * sol.sigma0_doubleprime) / 12.0
    return SigmaSolution(sol.xi, t, sol.sigma0, sol.sigma0_prime,
                         sol.sigma0_doubleprime, sol.ode_residual, sol.t0, s1,
                         _dense=sol._dense)


def _series_integral(xi: float, t0: float, order: int) -> float:
    coeffs = sigma0_series(xi, 8) if order == 0 else sigma1_series(xi, 8)
    k = np.arange(1, coeffs.size)
    return float(np.sum(coeffs[1:] * t0 ** k / k))


def e_tau(sol: SigmaSolution, s: float, order: int) -> float:
    """Gap generating function from the tau-function integrals:
    order 0 gives exp int_0^(pi s) sigma_0/t, order 1 gives E_0 times the
    corresponding sigma_1 integral."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if s < 0:
        raise ValueError("s must be nonnegative")
    upper = np.pi * s
    if upper > sol.t_max + 1e-12:
        raise ValueError(f"s = {s} beyond trajectory (t_max = {sol.t_max})")
    if sol.xi == 0.0 or s == 0.0:
        return 1.0 if order == 0 else 0.0
    if upper <= sol.t0:
        i0 = _series_integral(sol.xi, upper, 0)
        i1 = _series_integral(sol.xi, upper, 1) if order else 0.0
    else:
        i0, i1 = sol._dense(upper)[3:]
    e0 = math.exp(i0)
    return e0 if order == 0 else float(e0 * i1)
