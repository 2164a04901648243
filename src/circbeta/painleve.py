"""Nonlinear-ODE route to the beta = 2 gap generating function: integrate the
second-order sigma transcendent through its differentiated third-order form
by a Taylor-series method, build the first-correction transcendent from the
proved algebraic relation, and exponentiate the tau-function integrals.

The third-order form is polynomial once multiplied by t^2, so each step's
Taylor coefficients follow from a recursion in plain floats, and at t = 0 an
explicit one gives the first step; the step polynomials are kept and serve as
piecewise-polynomial dense output."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .numerics import _TINY, _choice, _real


class IntegrationFailure(RuntimeError):
    """ODE integration broke down; ``t_last`` holds the last good abscissa."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


def _origin_block(x, order: int):
    """Taylor coefficients at t = 0, through t^order, of the five states
    (sigma_0, sigma_0', sigma_0'', int_0^t sigma_0/t, int_0^t sigma_1/t) of the
    solution with sigma_0 = -x t + O(t^2), x = xi/pi, as five lists.

    At t = 0 the third-order form (see _sigma_taylor) gives the explicit
    recursion (m+1) m^2 a_(m+1) = 4 Q_m - 6 P_(m-1) - 4 (m-2) a_(m-1), with
    a_0 = 0, a_1 = -x and P_k, Q_k the t^k coefficients of sigma_0'^2 and
    sigma_0 sigma_0'. It never divides by x, and it runs in plain arithmetic,
    so an exact rational x gives exact coefficients."""
    a, d, q = [0, -x], [-x], [0]    # sigma_0, sigma_0' and sigma_0 sigma_0'
    for m in range(1, order + 2):
        p = sum(map(mul, d[:m], d[m - 1::-1]))
        q.append(sum(map(mul, a[1:m + 1], d[m - 1::-1])))
        a.append((4 * q[m] - 6 * p - 4 * (m - 2) * a[m - 1]) / ((m + 1) * m * m))
        d.append((m + 1) * a[m + 1])
    k = range(1, order + 1)
    # sigma_1 / t = -(2 sigma_0 sigma_0' + t sigma_0'') / 12
    return [a[:order + 1], d[:order + 1],
            [(j + 1) * d[j + 1] for j in range(order + 1)],
            [0] + [a[j] / j for j in k],
            [0] + [-(2 * q[j - 1] + (j - 1) * d[j - 1]) / (12 * j) for j in k]]


@dataclass(frozen=True)
class SigmaSolution:
    xi: float
    grid: np.ndarray
    sigma0: np.ndarray
    sigma0_prime: np.ndarray
    sigma0_doubleprime: np.ndarray
    ode_residual: np.ndarray
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

# Taylor order of each step. Away from t = 0 the recursion divides by c^2, so
# its parasitic solutions are singular at t = 0 and grow beyond a step of about
# c: steps after the first stay within _THETA * c. Each step keeps the last two
# terms of its series below _TOL relative to the states; the second-order
# residual must stay below _RESIDUAL_TOL. _MAX_STEPS bounds the work of one solve.
_ORDER = 28
_THETA = 0.5
_TOL = 1e-12
_RESIDUAL_TOL = 1e-8
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


def solve_sigma0(xi: float, t_max: float) -> SigmaSolution:
    """Integrate the third-order form of the sigma equation from its Taylor
    block at t = 0 by Taylor-series steps, monitoring the second-order
    residual pointwise; xi in [0, 1] and t_max in (0, 6 pi]."""
    # at xi = 1 the solution drifts to another one past about t = 8 pi
    xi, t_max = _real("xi", xi, 0.0, 1.0), _real("t_max", t_max, _TINY, 6.0 * np.pi)
    # sigma_0, its first two derivatives and the two tau-function integrals,
    # one Taylor polynomial per step, the first about t = 0
    coeffs = np.array(_origin_block(xi / math.pi, _ORDER), float)
    grid, blocks = [0.0], []
    c = 0.0
    while True:
        scale = _TOL * np.maximum(1.0, np.abs(coeffs[:, 0]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h = min(float(np.min((scale / np.abs(coeffs[:, j])) ** (1.0 / j)))
                    for j in (_ORDER - 1, _ORDER))
        if c > 0.0:     # the series at t = 0 has no parasitic solutions
            h = min(h, _THETA * c)
        h = min(h, t_max - c)
        if not h > 1e-8 * c:    # also catches a nan from overflowing coefficients
            raise IntegrationFailure(f"step size collapsed at t = {c}", c)
        y = _poly_eval(coeffs, h)
        c = t_max if t_max - c == h else c + h
        grid.append(c)
        blocks.append(coeffs)
        if c >= t_max:
            break
        if len(blocks) == _MAX_STEPS:
            raise IntegrationFailure(f"step count reached {_MAX_STEPS}", c)
        coeffs = _sigma_taylor(c, y, _ORDER)
    t, blocks = np.array(grid), np.array(blocks)
    s0, sp, spp = np.vstack([blocks[:, :3, 0], y[:3]]).T
    dense = _piecewise_dense(t, blocks)
    resid = _residual_d1y(t, s0, sp, spp)
    inner = (t[:-1, None] + np.diff(t)[:, None] * _CHECK_FRACTIONS).ravel()
    checked = np.concatenate([t, inner])
    bad = np.abs(np.concatenate([resid, _residual_d1y(inner, *dense(inner)[:3])])) \
        > _RESIDUAL_TOL
    if np.any(bad):
        raise IntegrationFailure("sigma residual exceeded tolerance",
                                 float(np.min(checked[bad])))
    return SigmaSolution(xi, t, s0, sp, spp, resid, _dense=dense)


def sigma1_from_sigma0(sol: SigmaSolution) -> SigmaSolution:
    """Fill sigma_1 = -(2 t s s' + t^2 s'') / 12 pointwise."""
    if not isinstance(sol, SigmaSolution):
        raise TypeError(f"sol must be a SigmaSolution, got {sol!r}")
    t = sol.grid
    s1 = -(2.0 * t * sol.sigma0 * sol.sigma0_prime + t * t * sol.sigma0_doubleprime) / 12.0
    return SigmaSolution(sol.xi, t, sol.sigma0, sol.sigma0_prime,
                         sol.sigma0_doubleprime, sol.ode_residual, s1,
                         _dense=sol._dense)


def e_tau(sol: SigmaSolution, s: float, order: int) -> float:
    """Gap generating function from the tau-function integrals:
    order 0 gives exp int_0^(pi s) sigma_0/t, order 1 gives E_0 times the
    corresponding sigma_1 integral; s from 0 to the end of sol's trajectory."""
    if not isinstance(sol, SigmaSolution):
        raise TypeError(f"sol must be a SigmaSolution, got {sol!r}")
    s, order = _real("s", s, 0.0), _choice("order", order, (0, 1))
    upper = np.pi * s
    if upper > sol.t_max + 1e-12:
        raise ValueError(f"s = {s} beyond trajectory (t_max = {sol.t_max})")
    i0, i1 = sol._dense(upper)[3:]
    e0 = math.exp(i0)
    return e0 if order == 0 else float(e0 * i1)
