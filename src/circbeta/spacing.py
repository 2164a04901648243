"""Spacing-distribution generating functions from the gap data, golden
small-s series tables in exact rational-pi arithmetic (at beta = 2, those of
the spacing function are derived from the gap series), the Wigner-surmise
approximation, and the exact series form of the correction-to-limit identity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import correlations, gap
from .numerics import (_choice, _real, chebyshev_interpolate, chebyshev_points,
                       correction_factor, spectral_derivative)

F = Fraction

# Each term is (s_power, xi_power, pi_power, nu_power, rational coefficient),
# where nu stands for 1/N^2; evaluation is exact until the final float cast.
Term = tuple[int, int, int, int, Fraction]


@dataclass(frozen=True)
class SeriesTable:
    name: str
    terms: tuple[Term, ...]

    def __call__(self, s: float, xi: float = 0.0, N: float | None = None) -> float:
        """The series at s, xi and N >= 1 (N None for the limit)."""
        s, xi = _real("s", s), _real("xi", xi)
        nu = 0.0 if N is None else 1.0 / _real("N", N, 1.0) ** 2
        total = 0.0
        for sp, xp, pp, np_, frac in self.terms:
            total += float(frac) * s ** sp * xi ** xp * math.pi ** pp * nu ** np_
        return total

    def s_squared(self) -> "SeriesTable":
        return SeriesTable(self.name + "*s^2",
                           tuple((sp + 2, xp, pp, np_, frac)
                                 for sp, xp, pp, np_, frac in self.terms))

    def second_derivative(self) -> "SeriesTable":
        return SeriesTable(self.name + "''",
                           tuple((sp - 2, xp, pp, np_, frac * sp * (sp - 1))
                                 for sp, xp, pp, np_, frac in self.terms
                                 if sp >= 2 and frac != 0))

    def scaled(self, factor: Fraction) -> "SeriesTable":
        return SeriesTable(self.name,
                           tuple((sp, xp, pp, np_, frac * factor)
                                 for sp, xp, pp, np_, frac in self.terms))

    def coefficients_through(self, max_s_power: int):
        """Canonical {(s, xi, pi, nu): Fraction} map of all terms up to s^max."""
        out = {}
        for sp, xp, pp, np_, frac in self.terms:
            if sp <= max_s_power and frac != 0:
                key = (sp, xp, pp, np_)
                out[key] = out.get(key, F(0)) + frac
        return {k: v for k, v in out.items() if v != 0}


# Gap generating function of the finite-N circular unitary ensemble,
# bulk variables, through s^11; nu-polynomials stored expanded.
E_CUE_SMALL_S = SeriesTable("e_cue_small_s", (
    (0, 0, 0, 0, F(1)),
    (1, 1, 0, 0, F(-1)),
    (4, 2, 2, 0, F(1, 36)), (4, 2, 2, 1, F(-1, 36)),
    (6, 2, 4, 0, F(-2, 1350)), (6, 2, 4, 1, F(5, 1350)), (6, 2, 4, 2, F(-3, 1350)),
    (8, 2, 6, 0, F(3, 52920)), (8, 2, 6, 1, F(-14, 52920)),
    (8, 2, 6, 2, F(21, 52920)), (8, 2, 6, 3, F(-10, 52920)),
    (9, 3, 6, 0, F(-1, 291600)), (9, 3, 6, 1, F(6, 291600)),
    (9, 3, 6, 2, F(-9, 291600)), (9, 3, 6, 3, F(4, 291600)),
    (10, 2, 8, 0, F(-2, 1275750)), (10, 2, 8, 1, F(15, 1275750)),
    (10, 2, 8, 2, F(-42, 1275750)), (10, 2, 8, 3, F(50, 1275750)),
    (10, 2, 8, 4, F(-21, 1275750)),
    (11, 3, 8, 0, F(6, 29767500)), (11, 3, 8, 1, F(-55, 29767500)),
    (11, 3, 8, 2, F(168, 29767500)), (11, 3, 8, 3, F(-195, 29767500)),
    (11, 3, 8, 4, F(76, 29767500)),
))


def _spacing_table(nu: int) -> SeriesTable:
    """The 1/N^(2 nu) part of E_CUE_SMALL_S carried to the spacing function,
    P = E''/xi^2, through s^9."""
    gap_part = SeriesTable("", tuple(t for t in E_CUE_SMALL_S.terms if t[3] == nu))
    terms = gap_part.second_derivative().terms
    return SeriesTable(f"p{nu}_beta2", tuple((sp, xp - 2, pp, 0, frac)
                                             for sp, xp, pp, _, frac in terms))


# The beta = 2 spacing series: the limit and the 1/N^2 and 1/N^4 terms
P0_BETA2, P1_BETA2, P2_BETA2 = (_spacing_table(nu) for nu in range(3))

P0_BETA1 = SeriesTable("p0_beta1", (
    (1, 0, 2, 0, F(1, 6)),
    (3, 0, 4, 0, F(-1, 60)),
    (4, 0, 4, 0, F(2, 270)), (4, 1, 4, 0, F(-1, 270)),
    (5, 0, 6, 0, F(1, 1680)),
    (6, 0, 6, 0, F(-2, 4725)), (6, 1, 6, 0, F(1, 4725)),
    (7, 0, 8, 0, F(-1, 90720)),
    (8, 0, 8, 0, F(64, 5292000)), (8, 1, 8, 0, F(-38, 5292000)),
    (8, 2, 8, 0, F(3, 5292000)),
    (9, 0, 10, 0, F(1, 7983360)),
))

P1_BETA1 = SeriesTable("p1_beta1", (
    (1, 0, 2, 0, F(-1, 6)),
    (3, 0, 4, 0, F(1, 18)),
    (4, 0, 4, 0, F(-2, 54)), (4, 1, 4, 0, F(1, 54)),
    (5, 0, 6, 0, F(-1, 240)),
    (6, 0, 6, 0, F(8, 2025)), (6, 1, 6, 0, F(-4, 2025)),
    (7, 0, 8, 0, F(1, 7560)),
    (8, 0, 8, 0, F(-64, 352800)), (8, 1, 8, 0, F(38, 352800)),
    (8, 2, 8, 0, F(-3, 352800)),
    (9, 0, 10, 0, F(-1, 435456)),
))

# ---------------------------------------------------------------------------
# Spacing generating function from the gap pipelines

# The intervals p_bulk interpolates on, of CHEB_NODES nodes each: the first
# serves every s <= 3, the second every 3 < s <= 6. s stops at 6: against 128
# nodes, over beta = 1, 2, 4, xi = 0.5, 1 and both orders, the 64-node curves
# are off by at most 3e-10 up to s = 6, but by 2.6e-7 up to 8
CHEB_NODES = 64
_SPANS = (1.1 * 3.0, 1.1 * 6.0)
_S_MAX = 6.0


@lru_cache(maxsize=64)
def _p_samples(beta: int, xi: float, s_max: float):
    """(P_0, P_1) samples on the CHEB_NODES Chebyshev nodes of [0, s_max], one
    gap sweep per order; the order-1 sweep reuses the eigensolves of the
    order-0 one."""
    xs = chebyshev_points(CHEB_NODES, 0.0, s_max)
    return tuple(spectral_derivative(gap.e_bulk(beta, order, xs, xi), 2, 0.0, s_max)
                 / xi ** 2 for order in (0, 1))


def p_bulk(beta: int, order: int, s, xi: float):
    """Spacing generating function term P_order(s; xi) = E_order''(s; xi)/xi^2
    at a scalar or an array s in [0, 6], each s interpolated on its own on
    [0, 3.3] (s <= 3) or [0, 6.6] (see _SPANS).

    At xi = 0 the generating function reduces to the two-point correlation,
    which is returned from the closed forms directly.
    """
    beta, order = _choice("beta", beta, (1, 2, 4)), _choice("order", order, (0, 1))
    s, xi = np.asarray(_real("s", s, 0.0, _S_MAX)), _real("xi", xi, 0.0, 1.0)
    if xi == 0.0:
        return correlations._rho2_density_one(beta, order, s)
    out, far = np.empty(s.shape), s > 3.0
    for part, hi in ((~far, _SPANS[0]), (far, _SPANS[1])):
        if part.any():
            out[part] = chebyshev_interpolate(_p_samples(beta, xi, hi)[order], 0.0, hi, s[part])
    return out if out.ndim else float(out)


def spacing_series_residual(beta: int) -> float:
    """Largest |P_1 - c (s^2 P_0)''| over the series coefficients through s^9,
    c = -1/(6 beta); 0.0 when the identity holds term by term, exactly."""
    tables = {2: (P0_BETA2, P1_BETA2), 1: (P0_BETA1, P1_BETA1)}
    p0, p1 = tables[_choice("beta", beta, tables)]
    lhs = p0.s_squared().second_derivative().scaled(correction_factor(F(beta)))
    a, b = lhs.coefficients_through(9), p1.coefficients_through(9)
    return max((abs(float(a.get(key, 0) - b.get(key, 0))) for key in a.keys() | b.keys()
                if a.get(key) != b.get(key)), default=0.0)


# ---------------------------------------------------------------------------
# Wigner surmise and its induced correction

def wigner_surmise(s):
    """32 s^2 exp(-4 s^2/pi) / pi^2: unit-normalized, unit-mean density."""
    s = np.asarray(_real("s", s))
    out = 32.0 * s * s * np.exp(-4.0 * s * s / np.pi) / np.pi ** 2
    return out if out.ndim else float(out)


def surmise_correction(s):
    """c (d^2/ds^2)(s^2 * wigner_surmise(s)), c = correction_factor(2) = -1/12,
    differentiated analytically."""
    s = np.asarray(_real("s", s))
    a = 4.0 / np.pi
    out = correction_factor(2) * 32.0 / np.pi ** 2 * np.exp(-a * s * s) * (
        12.0 * s ** 2 - 18.0 * a * s ** 4 + 4.0 * a * a * s ** 6)
    return out if out.ndim else float(out)
