"""Spacing-distribution generating functions from the gap data, golden
small-s series tables in exact rational-pi arithmetic, the Wigner-surmise
approximation, and the exact series form of the correction-to-limit identity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import correlations, gap
from .numerics import (chebyshev_interpolate, chebyshev_points, correction_factor,
                       spectral_derivative)

F = Fraction

# Each term is (s_power, xi_power, pi_power, nu_power, rational coefficient),
# where nu stands for 1/N^2; evaluation is exact until the final float cast.
Term = tuple[int, int, int, int, Fraction]


@dataclass(frozen=True)
class SeriesTable:
    name: str
    terms: tuple[Term, ...]

    def __call__(self, s: float, xi: float = 0.0, N: float | None = None) -> float:
        nu = 0.0 if N is None else 1.0 / float(N) ** 2
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


def tables_match_through(a: SeriesTable, b: SeriesTable, max_s_power: int) -> bool:
    return a.coefficients_through(max_s_power) == b.coefficients_through(max_s_power)


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

P0_BETA2 = SeriesTable("p0_beta2", (
    (2, 0, 2, 0, F(1, 3)),
    (4, 0, 4, 0, F(-2, 45)),
    (6, 0, 6, 0, F(1, 315)),
    (7, 1, 6, 0, F(-1, 4050)),
    (8, 0, 8, 0, F(-2, 14175)),
    (9, 1, 8, 0, F(11, 496125)),
))

P1_BETA2 = SeriesTable("p1_beta2", (
    (2, 0, 2, 0, F(-1, 3)),
    (4, 0, 4, 0, F(1, 9)),
    (6, 0, 6, 0, F(-2, 135)),
    (7, 1, 6, 0, F(1, 675)),
    (8, 0, 8, 0, F(1, 945)),
    (9, 1, 8, 0, F(-121, 595350)),
))

P2_BETA2 = SeriesTable("p2_beta2", (
    (4, 0, 4, 0, F(-1, 15)),
    (6, 0, 6, 0, F(1, 45)),
    (7, 1, 6, 0, F(-1, 450)),
    (8, 0, 8, 0, F(-2, 675)),
    (9, 1, 8, 0, F(44, 70875)),
))

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

# Chebyshev nodes of the one interval p_bulk interpolates on
CHEB_NODES = 64


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
    at a scalar or an array s, interpolated on one Chebyshev interval
    [0, max(3, 1.1 max(s))].

    At xi = 0 the generating function reduces to the two-point correlation,
    which is returned from the closed forms directly.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    s = np.asarray(s, float)
    if not np.all((s >= 0.0) & (s < np.inf)):
        raise ValueError("s must be finite and nonnegative")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if xi == 0.0:
        if beta == 4:
            # density-one variables: 4 rho(2x) in the closed-form convention
            return 4.0 * correlations.rho2_bulk_term(4, order, 2.0 * s)
        return correlations.rho2_bulk_term(beta, order, s)
    hi = max(3.0, 1.1 * float(np.max(s)))
    samples = _p_samples(beta, float(xi), float(hi))[order]
    return chebyshev_interpolate(samples, 0.0, hi, s)


def spacing_series_identity_holds(beta: int) -> bool:
    """Exact check that -(1/(6 beta))(s^2 P_0)'' reproduces P_1 term by term."""
    tables = {2: (P0_BETA2, P1_BETA2), 1: (P0_BETA1, P1_BETA1)}
    if beta not in tables:
        raise ValueError("series tables exist for beta = 1, 2 only")
    p0, p1 = tables[beta]
    lhs = p0.s_squared().second_derivative().scaled(correction_factor(F(beta)))
    return tables_match_through(lhs, p1, 9)


# ---------------------------------------------------------------------------
# Wigner surmise and its induced correction

def wigner_surmise(s):
    """32 s^2 exp(-4 s^2/pi) / pi^2: unit-normalized, unit-mean density."""
    s = np.asarray(s, float)
    out = 32.0 * s * s * np.exp(-4.0 * s * s / np.pi) / np.pi ** 2
    return out if out.ndim else float(out)


def surmise_correction(s):
    """-(1/12)(d^2/ds^2)(s^2 * wigner_surmise(s)), differentiated analytically."""
    s = np.asarray(s, float)
    a = 4.0 / np.pi
    out = -(32.0 / (12.0 * np.pi ** 2)) * np.exp(-a * s * s) * (
        12.0 * s ** 2 - 18.0 * a * s ** 4 + 4.0 * a * a * s ** 6)
    return out if out.ndim else float(out)
