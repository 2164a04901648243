"""Structure functions (spectral form factors): exact finite-N values for
beta = 1, 2, 4, bulk expansion terms through order 1/N^4, the general-beta
small-tau series, and the differential/functional identities."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .numerics import (_TINY, _choice, _positive_rational, _real, _whole, correction_factor,
                       digamma)

F = Fraction
TWO_PI = 2.0 * math.pi


def sff_exact(beta: int, N: int, k: int) -> float:
    """Structure function S_{N, beta}(k); digamma-based for beta = 1, 4. N and k
    are integers (an integral float is accepted)."""
    beta, N, k = _choice("beta", beta, (1, 2, 4)), _whole("N", N, 2), abs(_whole("k", k))
    if beta == 2:
        return min(k, N) / TWO_PI
    if beta == 1:
        if k < N:
            v = 2.0 * k - k * digamma(k + (N + 1) / 2.0, (N + 1) / 2.0)
        else:
            v = 2.0 * N - k * digamma(k + (N + 1) / 2.0, k + (1 - N) / 2.0)
        return v / TWO_PI
    if k >= 2 * N - 1:
        return N / TWO_PI
    arg = -N + k + 0.5
    # psi(z) = psi(1 - z) at half-integers z, so stay on the positive side
    return (k / 2.0) * (1.0 + 0.5 * digamma(N + 0.5, max(arg, 1.0 - arg))) / TWO_PI


def sff_bulk_scaled(beta: int, N: int, tau: float) -> float:
    """(2 pi / N) S_{N, beta}(tau N); tau N is rounded to the integer lattice."""
    N, tau = _whole("N", N, 2), _real("tau", tau)
    return TWO_PI * sff_exact(beta, N, round(tau * N)) / N


def _s0_derivs_beta1(t: float):
    """S0 and its first four derivatives for beta = 1 (branches at tau = 1)."""
    if t <= 1.0:
        u = 1.0 + 2.0 * t
        s0 = 2.0 * t - t * math.log(u)
        d2 = -2.0 / u - 2.0 / u ** 2
        d3 = 4.0 / u ** 2 + 8.0 / u ** 3
        d4 = -16.0 / u ** 3 - 48.0 / u ** 4
    else:
        q = 4.0 * t * t - 1.0
        s0 = 2.0 - t * math.log((2.0 * t + 1.0) / (2.0 * t - 1.0))
        d2 = -8.0 / q ** 2
        d3 = 128.0 * t / q ** 3
        d4 = 128.0 / q ** 3 - 3072.0 * t * t / q ** 4
    return s0, d2, d3, d4


def _s0_derivs_beta4(t: float):
    if t >= 2.0:
        return 1.0, 0.0, 0.0, 0.0
    a = 1.0 - t
    s0 = t / 2.0 - (t / 4.0) * math.log(abs(a))
    d2 = (2.0 - t) / (4.0 * a ** 2)
    d3 = (3.0 - t) / (4.0 * a ** 3)
    d4 = (4.0 - t) / (2.0 * a ** 4)
    return s0, d2, d3, d4


def bulk_term_singular(beta: int, tau: float) -> bool:
    """Whether tau is the logarithmic singularity of the bulk terms: |tau| = 1
    at beta = 4."""
    return beta == 4 and abs(float(tau)) == 1.0


def sff_bulk_term(beta: int, order: int, tau: float) -> float:
    """Bulk expansion term S_order(tau); order 0 is the limit curve."""
    beta, order = _choice("beta", beta, (1, 2, 4)), _choice("order", order, (0, 1, 2))
    t = abs(_real("tau", tau))
    if beta == 2:
        return min(t, 1.0) if order == 0 else 0.0
    if bulk_term_singular(beta, t):
        raise ValueError("logarithmic singularity at tau = 1 for beta = 4")
    s0, d2, d3, d4 = (_s0_derivs_beta1 if beta == 1 else _s0_derivs_beta4)(t)
    if order == 0:
        return s0
    if order == 2:
        # the second relation, S_2 = d(kappa) (tau^4 S_0'')''
        return _d_coeff(beta / 2) * (t ** 4 * d4 + 8.0 * t ** 3 * d3 + 12.0 * t * t * d2)
    if beta == 1:
        if t <= 1.0:
            return (t / 6.0) * (1.0 - 1.0 / (1.0 + 2.0 * t) ** 2)
        return 4.0 * t * t / (3.0 * (4.0 * t * t - 1.0) ** 2)
    if t >= 2.0:
        return 0.0
    return (t / 96.0) * (1.0 - 1.0 / (t - 1.0) ** 2)


# ---------------------------------------------------------------------------
# Small-tau series for general beta > 0, kappa = beta/2, exact coefficients

ONE = (F(1),)
P2 = (F(1), F(-11, 6), F(1))
P4 = (F(1), F(-91, 30), F(62, 15), F(-91, 30), F(1))
Q2 = (F(1), F(-3, 2), F(1))
Q4 = (F(1), F(-37, 15), F(13, 4), F(-37, 15), F(1))
R2 = (F(1), F(15, 8), F(1))
R4 = (F(1), F(31, 42), F(-116, 42), F(31, 42), F(1))
P6 = (F(1), F(-1607, 420), F(2011, 280), F(-911, 105), F(2011, 280),
      F(-1607, 420), F(1))
Q6 = (F(1), F(-263, 84), F(1697, 315), F(-6337, 1008), F(1697, 315),
      F(-263, 84), F(1))

POLYNOMIALS = {"p2": P2, "p4": P4, "q2": Q2, "q4": Q4, "r2": R2, "r4": R4,
               "p6": P6, "q6": Q6}

# per (order, tau power): prefactor, power of (kappa - 1), polynomial, kappa power
_SERIES = {
    (0, 1): (F(1), 0, ONE, 1),
    (0, 2): (F(1), 1, ONE, 2),
    (0, 3): (F(1), 2, ONE, 3),
    (0, 4): (F(1), 1, P2, 4),
    (0, 5): (F(1), 2, Q2, 5),
    (0, 6): (F(1), 1, P4, 6),
    (0, 7): (F(1), 2, Q4, 7),
    (0, 8): (F(1), 1, P6, 8),
    (1, 2): (F(-1, 6), 1, ONE, 3),
    (1, 3): (F(-1, 2), 2, ONE, 4),
    (1, 4): (F(-1), 1, P2, 5),
    (1, 5): (F(-5, 3), 2, Q2, 6),
    (1, 6): (F(-5, 2), 1, P4, 7),
    (2, 2): (F(1, 30), 1, (F(1), F(1), F(1)), 5),
    (2, 3): (F(2, 15), 2, R2, 6),
    (2, 4): (F(7, 20), 1, R4, 7),
}

SERIES_POWERS = {j: tuple(m for o, m in _SERIES if o == j) for j in range(3)}


def _poly_at(poly, kappa):
    acc = 0 * kappa
    for c in reversed(poly):
        acc = acc * kappa + c
    return acc


# A Fraction that meets a float is converted to float first, so a float kappa
# runs in floats, and an int or Fraction kappa stays exact
def series_coefficient(order: int, m: int, kappa):
    """Coefficient of tau^m in the order-th expansion term, for the powers m of
    SERIES_POWERS[order] and kappa > 0; exact when kappa is an int or a
    Fraction."""
    order = _choice("order", order, SERIES_POWERS)
    m = _choice("m", m, SERIES_POWERS[order])
    _real("kappa", kappa, _TINY)   # checked, not converted: kappa stays exact
    pref, e, poly, kpow = _SERIES[order, m]
    return pref * (kappa - 1) ** e * _poly_at(poly, kappa) / kappa ** kpow


def sff_series(beta: float, order: int, tau: float) -> float:
    """Truncated small-tau series of the order-th expansion term, beta > 0."""
    kappa = _real("beta", beta, _TINY) / 2.0
    order, t = _choice("order", order, SERIES_POWERS), abs(_real("tau", tau))
    return float(sum(series_coefficient(order, m, kappa) * t ** m
                     for m in SERIES_POWERS[order]))


# ---------------------------------------------------------------------------
# Exact CβE moments E|Tr U^k|^2: an independent oracle for the series tables
#
# With alpha = 2/beta, p_k = sum_{lambda |- k} (k alpha theta_lambda / j_lambda)
# J_lambda, where theta_lambda = prod_{(i,j) != (0,0)} (j alpha - i) is the
# coefficient of p_k in the Jack polynomial J_lambda and j_lambda =
# prod_s (alpha a + l + 1)(alpha a + l + alpha) is its norm (0-based box
# coordinates (i, j), arm a, leg l). Macdonald's CβE norm formula (Symmetric
# Functions and Hall Polynomials, 2nd ed., Ch. VI §10) then gives
#   E|Tr U^k|^2 = sum_lambda (k alpha theta_lambda)^2 / j_lambda
#                 * prod_{(i,j) in lambda} (N + j alpha - i) / (N + (j+1) alpha - i - 1).
#
# At kappa = beta/2 = p/q (alpha = q/p) every box factor above, scaled by p, is
# an integer, so the kernels below run on Python integers over one common
# denominator and build a Fraction only for each returned value.

# largest k of cbe_trace_moment: the partitions of k grow like e^(pi sqrt(2k/3)),
# and at k = 20 a call takes 0.02 s at beta = 2 and 0.2 s at beta = 0.1
_MOMENT_MAX_K = 20


def _partitions(k: int, largest: int):
    """Partitions of k into parts <= largest, as weakly decreasing tuples."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _partition_boxes(k: int):
    """Each partition of k with the boxes of its diagram as (i, j, arm, leg),
    0-based; the arm and leg count the boxes right of and below (i, j)."""
    for lam in _partitions(k, k):
        cols = [sum(1 for row in lam if row > j) for j in range(max(lam, default=0))]
        yield lam, [(i, j, row - j - 1, cols[j] - i - 1)
                    for i, row in enumerate(lam) for j in range(row)]


def _jack_terms(k: int, p: int, q: int):
    """Per partition of k at kappa = p/q: its length, the weight (k alpha
    theta)^2 / j = num / den as integers, and the shifts (p x, p y) of the
    N-dependent factors (N + x) / (N + y), integers too."""
    for lam, boxes in _partition_boxes(k):
        theta = math.prod(j * q - i * p for i, j, _, _ in boxes[1:])
        j_lam = math.prod((arm * q + (leg + 1) * p) * (arm * q + leg * p + q)
                          for _, _, arm, leg in boxes)
        yield (len(lam), (k * q * theta) ** 2, j_lam,
               [(j * q - i * p, (j + 1) * q - (i + 1) * p) for i, j, _, _ in boxes])


def cbe_trace_moment(beta, N: int, k: int) -> Fraction:
    """Exact E|Tr U^k|^2 = 2 pi S_{N, beta}(k) in the CβE of N x N matrices,
    for rational beta > 0, N >= 1 and 1 <= k <= 20 (integer arithmetic,
    exact)."""
    kappa = _positive_rational("beta", beta) / 2
    N, k = _whole("N", N, 1), _whole("k", k, 1, _MOMENT_MAX_K)
    p = kappa.numerator
    terms = [(num * math.prod(p * N + x for x, _ in shifts),
              den * math.prod(p * N + y for _, y in shifts))
             for length, num, den, shifts in _jack_terms(k, p, kappa.denominator)
             if length <= N]  # J_lambda vanishes in more than N variables
    lcm = math.lcm(*(den for _, den in terms))
    return F(sum(num * (lcm // den) for num, den in terms), lcm)


def _moment_series(p: int, q: int, k: int, order: int):
    """Integers s_0, ..., s_order and a common denominator D with the N^-r
    coefficient of E|Tr U^k|^2 at kappa = p/q equal to s_r / (D p^r)."""
    terms = []
    for _, num, den, shifts in _jack_terms(k, p, q):
        # prod (1 + x/N) / (1 + y/N) as an integer series in v = 1/(p N)
        series = [1] + [0] * order
        for x, y in shifts:
            for n in range(order, 0, -1):
                series[n] += x * series[n - 1]
            for n in range(1, order + 1):
                series[n] -= y * series[n - 1]
        terms.append((num, den, series))
    lcm = math.lcm(*(den for _, den, _ in terms))
    return [sum(num * (lcm // den) * series[r] for num, den, series in terms)
            for r in range(order + 1)], lcm


# highest power of 1/N the stored tables need: c_{j,m} sits at N^-(m + 2j - 1)
ORACLE_ORDER = max(m + 2 * j - 1 for j, m in _SERIES)


def _k_powers(r: int):
    """Powers of k that the N^-r coefficient of E|Tr U^k|^2 holds."""
    return tuple(range(r + 1, -1, -2))


def _fit_in_k_squared(values: dict, e: int, n: int):
    """Integers C_0, ..., C_(n-1) and W > 0 with sum_i C_i k^(e + 2i) =
    W values[k] at k = 1, ..., n: Lagrange interpolation in x = k^2 over
    integers, each node weight k^e prod_(j != k) (k^2 - j^2) cleared by W."""
    nodes = range(1, n + 1)
    weights = {k: k ** e * math.prod(k * k - j * j for j in nodes if j != k) for k in nodes}
    w = math.lcm(*weights.values())
    coeffs = [0] * n
    for k in nodes:
        basis = [1]  # prod_(j != k) (x - j^2), lowest power first
        for j in nodes:
            if j != k:
                basis = [a - j * j * b for a, b in zip([0] + basis, basis + [0])]
        scale = values[k] * (w // weights[k])
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return coeffs, w


def oracle_series_coefficients(kappa) -> dict:
    """Exact c_{j,m}(kappa) for every m + 2j - 1 <= ORACLE_ORDER, decided by
    the CβE moments and independent of the stored tables (integer arithmetic,
    exact).

    With k = tau N, (2 pi / N) S_N(k) = E|Tr U^k|^2 / N, so c_{j,m} is the
    coefficient of k^m in the N^-(m + 2j - 1) coefficient of the moment. Each
    such coefficient is a polynomial in k with powers r + 1, r - 1, ..., that
    is k^e times a polynomial in k^2; it is interpolated exactly from the
    smallest k and checked at every spare k, which raises ArithmeticError if
    that structure fails.
    """
    kappa = _positive_rational("kappa", kappa)
    p, q = kappa.numerator, kappa.denominator
    k_max = len(_k_powers(ORACLE_ORDER)) + 1
    moments = {k: _moment_series(p, q, k, ORACLE_ORDER) for k in range(1, k_max + 1)}
    lcm = math.lcm(*(den for _, den in moments.values()))
    coeffs = {}
    for r in range(ORACLE_ORDER + 1):
        powers = _k_powers(r)
        n, e = len(powers), powers[-1]
        # the N^-r coefficient at k is values[k] / (lcm p^r)
        values = {k: sums[r] * (lcm // den) for k, (sums, den) in moments.items()}
        fit, w = _fit_in_k_squared(values, e, n)
        for k in range(n + 1, k_max + 1):
            if sum(c * k ** (e + 2 * i) for i, c in enumerate(fit)) != w * values[k]:
                raise ArithmeticError(f"N^-{r} coefficient is not a polynomial in "
                                      f"k with powers {powers} (k = {k})")
        for i, c in enumerate(fit):
            m = e + 2 * i
            coeffs[(r + 1 - m) // 2, m] = F(c, w * lcm * p ** r)
    return coeffs


def _d_coeff(kappa):
    if kappa == 1:    # the limit 3/720 of the ratio below
        return kappa / 240
    return (kappa ** 3 - 1) / (720 * kappa ** 3 * (kappa - 1))


def verify_x6(beta: float) -> tuple[float, float]:
    """Residuals (residual1, residual2) of the two correction-to-limit
    differential relations.

    residual1 checks S_1 = c tau^2 S_0'' with c = -1/(12 kappa). For beta in
    {1, 4} the closed-form S_1 is compared with the analytic S_0'' at nine
    points of (0, 1), and at beta = 4 nine more of (1, 2); for other beta the
    check is series-level, on the stored coefficients.

    residual2 checks S_2 = d(kappa) (tau^4 S_0'')'' with d = (kappa^3 - 1) /
    (720 kappa^3 (kappa - 1)), always series-level, since the closed-form S_2
    at beta = 1, 4 is defined by this relation. It is 0 for kappa in
    {1/2, 1, 2}, where the exact CβE oracle (oracle_series_coefficients)
    confirms the relation through tau^10. For other kappa it holds at tau^2
    but not at tau^3 and tau^4, whose stored coefficients are the oracle's, so
    residual2 is nonzero there. The paper's abstract reports evidence that the
    relations hold for general beta but does not state d, so which form it
    means is open.
    """
    kappa = _positive_rational("beta", beta).limit_denominator(10 ** 6) / 2
    c, d = correction_factor(2 * kappa), _d_coeff(kappa)
    r2 = _series_relation(2, kappa, lambda m: d * m * (m - 1) * (m + 1) * (m + 2))
    if beta not in (1, 4):
        return _series_relation(1, kappa, lambda m: c * m * (m - 1)), r2
    # beta = 4 has a logarithmic singularity at tau = 1
    tau_grid = np.linspace(0.1, 0.9, 9) if beta == 1 else \
        np.concatenate([np.linspace(0.1, 0.9, 9), np.linspace(1.1, 1.9, 9)])
    derivs = _s0_derivs_beta1 if beta == 1 else _s0_derivs_beta4
    return max(abs(sff_bulk_term(beta, 1, float(t))
                   - correction_factor(beta) * t * t * derivs(float(t))[1])
               for t in tau_grid), r2


def _series_relation(order: int, kappa, factor) -> float:
    """Largest |c_{order,m} - factor(m) c_{0,m}| over the stored powers m: a
    relation between the order-th and the limit term, read off the series."""
    return max(abs(float(series_coefficient(order, m, kappa)
                         - factor(m) * series_coefficient(0, m, kappa)))
               for m in SERIES_POWERS[order])


# ---------------------------------------------------------------------------
# Functional symmetry and zero locations of the series polynomials

def _series_antisymmetric() -> bool:
    """Whether every stored coefficient obeys c(1/kappa) = (-1)^(m+1) kappa^(m +
    2 order + 1) c(kappa) for every kappa > 0. A record pref (kappa - 1)^e
    P(kappa) / kappa^K, P of degree d with P(0) != 0, does exactly when
    reversed(P) = (-1)^(m + e + 1) P and 2K - e - d = m + 2 order + 1."""
    return all(poly[0] != 0 and poly[::-1] == tuple((-1) ** (m + e + 1) * c for c in poly)
               and 2 * kpow - e - (len(poly) - 1) == m + 2 * order + 1
               for (order, m), (_, e, poly, kpow) in _SERIES.items())


def root_modulus_deviation(names) -> float:
    """Largest ||z| - 1| over the zeros of the named POLYNOMIALS."""
    worst = 0.0
    for name in names:
        roots = np.roots([float(c) for c in reversed(POLYNOMIALS[name])])
        worst = max(worst, float(np.max(np.abs(np.abs(roots) - 1.0))))
    return worst


def _symmetry_residual() -> float:
    """The sff-symmetry row: 1.0 unless every record is antisymmetric, else the
    largest ||z| - 1| over the zeros of every polynomial but r4 (see below)."""
    if not _series_antisymmetric():
        return 1.0
    return root_modulus_deviation(name for name in POLYNOMIALS if name != "r4")


def _r4_oracle_residual() -> float:
    # r4's zeros lie off the unit circle, so the stored r2 (tau^3) and r4
    # (tau^4) second-correction coefficients are checked against the exact
    # CβE oracle instead
    worst = 0.0
    for kappa in (F(3), F(3, 2)):
        oracle = oracle_series_coefficients(kappa)
        for m in (3, 4):
            worst = max(worst, abs(float(series_coefficient(2, m, kappa) - oracle[2, m])))
    return worst
