"""Gauss-Legendre rules, the sine integral, the digamma function, Chebyshev spectral
differentiation, and the one engine that checks every correction-to-limit
identity, shared by the other modules. numpy and the standard library only."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
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


# Each Gauss-Legendre rule is built once per order, on (-1, 1), as read-only
# arrays, and mapped per call, so that callers whose intervals vary share it.
@lru_cache(maxsize=32)
def _legendre(n: int):
    return _read_only(*leggauss(n))


# entries per temporary table of an array call: its arguments enter in slices
_SLICE_ENTRIES = 65536
# largest rule order (Gauss-Legendre or Chebyshev): building one takes O(n^2)
# memory and O(n^3) time
_GAUSS_MAX_N = 1024
# largest finite-N dimension: two LU factorisations of N/2 x N/2 Toeplitz
# blocks in e_finite_cue, about 0.4 s and 70 MB at this N on one core
_CUE_MAX_N = 4096
# the least positive float: lo = _TINY makes a kind refuse 0 and admit any x > 0
_TINY = math.ulp(0.0)
# the largest float, _real's default bound either way: it admits every finite x
_BIG = sys.float_info.max

# The parameter kinds. Each public function checks each of its parameters by
# one kind call at entry; only checks that tie two parameters together are
# written out where they are used.


def _is_whole(v) -> bool:
    """Whether v is an int, a numpy integer or an integral float (never a bool)."""
    return (type(v) is int or isinstance(v, np.integer)
            or isinstance(v, (float, np.floating)) and math.isfinite(v) and v == int(v))


def _whole(name: str, v, least: int | None = None, most: int | None = None) -> int:
    """v as an int, if _is_whole(v) and v lies in [least, most], where given."""
    if (type(v) is int or _is_whole(v)) and (least is None or v >= least):
        if most is None or v <= most:
            return int(v)
        raise ValueError(f"{name} must be at most {most}, got {v!r}")
    kind = ("an integer" if least is None else "a positive integer" if least == 1
            else f"an integer >= {least}")
    raise ValueError(f"{name} must be {kind}, got {v!r}")


def _choice(name: str, v, allowed, floats: bool = True):
    """v, if it is a member of allowed, a fixed set of ints or strings: a str,
    or an integer (see _is_whole) returned as an int. floats=False refuses an
    integral float too, for a label such as e_pm's sign."""
    plain = type(v) in (int, str)       # the common case, without a call
    if (plain or _is_whole(v) and (floats or not isinstance(v, (float, np.floating)))) \
            and v in allowed:
        return v if plain else int(v)
    *head, last = map(str, allowed)
    raise ValueError(f"{name} must be {', '.join(head)}{',' * (len(head) > 1)} or {last}, "
                     f"got {v!r}")


def _real(name: str, v, lo: float = -_BIG, hi: float = _BIG):
    """v as a float, or as a float array, if it is a real number, or an array
    of them, in [lo, hi]: never nan, an infinity only where a bound is one, and
    by default any finite float. A bool, a str or an object array is refused
    before any conversion could turn it into a number."""
    if type(v) in (float, int) or isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            out = float(v)
        except OverflowError:       # an int or Fraction past the float range
            out = math.nan
        ok = lo <= out <= hi
    else:
        out = np.asarray(v)
        ok = out.dtype.kind in "iuf"
        if ok:
            out = np.asarray(out, float)
            ok = bool((out >= lo).all() and (out <= hi).all())
            out = out if out.ndim else float(out)
    if ok:
        return out
    if lo == -math.inf:
        where = "be a real number, not nan"
    elif hi < _BIG:
        where = f"lie in {'(0' if lo == _TINY else f'[{lo:g}'}, {hi:g}]"
    else:
        where = "be finite" + {-_BIG: "", 0.0: " and nonnegative",
                               _TINY: " and positive"}.get(lo, f" and >= {lo:g}")
    raise ValueError(f"{name} must {where}, got {v!r}")


def _positive_rational(name: str, v) -> Fraction:
    """v as an exact Fraction, if it is a finite positive real number (not a
    bool): the kind of the exact paths."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) \
            and math.isfinite(v) and v > 0:
        return Fraction(v)
    raise ValueError(f"{name} must be finite and positive, got {v!r}")


def gauss_legendre(n: int, lo: float, hi: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on (lo, hi), 1 <= n <= 1024; the arrays are
    read-only."""
    n, lo, hi = _whole("n", n, 1, _GAUSS_MAX_N), _real("lo", lo), _real("hi", hi)
    if lo >= hi:
        raise ValueError(f"bad interval ({lo}, {hi})")
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return QuadratureRule(*_read_only(half * x + 0.5 * (hi + lo), half * w))


# ---------------------------------------------------------------------------
# The sine integral (DLMF 6.6, 6.9, 6.12). Below 2.25, its power series; above,
# Si = pi/2 - f cos|x| - g sin|x| with the auxiliary functions g - i f =
# e^{ix} E1(ix): the continued fraction of e^z E1(z), in real arithmetic, below
# 64, and their asymptotic series up to 2^57, past which Si rounds to pi/2.
# Every element runs every formula on its argument clipped into that formula's
# range, so an array gives the bits of the scalar calls and nothing overflows.

def sine_integral(x):
    """Si(x) = integral of sin(t)/t from 0 to x, to 5e-16 absolute; Si(+-inf) = +-pi/2."""
    x = np.asarray(_real("x", x, -math.inf, math.inf))
    ax = np.abs(x)
    near = np.minimum(ax, 2.25)
    y = -near * near
    series = 0.0
    for k in range(13, -1, -1):
        series = series * y + 1.0 / ((2 * k + 1) * math.factorial(2 * k + 1))
    # 1/(z + 1 - t), t = 1/(z + 3 - 4/(z + 5 - ...)) = p - i q at z = i mid, from the tail up
    mid = np.clip(ax, 2.25, 64.0)
    p = q = 0.0
    for k in range(90, 0, -1):
        a, b = 2 * k + 1 - p, mid + q
        d = k * k / (a * a + b * b)
        p, q = a * d, b * d
    a, b = 1.0 - p, mid + q
    d = a * a + b * b
    top = np.minimum(ax, 2.0 ** 57)
    far = np.maximum(top, 64.0)
    y = -1.0 / (far * far)
    f = g = 0.0
    for k in range(10, -1, -1):
        f, g = f * y + math.factorial(2 * k), g * y + math.factorial(2 * k + 1)
    f, g = np.where(ax < 64.0, b / d, f / far), np.where(ax < 64.0, a / d, -g * y)
    si = np.where(ax < 2.25, series * near, np.pi / 2 - f * np.cos(top) - g * np.sin(top))
    return np.copysign(si, x)[()]


# B_2k/(2k) of the asymptotic series, highest k first
_PSI_ASYMPTOTIC = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def _psi_parts(x: float):
    """(y, r) with psi(x) = log(y) + r for x > 0: the upward recurrence to y >=
    16, then the asymptotic series."""
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
    y, r = _psi_parts(_real("x", x, _TINY))
    if minus is None:
        return math.log(y) + r
    y0, r0 = _psi_parts(_real("minus", minus, _TINY))
    return math.log1p((y - y0) / y0) + (r - r0)


# ---------------------------------------------------------------------------
# Chebyshev spectral differentiation (second-kind points, barycentric form)

def chebyshev_points(n: int, lo: float, hi: float) -> np.ndarray:
    """n Chebyshev points of the second kind on [lo, hi], ascending; 2 <= n <=
    1024."""
    n, lo, hi = _whole("n", n, 2, _GAUSS_MAX_N), _real("lo", lo), _real("hi", hi)
    theta = np.arange(n) * np.pi / (n - 1)
    x = np.cos(theta)[::-1]
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo)


def chebyshev_diff_matrix(n: int, lo: float, hi: float) -> np.ndarray:
    """Differentiation matrix acting on samples at chebyshev_points(n, lo, hi),
    2 <= n <= 1024."""
    n, lo, hi = _whole("n", n, 2, _GAUSS_MAX_N), _real("lo", lo), _real("hi", hi)
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


@lru_cache(maxsize=8)
def _diff_power(n: int, lo: float, hi: float, order: int) -> np.ndarray:
    """chebyshev_diff_matrix(n, lo, hi) to the power order, 1 or 2, read-only."""
    D = chebyshev_diff_matrix(n, lo, hi)
    return _read_only(D @ D if order == 2 else D)[0]


def spectral_derivative(values, order: int, lo: float, hi: float) -> np.ndarray:
    """Derivative of samples given on the Chebyshev grid over [lo, hi]."""
    v, order = np.asarray(_real("values", values)), _choice("order", order, (1, 2))
    n = _whole("the number of samples", v.size, 4)
    return _diff_power(n, _real("lo", lo), _real("hi", hi), order) @ v


def inverse_square_fit(Ns, values) -> np.ndarray:
    """Coefficients c_0, ..., c_{k-1} of sum_r c_r N^(-2r) through the k pairs
    (N, value): the exact Richardson fit in powers of 1/N^2."""
    h = 1.0 / np.asarray(Ns, float) ** 2
    return np.linalg.solve(np.vander(h, h.size, increasing=True), np.asarray(values))


def correction_factor(beta):
    """-1/(6 beta): the factor that ties each first 1/N^2 correction to a second
    derivative of its limit; exact when beta is a Fraction."""
    _real("beta", beta, _TINY)   # checked, not converted: a Fraction stays exact
    return -1 / (6 * beta)


def correction_residual(q0, q1, c, lo: float, hi: float, grid, n_cheb: int,
                        outer: int, inner: int) -> float:
    """Max over grid of |Q_1 - c x^outer (d^2/dx^2)(x^inner Q_0)|.

    q0 and q1 map the array of n_cheb Chebyshev points on [lo, hi] to samples
    of Q_0 and Q_1; the residual is formed there and interpolated to grid.
    The powers outer and inner lie in {0, 1, 2}.
    """
    c, outer, inner = _real("c", c), _whole("outer", outer, 0, 2), _whole("inner", inner, 0, 2)
    xs = chebyshev_points(n_cheb, lo, hi)
    d2 = spectral_derivative(xs ** inner * q0(xs), 2, lo, hi)
    resid = q1(xs) - c * xs ** outer * d2
    return float(np.max(np.abs(chebyshev_interpolate(resid, lo, hi, grid))))


def chebyshev_interpolate(values, lo: float, hi: float, x):
    """Barycentric evaluation of the Chebyshev interpolant at x (scalar or
    array) in [lo, hi]; the queries enter in slices of at most _SLICE_ENTRIES
    table entries."""
    v = np.asarray(_real("values", values))
    n = v.size
    nodes = chebyshev_points(n, lo, hi)
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    xq = np.atleast_1d(_real("x", x, *sorted((float(lo), float(hi)))))
    out, step = np.empty(xq.size), max(1, _SLICE_ENTRIES // n)
    for a in range(0, xq.size, step):
        diff = xq[a:a + step, None] - nodes[None, :]
        hit = np.abs(diff) <= 1e-14
        with np.errstate(divide="ignore", invalid="ignore"):
            r = w[None, :] / diff
            r = np.where(np.isfinite(r), r, 0.0)
            num, den = np.sum(r * v[None, :], axis=1), np.sum(r, axis=1)
        # a query within 1e-14 of a node takes that (first) node's sample
        out[a:a + step] = np.where(hit.any(axis=1), v[hit.argmax(axis=1)], num / den)
    return out if np.ndim(x) else float(out[0])
