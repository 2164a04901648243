from fractions import Fraction

import mpmath
import numpy as np
import pytest

from circbeta import (chebyshev_interpolate, chebyshev_points, correction_factor,
                      correction_residual, gauss_legendre, p_bulk, sine_integral,
                      spectral_derivative)
from circbeta import numerics
from circbeta.numerics import digamma
from conftest import traced_peak


def adaptive_simpson(f, a, b, tol=1e-13):
    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, tol / 2)
                + rec(m, b, fm, frm, fb, right, tol / 2))

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    return rec(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol)


class TestGaussLegendre:
    def test_midpoint_rule(self):
        r = gauss_legendre(1, 0.0, 1.0)
        assert r.nodes[0] == pytest.approx(0.5, abs=1e-15)
        assert r.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_degree_three_exactness(self):
        r = gauss_legendre(2, 0.0, 1.0)
        assert r.integrate(lambda x: x ** 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_sin_integral(self):
        r = gauss_legendre(20, 0.0, np.pi)
        assert r.integrate(np.sin) == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("n,lo,hi", [(5, 0.0, 1.0), (16, -2.0, 3.0), (64, 0.0, 0.5)])
    def test_invariants(self, n, lo, hi):
        r = gauss_legendre(n, lo, hi)
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(r.nodes > lo) and np.all(r.nodes < hi)
        assert np.all(r.weights > 0)
        assert np.sum(r.weights) == pytest.approx(hi - lo, rel=1e-13)
        # moment test: first 2n moments of the flat weight
        for p in range(2 * n):
            exact = (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
            assert r.integrate(lambda x: x ** p) == pytest.approx(exact, rel=1e-11)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 0.0, np.inf)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 0.0)

    @pytest.mark.parametrize("n", [2.5, np.nan, np.inf, "4", None])
    def test_non_integer_order(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            gauss_legendre(n, 0.0, 1.0)

    def test_integer_types(self):
        want = gauss_legendre(5, 0.0, 1.0)
        for n in (np.int64(5), 5.0):
            assert np.array_equal(gauss_legendre(n, 0.0, 1.0).nodes, want.nodes)


def _legendre_oracle(n):
    """Nodes and weights of the n-point rule on (-1, 1) to 40 digits: Newton
    on the three-term recurrence from numpy's leggauss nodes."""
    from numpy.polynomial.legendre import leggauss
    with mpmath.workdps(40):
        def p(x):
            # (P_n(x), P_{n-1}(x))
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(1, n + 1):
                prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
            return cur, prev
        nodes, weights = [], []
        for x in map(mpmath.mpf, leggauss(n)[0]):
            for _ in range(4):
                pn, pm = p(x)
                x -= pn * (1 - x * x) / (n * (pm - x * pn))
            nodes.append(x)
            weights.append(2 * (1 - x * x) / (n * p(x)[1]) ** 2)
        return nodes, weights


class TestLegendreBuilder:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 24, 48, 64, 127, 128])
    def test_against_mpmath(self, n):
        x, w = numerics._legendre(n)
        nodes, weights = _legendre_oracle(n)
        assert np.all(np.diff(x) > 0)
        assert max(abs(float(a - b)) for a, b in zip(x, nodes)) <= 1e-15
        assert max(abs(float((a - b) / b)) for a, b in zip(w, weights)) <= 1e-13

    def test_largest_order_bounded(self):
        # the tables of theta by frequency enter in slices; leggauss peaked at 8.5 MB
        numerics._legendre.cache_clear()
        rule, peak = traced_peak(lambda: gauss_legendre(1024, 0.0, 1.0))
        assert peak <= 2e6
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)


class TestSineIntegral:
    def test_zero(self):
        assert sine_integral(0.0) == 0.0

    def test_large_argument_limit(self):
        assert abs(sine_integral(50.0) - np.pi / 2.0) < 0.02

    def test_odd(self):
        for x in (0.3, 1.7, 11.0):
            assert sine_integral(-x) == pytest.approx(-sine_integral(x), abs=1e-15)

    def test_against_adaptive_simpson(self):
        oracle = adaptive_simpson(lambda t: np.sinc(t / np.pi), 0.0, np.pi)
        assert oracle == pytest.approx(1.851937051982466, abs=1e-12)
        assert sine_integral(np.pi) == pytest.approx(oracle, abs=1e-12)

    # dense across the formula seams: series/continued fraction at 2.25 and
    # continued fraction/asymptotic series at 64
    GRID = np.unique(np.concatenate((
        np.linspace(-200.0, 200.0, 1601), np.linspace(1.9, 2.6, 141),
        np.linspace(60.0, 68.0, 161), [1e3, -1e3, 1e8, 1e15, 2.0 ** 57, 1e20])))

    def test_against_mpmath(self):
        with mpmath.workdps(30):
            want = np.array([float(mpmath.si(mpmath.mpf(float(v)))) for v in self.GRID])
        got = sine_integral(self.GRID)
        assert np.max(np.abs(got - want)) <= 5e-16

    @pytest.mark.parametrize("x", [np.nan, [0.5, np.nan], True, "3"])
    def test_nan_refused(self, x):
        with pytest.raises(ValueError, match="x must be a real number, not nan"):
            sine_integral(x)

    def test_special_values(self):
        assert sine_integral(np.inf) == np.pi / 2
        assert sine_integral(-np.inf) == -np.pi / 2
        assert sine_integral(0.0) == 0.0 and sine_integral(-0.0) == 0.0
        assert np.all(sine_integral(-self.GRID) == -sine_integral(self.GRID))

    def test_no_floating_point_exceptions(self):
        # every element runs every formula on a clipped argument; underflow
        # (of 5e-324 squared) is ignored, as in numpy's default
        grid = np.concatenate((self.GRID, [np.inf, -np.inf, 0.0, -0.0, 1e300, 5e-324]))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sine_integral(grid)
            for v in grid:
                sine_integral(float(v))

    def test_array_matches_scalar_calls(self):
        grid = np.concatenate((self.GRID, [np.inf, 0.0, 1e300]))
        got = sine_integral(grid)
        want = np.array([sine_integral(float(v)) for v in grid])
        assert np.array_equal(got, want)
        assert np.array_equal(sine_integral(grid[:12].reshape(3, 4)), got[:12].reshape(3, 4))
        assert np.ndim(sine_integral(1.5)) == 0


class TestDigamma:
    ARGS = np.arange(1, 2001) / 2.0                   # every (half-)integer in [0.5, 1000]

    def test_against_mpmath(self):
        for x in self.ARGS:
            want = float(mpmath.digamma(x))
            err = abs(digamma(x) - want)
            assert err <= 2e-15 or err <= 1e-14 * abs(want), x

    @pytest.mark.parametrize("x,minus", [(320.5, 200.5), (800.5, 400.5), (3.5, 0.5),
                                         (1000.5, 20.5), (2.0, 7.0), (1e6 + 0.5, 0.5)])
    def test_difference(self, x, minus):
        want = float(mpmath.digamma(x) - mpmath.digamma(minus))
        assert digamma(x, minus) == pytest.approx(want, rel=2e-16, abs=2e-16)

    @pytest.mark.parametrize("x", [0.0, -1.5, np.nan, np.inf])
    def test_domain(self, x):
        with pytest.raises(ValueError, match="x must be finite and positive"):
            digamma(x)
        with pytest.raises(ValueError, match="minus must be finite and positive"):
            digamma(2.0, x)


class TestSpectralDerivative:
    def test_quadratic(self):
        xs = chebyshev_points(32, 0.0, 2.0)
        d2 = spectral_derivative(xs ** 2, 2, 0.0, 2.0)
        assert np.max(np.abs(d2 - 2.0)) < 1e-10

    def test_sine(self):
        xs = chebyshev_points(48, 0.0, 2.0)
        d2 = spectral_derivative(np.sin(np.pi * xs), 2, 0.0, 2.0)
        assert np.max(np.abs(d2 + np.pi ** 2 * np.sin(np.pi * xs))) < 1e-8

    def test_composition_matches_second_order(self):
        xs = chebyshev_points(48, 0.0, 1.5)
        f = np.exp(xs) * np.cos(xs)
        twice = spectral_derivative(spectral_derivative(f, 1, 0.0, 1.5), 1, 0.0, 1.5)
        once = spectral_derivative(f, 2, 0.0, 1.5)
        assert np.max(np.abs(twice - once)) < 1e-7

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            spectral_derivative([1.0, 2.0, 3.0], 1, 0.0, 1.0)

    def test_matrices_cached_per_key(self, monkeypatch):
        # each (n, lo, hi, order) builds its matrix once; the results are those
        # of the matrix built afresh, bit for bit
        builds = []
        build = numerics.chebyshev_diff_matrix
        monkeypatch.setattr(numerics, "chebyshev_diff_matrix",
                            lambda *a: builds.append(a) or build(*a))
        numerics._diff_power.cache_clear()
        f = np.cos(chebyshev_points(24, 0.0, 1.7))
        for _ in range(3):
            for order in (1, 2):
                D = build(24, 0.0, 1.7)
                want = (D @ D if order == 2 else D) @ f
                assert np.array_equal(spectral_derivative(f, order, 0.0, 1.7), want)
        assert builds == [(24, 0.0, 1.7)] * 2
        assert build(24, 0.0, 1.7).flags.writeable

    def test_gap_samples_against_finite_differences(self):
        # derivative of E0(s) cross-checked against central differences
        from circbeta.gap import _fixed

        def e0(s):
            # order-48 det(I - K) of the sine kernel on (0, s), from the
            # parity blocks on (-s/2, s/2)
            return _fixed(np.atleast_1d(s) / 2.0, 1.0, 48, 0, None)

        xs = chebyshev_points(48, 0.0, 2.0)
        d1 = spectral_derivative(e0(xs), 1, 0.0, 2.0)
        h = 1e-3
        for s_probe in (0.5, 1.0, 1.6):
            fd = (e0(s_probe + h)[0] - e0(s_probe - h)[0]) / (2 * h)
            interp = chebyshev_interpolate(d1, 0.0, 2.0, s_probe)
            assert interp == pytest.approx(fd, abs=1e-5)


class TestCorrectionResidual:
    grid = np.linspace(0.3, 2.0, 9)

    @pytest.mark.parametrize("outer,inner", [(2, 0), (0, 2), (2, 2)])
    def test_exact_relation_vanishes(self, outer, inner):
        # Q0 = sin x; (x^inner sin x)'' by hand
        d2 = {0: lambda x: -np.sin(x),
              2: lambda x: 2 * np.sin(x) + 4 * x * np.cos(x) - x * x * np.sin(x)}[inner]
        c = correction_factor(4)
        q1 = lambda xs: c * xs ** outer * d2(xs)
        r = correction_residual(np.sin, q1, c, 0.1, 2.2, self.grid, 48, outer, inner)
        assert r < 1e-9

    def test_wrong_factor_detected(self):
        # the sign of c flipped: Q1 = -c x^2 sin''(x)
        q1 = lambda xs: correction_factor(2) * xs ** 2 * np.sin(xs)
        r = correction_residual(np.sin, q1, correction_factor(2), 0.1, 2.2,
                                self.grid, 48, 2, 0)
        assert r == pytest.approx(2 * np.max(self.grid ** 2 * np.sin(self.grid)) / 12,
                                  rel=1e-9)

    def test_factor_exact_for_fractions(self):
        assert correction_factor(Fraction(2)) == Fraction(-1, 12)
        assert correction_factor(Fraction(3, 2)) == Fraction(-1, 9)
        assert correction_factor(4) == -1.0 / 24.0


def test_chebyshev_interpolation():
    xs = chebyshev_points(40, -1.0, 2.0)
    vals = np.sin(xs) + xs ** 3
    q = np.linspace(-1.0, 2.0, 17)
    assert np.max(np.abs(chebyshev_interpolate(vals, -1.0, 2.0, q)
                         - (np.sin(q) + q ** 3))) < 1e-12
    # exact at the nodes themselves
    assert chebyshev_interpolate(vals, -1.0, 2.0, xs[3]) == pytest.approx(vals[3])


def _interpolate_row_loops(values, lo, hi, x):
    """Reference: node hits found and patched one row at a time."""
    v = np.asarray(values, float)
    n = v.size
    nodes = chebyshev_points(n, lo, hi)
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    xq = np.atleast_1d(np.asarray(x, float))
    exact = np.full(xq.shape, -1, dtype=int)
    diff = xq[:, None] - nodes[None, :]
    for i, row in enumerate(np.isclose(diff, 0.0, atol=1e-14)):
        k = np.nonzero(row)[0]
        if k.size:
            exact[i] = k[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = w[None, :] / diff
        num = np.nansum(np.where(np.isfinite(r), r, 0.0) * v[None, :], axis=1)
        den = np.nansum(np.where(np.isfinite(r), r, 0.0), axis=1)
    out = num / den
    for i, k in enumerate(exact):
        if k >= 0:
            out[i] = v[k]
    return out


def test_chebyshev_interpolation_matches_row_loops():
    xs = chebyshev_points(33, 0.0, 3.3)
    vals = np.cos(2.0 * xs) * np.exp(-xs)
    q = np.concatenate((np.linspace(0.0, 3.3, 41), xs[::4], xs[1::5] + 5e-15,
                        xs[2::5] - 2e-14, np.random.default_rng(7).uniform(0.0, 3.3, 50)))
    got = chebyshev_interpolate(vals, 0.0, 3.3, q)
    assert np.array_equal(got, _interpolate_row_loops(vals, 0.0, 3.3, q))
    for xq in (xs[5], xs[5] + 5e-15, 1.234):
        assert chebyshev_interpolate(vals, 0.0, 3.3, xq) == \
            _interpolate_row_loops(vals, 0.0, 3.3, xq)[0]


def test_chebyshev_interpolation_in_slices():
    # 5000 queries at 33 nodes enter in three slices; each row's sums are
    # those of the whole table
    xs = chebyshev_points(33, 0.0, 3.3)
    vals = np.cos(2.0 * xs) * np.exp(-xs)
    q = np.concatenate((np.random.default_rng(8).uniform(0.0, 3.3, 4990), xs[::4]))
    assert np.array_equal(chebyshev_interpolate(vals, 0.0, 3.3, q),
                          _interpolate_row_loops(vals, 0.0, 3.3, q))


def test_chebyshev_interpolation_bounded():
    # 10^5 queries: unsliced, the query-by-node tables peaked at 168 MB traced
    s = np.linspace(0.0, 3.0, 10 ** 5)
    got, peak = traced_peak(lambda: p_bulk(2, 0, s, 1.0))
    assert peak <= 16e6
    assert np.array_equal(got[::9999], p_bulk(2, 0, s[::9999], 1.0))
