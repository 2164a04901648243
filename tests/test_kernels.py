import numpy as np
import pytest

from circbeta import KernelSpec, gauss_legendre
from circbeta.kernels import _cue_scaled, _pfaffian_entries, _pfaffian_step
from conftest import _l_kernel, kernel_eval

ALL_FAMILIES = ["sine", "l", "plus", "minus", "l_plus", "l_minus"]


class TestKernelEval:
    def test_sine_diagonal(self):
        assert kernel_eval("sine", 0.7, 0.7) == pytest.approx(1.0)

    def test_sine_value(self):
        assert kernel_eval("sine", 0.5, 0.0) == pytest.approx(2.0 / np.pi)

    def test_correction_kernel_at_unit_separation(self):
        # (pi/6) * 1 * sin(pi) = 0
        assert kernel_eval("l", 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("family", ALL_FAMILIES + ["cue"])
    def test_symmetry(self, family):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-3, 3, 25), rng.uniform(-3, 3, 25)
        k = ((lambda a, b: _cue_scaled(a - b, 17)) if family == "cue"
             else (lambda a, b: kernel_eval(family, a, b)))
        assert np.allclose(k(x, y), k(y, x), atol=1e-14)

    def test_cue_bulk_limit(self):
        # scaled finite-N kernel approaches the sine kernel pointwise
        x, y = 0.8, 0.1
        sine = kernel_eval("sine", x, y)
        d1 = abs(_cue_scaled(x - y, 100) - sine)
        d2 = abs(_cue_scaled(x - y, 1000) - sine)
        assert d2 < d1 / 50
        assert d2 < 1e-6

    def test_cue_even_in_N(self):
        d = np.linspace(-4.0, 4.0, 41)
        for N in (9.0, 16.0, 27.5):
            assert np.allclose(_cue_scaled(d, N), _cue_scaled(d, -N), atol=1e-13)

    def test_cue_removable_singularities(self):
        # coincidence point and the periodic copies
        assert _cue_scaled(0.0, 12) == pytest.approx(1.0)
        assert abs(_cue_scaled(12.0, 12)) == pytest.approx(1.0)

    def test_pm_combinations(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.05, 3, 30), rng.uniform(0.05, 3, 30)
        kp = kernel_eval("plus", x, y)
        km = kernel_eval("minus", x, y)
        assert np.allclose(kp + km, 2 * kernel_eval("sine", x, y), atol=1e-13)
        assert np.allclose(kp - km, 2 * kernel_eval("sine", x, -y), atol=1e-13)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("airy")
        with pytest.raises(ValueError):
            KernelSpec("cue")


class TestBulkExpansion:
    def test_order0_diagonal(self):
        assert kernel_eval("sine", 0.0, 0.0) == pytest.approx(1.0)

    def test_order1_equals_l_kernel(self):
        g = np.linspace(-2, 2, 20)
        X, Y = np.meshgrid(g, g)
        assert np.allclose(kernel_eval("l", X, Y), _l_kernel(X - Y),
                           atol=1e-15)

    def test_richardson_against_finite_N(self):
        x, y = 0.9, 0.2
        target = kernel_eval("l", x, y)
        devs = {}
        for N in (40, 80):
            devs[N] = N ** 2 * (_cue_scaled(x - y, N) - kernel_eval("sine", x, y))
        assert devs[40] == pytest.approx(target, abs=3e-4)
        # the defect from the limit shrinks like 1/N^2 (4:1 between N=40 and 80)
        assert (devs[40] - target) / (devs[80] - target) == pytest.approx(4.0, rel=0.05)


def entries(N, theta):
    """(s, d, i, j) of the matrix kernel of index N at theta."""
    s, d, i = _pfaffian_entries(N, theta)
    return s, d, i, i - _pfaffian_step(N, theta)


class TestPfaffianEntries:
    @pytest.mark.parametrize("N", [7, 8])
    def test_peak_value(self, N):
        assert float(entries(N, 0.0)[0]) == pytest.approx(N / (2 * np.pi), abs=1e-13)

    def test_parity_step_even(self):
        assert float(_pfaffian_step(8, 1.0)) == 0.5
        assert float(_pfaffian_step(8, 2 * np.pi + 1.0)) == -0.5
        assert float(_pfaffian_step(8, 2 * np.pi)) == 0.0
        assert float(_pfaffian_step(8, -1.0)) == -0.5

    def test_parity_step_odd(self):
        assert float(_pfaffian_step(7, 1.0)) == 0.5
        assert float(_pfaffian_step(7, 2 * np.pi + 0.5)) == 1.5
        assert float(_pfaffian_step(7, 2 * np.pi)) == 1.0
        assert float(_pfaffian_step(7, 0.0)) == 0.0

    @pytest.mark.parametrize("N", [7, 10])
    def test_derivative_relation(self, N):
        h = 1e-5
        for th in (0.4, 1.3, 2.8):
            fd = (entries(N, th + h)[0] - entries(N, th - h)[0]) / (2 * h)
            assert float(entries(N, th)[1]) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("N", [7, 10])
    def test_parities(self, N):
        th = np.linspace(0.1, 5.0, 9)
        (s, d, i, _), (s_, d_, i_, _) = entries(N, th), entries(N, -th)
        assert np.allclose(s, s_, atol=1e-14)
        assert np.allclose(d, -d_, atol=1e-14)
        assert np.allclose(i, -i_, atol=1e-14)

    @pytest.mark.parametrize("N", [7, 10])
    def test_integral_against_quadrature(self, N):
        rule = gauss_legendre(64, 0.0, 2 * np.pi)
        oracle = rule.integrate(lambda th: entries(N, th)[0])
        assert float(entries(N, 2 * np.pi)[2]) == pytest.approx(oracle, abs=1e-10)

    def test_j_subtracts_step(self):
        _, _, i, j = entries(9, 1.2)
        assert float(j) == pytest.approx(float(i) - 0.5, abs=1e-15)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 40), (40, 40)])
    def test_each_row_is_one_product(self, shape):
        # each row of theta's last axis that fits one slice gets each sum from
        # one (n, F) @ (F,) product over the whole row, whichever slice holds
        # it: the bits do not depend on theta's shape
        th = np.random.default_rng(5).uniform(-6.0, 6.0, shape)
        rows = th.reshape(-1, shape[-1] if shape else 1)
        f = np.arange(1.0, 101.0)                       # the frequencies of index 201
        cos, sin = np.cos(np.multiply.outer(rows, f)), np.sin(np.multiply.outer(rows, f))
        want = (cos @ f ** 0 / np.pi + 0.5 / np.pi, -(sin @ f / np.pi),
                sin @ f ** -1 / np.pi + rows / (2.0 * np.pi))
        for got, w in zip(_pfaffian_entries(201, th), want):
            assert got.shape == shape and np.array_equal(got.reshape(rows.shape), w)

    def test_long_row_in_pieces(self):
        # one row of 100 entries at index 8192 spans 409,600 table entries, so
        # it goes through the tables in pieces of 16 entries
        th = np.linspace(-6.0, 6.0, 100)
        f = np.arange(4096) + 0.5
        angles = np.multiply.outer(th, f)
        want = (np.cos(angles).sum(-1), -np.sin(angles) @ f, np.sin(angles) @ (1 / f))
        for got, w in zip(_pfaffian_entries(8192, th), want):
            assert np.allclose(got, w / np.pi, rtol=1e-12, atol=1e-9)
