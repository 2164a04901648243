import numpy as np
import pytest

from circbeta import KernelSpec, gauss_legendre, pfaffian_entries
from circbeta.kernels import _cue_scaled
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


class TestPfaffianEntries:
    @pytest.mark.parametrize("N", [7, 8])
    def test_peak_value(self, N):
        ent = pfaffian_entries(N)
        assert float(ent.s(0.0)) == pytest.approx(N / (2 * np.pi), abs=1e-13)

    def test_parity_step_even(self):
        ent = pfaffian_entries(8)
        assert float(ent.eps(1.0)) == 0.5
        assert float(ent.eps(2 * np.pi + 1.0)) == -0.5
        assert float(ent.eps(2 * np.pi)) == 0.0
        assert float(ent.eps(-1.0)) == -0.5

    def test_parity_step_odd(self):
        ent = pfaffian_entries(7)
        assert float(ent.eps(1.0)) == 0.5
        assert float(ent.eps(2 * np.pi + 0.5)) == 1.5
        assert float(ent.eps(2 * np.pi)) == 1.0
        assert float(ent.eps(0.0)) == 0.0

    @pytest.mark.parametrize("N", [7, 10])
    def test_derivative_relation(self, N):
        ent = pfaffian_entries(N)
        h = 1e-5
        for th in (0.4, 1.3, 2.8):
            fd = (float(ent.s(th + h)) - float(ent.s(th - h))) / (2 * h)
            assert float(ent.d(th)) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("N", [7, 10])
    def test_parities(self, N):
        ent = pfaffian_entries(N)
        th = np.linspace(0.1, 5.0, 9)
        assert np.allclose(ent.s(th), ent.s(-th), atol=1e-14)
        assert np.allclose(ent.d(th), -ent.d(-th), atol=1e-14)
        assert np.allclose(ent.i(th), -ent.i(-th), atol=1e-14)

    @pytest.mark.parametrize("N", [7, 10])
    def test_integral_against_quadrature(self, N):
        ent = pfaffian_entries(N)
        rule = gauss_legendre(64, 0.0, 2 * np.pi)
        oracle = rule.integrate(ent.s)
        assert float(ent.i(2 * np.pi)) == pytest.approx(oracle, abs=1e-10)

    def test_j_subtracts_step(self):
        ent = pfaffian_entries(9)
        assert float(ent.j(1.2)) == pytest.approx(float(ent.i(1.2)) - 0.5, abs=1e-15)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            pfaffian_entries(1)
