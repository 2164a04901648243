"""The bulk-scaled finite-N circular unitary kernel, the names of the bulk
kernels that the Nystrom engine serves, and the Pfaffian kernel entry
functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _CUE_MAX_N, _choice, _whole


def _cue_scaled(d, N):
    """sin(pi d) / (N sin(pi d / N)): bulk-scaled finite-N kernel, unit density."""
    d = np.asarray(d, float)
    m = np.rint(d / N)
    e = d - m * N                       # distance to the nearest removable point
    # sin(pi d) = (-1)^(mN) sin(pi e); N sin(pi d/N) = (-1)^m N sin(pi e/N), and
    # sin(pi e) / (N sin(pi e/N)) = sinc(e) / sinc(e/N) with |e/N| <= 1/2
    sign = np.where((np.rint(m * (N - 1)) % 2) == 0, 1.0, -1.0)
    return sign * np.sinc(e) / np.sinc(e / N)


_FAMILIES = ("sine", "l")


@dataclass(frozen=True)
class KernelSpec:
    """A bulk kernel on bulk-scaled coordinates (mean spacing one), by family:
    "sine" or "l" (the 1/N^2 correction kernel (pi/6) (x - y) sin pi(x - y)).
    gap.e_pm serves the +- kernels, the sine kernel +- its reflection."""

    family: str

    def __post_init__(self):
        _choice("family", self.family, _FAMILIES)


# ---------------------------------------------------------------------------
# Pfaffian kernel entries: exact finite trigonometric sums

@dataclass(frozen=True)
class PfaffianKernelEntries:
    """Entry functions s, d, i, j, eps of the 2x2 matrix kernel for index N.

    s is the scaled Dirichlet kernel with s(0) = N/2pi, d = s', i(t) = int_0^t s,
    j = i - eps with eps the parity-dependent step function.
    """

    N: int

    def _freqs(self):
        if self.N % 2:
            return np.arange(1, (self.N - 1) // 2 + 1, dtype=float)
        return np.arange(self.N // 2, dtype=float) + 0.5

    def _trig_sum(self, trig, theta, power):
        """sum over the frequencies f of f^power trig(f theta) / pi, at any shape of theta."""
        f = self._freqs()
        return trig(np.multiply.outer(theta, f)) @ f ** power / np.pi

    def s(self, theta):
        return self._trig_sum(np.cos, theta, 0) + (0.5 / np.pi if self.N % 2 else 0.0)

    def d(self, theta):
        return -self._trig_sum(np.sin, theta, 1)

    def i(self, theta):
        base = self._trig_sum(np.sin, theta, -1)
        return base + np.asarray(theta, float) / (2.0 * np.pi) if self.N % 2 else base

    def eps(self, theta):
        ratio = np.asarray(theta, float) / (2.0 * np.pi)
        m = np.rint(ratio)
        on_boundary = np.abs(ratio - m) <= 1e-12
        if self.N % 2:
            return np.where(on_boundary, m, np.floor(ratio) + 0.5)
        return np.where(on_boundary, 0.0, 0.5 * (-1.0) ** np.floor(ratio))

    def j(self, theta):
        return self.i(theta) - self.eps(theta)


def pfaffian_entries(N: int) -> PfaffianKernelEntries:
    """The entry functions for index N, 2 <= N <= 8192 (the index of the
    symplectic kernel of dimension 4096 is 8192); each costs O(N) per entry."""
    return PfaffianKernelEntries(_whole("N", N, 2, 2 * _CUE_MAX_N))
