"""The bulk-scaled finite-N circular unitary kernel, the names of the bulk
kernels that the Nystrom engine serves, and the entries of the Pfaffian
matrix kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _SLICE_ENTRIES, _choice


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

def _pfaffian_entries(N: int, theta):
    """The entries (s, d, i) of the 2x2 matrix kernel of index N at theta of any
    shape: s is the scaled Dirichlet kernel with s(0) = N / 2pi, d = s' and
    i(t) = int_0^t s. Each is a sum over the frequencies f of cos(f theta) or
    f^(+-1) sin(f theta), over pi, read from one cosine and one sine table. The
    rows of theta's last axis enter in slices of at most _SLICE_ENTRIES table
    entries, and a row in pieces when it alone holds more; O(N) per entry."""
    f = (np.arange(1, (N - 1) // 2 + 1, dtype=float) if N % 2
         else np.arange(N // 2, dtype=float) + 0.5)
    theta = np.asarray(theta, float)
    rows = theta.reshape(-1, theta.shape[-1] if theta.ndim else 1)
    width = min(rows.shape[1], _SLICE_ENTRIES // max(f.size, 1))
    step = _SLICE_ENTRIES // (width * max(f.size, 1))
    sums = np.empty((3,) + rows.shape)
    for a in range(0, rows.shape[0], step):
        for b in range(0, rows.shape[1], width):
            angles = np.multiply.outer(rows[a:a + step, b:b + width], f)
            cos, sin = np.cos(angles), np.sin(angles)
            sums[:, a:a + step, b:b + width] = cos @ f ** 0, -(sin @ f), sin @ f ** -1
    s, d, i = sums.reshape((3,) + theta.shape) / np.pi
    if N % 2:
        return s + 0.5 / np.pi, d, i + theta / (2.0 * np.pi)
    return s, d, i


def _pfaffian_step(N: int, theta):
    """The parity-dependent step eps of index N at theta, with j = i - eps the
    top-left entry of the beta = 1 matrix kernel."""
    ratio = np.asarray(theta, float) / (2.0 * np.pi)
    m = np.rint(ratio)
    on_boundary = np.abs(ratio - m) <= 1e-12
    if N % 2:
        return np.where(on_boundary, m, np.floor(ratio) + 0.5)
    return np.where(on_boundary, 0.0, 0.5 * (-1.0) ** np.floor(ratio))
