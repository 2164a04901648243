"""n-point correlation functions: determinants for beta = 2, Pfaffians for
beta = 1, 4, and the closed-form bulk expansion terms."""

from __future__ import annotations

import numpy as np

from .kernels import _cue_scaled, _pfaffian_entries, _pfaffian_step
from .numerics import _CUE_MAX_N, _SLICE_ENTRIES, _choice, _real, _whole, sine_integral


def rho_n_cue(N: int, angles) -> float:
    """n-point density of the N-dimensional circular unitary ensemble; N is at
    most 4096, and a density past the float range is refused."""
    N, th = _whole("N", N, most=_CUE_MAX_N), np.atleast_1d(_real("angles", angles))
    if th.size < 1 or th.size > N:
        raise ValueError("need 1 <= n <= N angles")
    # an exact repeat, found without np.unique: its first call imports numpy.ma
    if np.any(np.diff(np.sort(th)) == 0.0):
        return 0.0
    d = th[:, None] - th[None, :]
    # kernel sin(N t / 2) / (2 pi sin(t / 2)) with diagonal N / 2 pi
    K = _cue_scaled(d * N / (2.0 * np.pi), N) * (N / (2.0 * np.pi))
    with np.errstate(over="ignore"):
        out = float(np.linalg.det(K))
    if not np.isfinite(out):
        raise ValueError("the density overflows a float")
    return out


def pfaffian(A):
    """Pfaffian of an antisymmetric matrix, real or complex, or of each matrix
    of a stack shaped (..., n, n); one matrix gives a number. Odd n gives 0,
    n = 0 gives 1, and n = 4 the defining expansion a01 a23 - a02 a13 + a03
    a12. Otherwise each pair of rows is eliminated, over the whole stack at
    once, by skew-symmetric Gaussian elimination with partial pivoting
    (Parlett and Reid, BIT 10 (1970) 386; Wimmer, ACM TOMS 38 (2012) 30).
    Entries must be finite, and a Pfaffian whose elimination passes the float
    range is refused."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if A.shape[-1]:
        size = _real("matrix entries", np.abs(A)).max(axis=(-2, -1))
        if np.any(np.abs(A + A.swapaxes(-1, -2)).max(axis=(-2, -1))
                  > 1e-12 * np.maximum(size, 1.0)):
            raise ValueError("matrix is not antisymmetric to tolerance")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _pfaffian(A)
    if not np.isfinite(out).all():
        raise ValueError("the Pfaffian overflows a float")
    return out


def _pfaffian(A):
    """pfaffian's engine, unchecked: A a float or complex array shaped
    (..., n, n), antisymmetric with finite entries by construction."""
    n = A.shape[-1]
    if n % 2:
        return np.zeros(A.shape[:-2], A.dtype)[()]
    if n == 4:
        return (A[..., 0, 1] * A[..., 2, 3] - A[..., 0, 2] * A[..., 1, 3]
                + A[..., 0, 3] * A[..., 1, 2])[()]
    pf, rows = np.ones(A.shape[:-2], A.dtype), np.arange(n)
    for k in range(0, n, 2):
        # swap row and column k + 1 with those of the largest entry below A_kk
        p = k + 1 + np.abs(A[..., k + 1:, k]).argmax(axis=-1)[..., None]
        swap = np.where(rows == k + 1, p, np.where(rows == p, k + 1, rows))
        A = np.take_along_axis(np.take_along_axis(A, swap[..., None], -2), swap[..., None, :], -1)
        pivot = A[..., k, k + 1]
        pf *= np.where(p[..., 0] == k + 1, pivot, -pivot)
        # a zero pivot comes with a zero row k (divided by 1 instead) and makes pf 0
        M = A[..., k, k + 2:, None] / (pivot + (pivot == 0))[..., None, None] \
            * A[..., None, k + 2:, k + 1]
        A[..., k + 2:, k + 2:] += M - M.swapaxes(-1, -2)
    return pf[()]


def rho_n_pfaffian(beta: int, N: int, angles):
    """n-point density of the N-dimensional circular orthogonal (beta = 1) or
    symplectic (beta = 4) ensemble at angles shaped (..., n): the Pfaffian of
    the 2n x 2n matrix of kernel entries of each configuration. Configurations
    enter in slices of at most _SLICE_ENTRIES matrix entries (one
    configuration when its matrix alone holds more), and the kernel entries'
    trig tables hold at most _SLICE_ENTRIES entries each, whatever n. One
    configuration gives a float. N is at most 4096; a density past the float
    range is refused."""
    beta, N = _choice("beta", beta, (1, 4)), _whole("N", N, most=_CUE_MAX_N)
    th = np.asarray(_real("angles", angles))
    n = th.shape[-1] if th.ndim else 0
    if n < 1 or n > N:
        raise ValueError("need 1 <= n <= N angles")
    pref, diag = (1.0 if beta == 1 else 0.5), np.arange(2 * n)

    def density(th):
        d = th[..., :, None] - th[..., None, :]
        s, ds, i = _pfaffian_entries(N if beta == 1 else 2 * N, d)
        top_left = i - _pfaffian_step(N, d) if beta == 1 else i
        S, A = pref * s, np.empty(d.shape[:-2] + (2 * n, 2 * n))
        A[..., 0::2, 0::2], A[..., 1::2, 1::2] = pref * top_left, -pref * ds
        A[..., 0::2, 1::2], A[..., 1::2, 0::2] = S, -S
        A[..., diag, diag] = 0.0
        return _pfaffian(A)

    flat = th.reshape(-1, n)
    step = max(1, _SLICE_ENTRIES // (4 * n * n))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.concatenate([density(flat[i:i + step]) for i in range(0, len(flat) or 1, step)])
    # past the float range the elimination leaves an inf, or a nan after one
    if not np.isfinite(out).all():
        raise ValueError("the density overflows a float")
    return out.reshape(th.shape[:-1])[()]


def rho2_bulk_finite(beta: int, N: int, x):
    """Bulk-scaled two-point function at separation x, a number or an array,
    for finite N, in the convention matching rho2_bulk_term (unit density for
    beta = 1, 2; density one half for beta = 4); N must be an integer in
    [2, 4096]. An array of x is one stack of Pfaffians at beta = 1, 4; a
    number gives a float."""
    N, xs = _whole("N", N, 2, _CUE_MAX_N), np.asarray(_real("x", x))
    beta = _choice("beta", beta, (1, 2, 4))
    c = (2.0 if beta == 1 else 1.0) * np.pi / N
    val = (1.0 - _cue_scaled(xs, N) ** 2 if beta == 2 else
           c * c * rho_n_pfaffian(beta, N, np.stack([c * xs, np.zeros_like(xs)], axis=-1)))
    return val if np.ndim(x) else float(val)


def rho2_bulk_term(beta: int, order: int, x):
    """Closed-form bulk two-point expansion term rho_(2),order at (x, 0).

    For beta = 1 the x = 0 value is the one-sided limit (zero); x is otherwise
    taken with sgn(x) = +-1. The orders are 0, 1 and 2 at beta = 2, and 0 and
    1 at beta = 1, 4.
    """
    beta = _choice("beta", beta, (1, 2, 4))
    order = _choice("order", order, (0, 1, 2) if beta == 2 else (0, 1))
    xa = np.asarray(_real("x", x))
    u = np.pi * np.abs(xa)
    sinc2 = np.sinc(xa) ** 2
    if beta == 2:
        if order == 0:
            val = 1.0 - sinc2
        elif order == 1:
            val = -np.sin(np.pi * xa) ** 2 / 3.0
        else:
            val = -(np.pi * xa) ** 2 / 15.0 * np.sin(np.pi * xa) ** 2
        return val if np.ndim(x) else float(val)
    safe = np.where(u == 0.0, 1.0, u)
    sin_u, cos_u = np.sin(safe), np.cos(safe)
    si_u = sine_integral(safe)
    if beta == 1:
        if order == 0:
            val = 1.0 - sinc2 + (sin_u - safe * cos_u) * (np.pi - 2.0 * si_u) / (2.0 * safe ** 2)
        else:
            val = (-4.0 * sin_u ** 2 - 2.0 * (sin_u - safe * cos_u) ** 2 / safe ** 2
                   - (np.pi - 2.0 * si_u) * (sin_u + safe * cos_u)) / 12.0
    elif order == 0:
        val = 0.25 * (1.0 - sinc2) - si_u * (sin_u - safe * cos_u) / (4.0 * safe ** 2)
    else:
        val = -(1.0 + sin_u ** 2 + sin_u ** 2 / safe ** 2 - np.sin(2.0 * safe) / safe
                - si_u * (sin_u + safe * cos_u)) / 96.0
    val = np.where(u == 0.0, 0.0, val)
    return val if np.ndim(x) else float(val)


def _rho2_density_one(beta: int, order: int, x):
    """rho2_bulk_term in density-one variables: 4 rho(2x) at beta = 4."""
    if beta == 4:
        return 4.0 * rho2_bulk_term(4, order, 2.0 * x)
    return rho2_bulk_term(beta, order, x)
