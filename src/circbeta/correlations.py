"""n-point correlation functions: determinants for beta = 2, Pfaffians for
beta = 1, 4, and the closed-form bulk expansion terms."""

from __future__ import annotations

import math

import numpy as np

from .kernels import pfaffian_entries, _cue_scaled
from .numerics import sine_integral


def rho_n_cue(N: int, angles) -> float:
    """n-point density of the N-dimensional circular unitary ensemble."""
    th = np.asarray(angles, float)
    if th.size < 1 or th.size > N:
        raise ValueError("need 1 <= n <= N angles")
    if np.unique(th).size < th.size:
        return 0.0
    d = th[:, None] - th[None, :]
    # kernel sin(N t / 2) / (2 pi sin(t / 2)) with diagonal N / 2 pi
    K = _cue_scaled(d * N / (2.0 * np.pi), N) * (N / (2.0 * np.pi))
    return float(np.linalg.det(K))


def pfaffian(A) -> float:
    """Pfaffian of a real antisymmetric matrix by Householder tridiagonalization."""
    if np.iscomplexobj(A):
        raise ValueError("real matrices only")
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(np.abs(A).max(), 1.0)
    if np.abs(A + A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not antisymmetric to tolerance")
    if n % 2:
        return 0.0
    if n == 0:
        return 1.0
    det_q = 1.0
    for i in range(n - 2):
        x = A[i + 1:, i].copy()
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        alpha = -nx if x[0] >= 0 else nx
        v = x
        v[0] -= alpha
        nv = np.linalg.norm(v)
        if nv < 1e-300:
            continue
        v /= nv
        # H = I - 2 v v^T applied from both sides; each reflection has det -1
        B = A[i + 1:, i + 1:]
        B -= 2.0 * np.outer(v, v @ B)
        B -= 2.0 * np.outer(B @ v, v)
        A[i + 1:, i] -= 2.0 * v * (v @ A[i + 1:, i])
        A[i, i + 1:] = -A[i + 1:, i]
        det_q = -det_q
    pf = det_q
    for k in range(0, n - 1, 2):
        pf *= A[k, k + 1]
    return float(pf)


def rho_n_pfaffian(beta: int, N: int, angles) -> float:
    """n-point density of the circular orthogonal (beta=1) or symplectic
    (beta=4) ensemble via the 2n x 2n Pfaffian."""
    if beta not in (1, 4):
        raise ValueError("beta must be 1 or 4")
    th = np.asarray(angles, float)
    n = th.size
    if n < 1 or n > N:
        raise ValueError("need 1 <= n <= N angles")
    ent = pfaffian_entries(N if beta == 1 else 2 * N)
    pref = 1.0 if beta == 1 else 0.5
    d = th[:, None] - th[None, :]
    S = ent.s(d)
    D = ent.d(d)
    top_left = ent.j(d) if beta == 1 else ent.i(d)
    A = np.zeros((2 * n, 2 * n))
    A[0::2, 0::2] = pref * top_left
    A[0::2, 1::2] = pref * S
    A[1::2, 0::2] = -pref * S
    A[1::2, 1::2] = -pref * D
    np.fill_diagonal(A, 0.0)
    return pfaffian(A)


def rho2_bulk_finite(beta: int, N: int, x: float) -> float:
    """Bulk-scaled two-point function at separation x for finite N, in the
    convention matching rho2_bulk_term (unit density for beta = 1, 2; density
    one half for beta = 4); N must be an integer >= 2."""
    if not (float(N).is_integer() and N >= 2):
        raise ValueError(f"N must be an integer >= 2, got N = {N}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got x = {x}")
    if beta == 2:
        return 1.0 - float(_cue_scaled(np.asarray(x, float), N)) ** 2
    if beta == 1:
        c = 2.0 * np.pi / N
        return c * c * rho_n_pfaffian(1, N, [c * x, 0.0])
    if beta == 4:
        c = np.pi / N
        return c * c * rho_n_pfaffian(4, N, [c * x, 0.0])
    raise ValueError("beta must be 1, 2, or 4")


def rho2_bulk_term(beta: int, order: int, x):
    """Closed-form bulk two-point expansion term rho_(2),order at (x, 0).

    For beta = 1 the x = 0 value is the one-sided limit (zero); x is otherwise
    taken with sgn(x) = +-1.
    """
    xa = np.asarray(x, float)
    if not np.isfinite(xa).all():
        raise ValueError(f"x must be finite, got x = {x}")
    u = np.pi * np.abs(xa)
    sinc2 = np.sinc(xa) ** 2
    if beta == 2:
        if order == 0:
            val = 1.0 - sinc2
        elif order == 1:
            val = -np.sin(np.pi * xa) ** 2 / 3.0
        elif order == 2:
            val = -(np.pi * xa) ** 2 / 15.0 * np.sin(np.pi * xa) ** 2
        else:
            raise ValueError("order must be 0, 1, or 2 for beta = 2")
        return val if np.ndim(x) else float(val)
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1 for beta = 1, 4")
    safe = np.where(u == 0.0, 1.0, u)
    sin_u, cos_u = np.sin(safe), np.cos(safe)
    si_u = sine_integral(safe)
    if beta == 1:
        if order == 0:
            val = 1.0 - sinc2 + (sin_u - safe * cos_u) * (np.pi - 2.0 * si_u) / (2.0 * safe ** 2)
        else:
            val = (-4.0 * sin_u ** 2 - 2.0 * (sin_u - safe * cos_u) ** 2 / safe ** 2
                   - (np.pi - 2.0 * si_u) * (sin_u + safe * cos_u)) / 12.0
        val = np.where(u == 0.0, 0.0, val)
        return val if np.ndim(x) else float(val)
    if beta == 4:
        if order == 0:
            val = 0.25 * (1.0 - sinc2) - si_u * (sin_u - safe * cos_u) / (4.0 * safe ** 2)
        else:
            val = -(1.0 + sin_u ** 2 + sin_u ** 2 / safe ** 2 - np.sin(2.0 * safe) / safe
                    - si_u * (sin_u + safe * cos_u)) / 96.0
        val = np.where(u == 0.0, 0.0, val)
        return val if np.ndim(x) else float(val)
    raise ValueError("beta must be 1, 2, or 4")

