"""Gap-probability generating functions: Nystrom Fredholm determinants and
trace corrections for the bulk kernels from one cached symmetric eigensolve
per (kernel, s, order), the exact finite-N circular-unitary generating
function, and the beta = 1, 4 combination formulas."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import KernelSpec, kernel_eval
from .numerics import gauss_legendre


class AccuracyWarning(UserWarning):
    pass


@dataclass(frozen=True)
class GapResult:
    s: float
    xi: float
    beta: int
    E0: float
    E1: float
    quad_order: int   # largest certified Nystrom order; 0 if none was needed


_gauss_legendre = lru_cache(maxsize=16)(gauss_legendre)
_SINE = KernelSpec("sine")
_K = {+1: KernelSpec("plus"), -1: KernelSpec("minus")}
# the 1/N^2 correction kernel paired with each bulk kernel
_PAIR = {_SINE: KernelSpec("l"), _K[+1]: KernelSpec("l_plus"), _K[-1]: KernelSpec("l_minus")}


def _symmetrised(kernel: KernelSpec, s: float, n: int) -> np.ndarray:
    """sqrt(w) K sqrt(w) on (0, s): bitwise symmetric for a symmetric kernel."""
    rule = _gauss_legendre(n, 0.0, 1.0)
    x = s * rule.nodes
    sw = np.sqrt(s * rule.weights)
    return np.outer(sw, sw) * kernel_eval(kernel, x[:, None], x[None, :])


@lru_cache(maxsize=256)
def _spectrum(kernel: KernelSpec, kernel_l: KernelSpec | None, s: float, n: int):
    """Eigenvalues lam of A = sqrt(w) K sqrt(w) = V diag(lam) V^T on (0, s) and,
    given L, d = diag(V^T B V) with B = sqrt(w) L sqrt(w); V is not kept."""
    lam, V = np.linalg.eigh(_symmetrised(kernel, s, n))
    lam.flags.writeable = False
    if kernel_l is None:
        return lam, None
    d = np.einsum("ij,ij->j", V, _symmetrised(kernel_l, s, n) @ V)
    d.flags.writeable = False
    return lam, d


def _det_fixed(kernel: KernelSpec, s: float, xi: float, n: int,
               kernel_l: KernelSpec | None = None) -> float:
    """Order-n det(I - xi K) = prod_j (1 - xi lam_j), from the entry its paired
    correction also uses; given L, -det(I - xi K) Tr((I - xi K)^{-1} xi L) =
    -xi sum_j d_j prod_{i != j} (1 - xi lam_i), by prefix and suffix products
    so that it stays finite as 1 - xi lam_j -> 0."""
    lam, d = _spectrum(kernel, _PAIR.get(kernel) if kernel_l is None else kernel_l, s, n)
    f = 1.0 - xi * lam
    if kernel_l is None:
        return float(np.prod(f))
    before = np.concatenate(([1.0], np.cumprod(f[:-1])))
    after = np.concatenate((np.cumprod(f[:0:-1])[::-1], [1.0]))
    return -xi * float(np.dot(d, before * after))


def _doubled(kernel: KernelSpec, kernel_l: KernelSpec | None, s: float, xi: float,
             n: int | None, converge: bool = True) -> tuple[float, int]:
    """(value, order): the order-n value (n defaults to and is at least 16) or,
    with converge, the first order-2n value within 1e-10 of the order-n one,
    doubling n up to 256. The order is 0 where no quadrature is needed."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if kernel_l is not None and not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if s == 0.0 or xi == 0.0:
        return (1.0 if kernel_l is None else 0.0), 0
    n = 16 if n is None else max(n, 16)
    val = _det_fixed(kernel, s, xi, n, kernel_l)
    if not converge:
        return val, n
    while n < 256:
        n *= 2
        new = _det_fixed(kernel, s, xi, n, kernel_l)
        if abs(new - val) < 1e-10:
            return new, n
        val = new
    what = "Fredholm determinant" if kernel_l is None else "trace correction"
    warnings.warn(f"{what} not converged at order {n}", AccuracyWarning)
    return val, n


def fredholm_det(kernel: KernelSpec, s: float, xi: float, n: int = 64,
                 converge: bool = True) -> float:
    """det(I - xi K restricted to (0, s)) by Nystrom discretization.

    With converge=True the order doubles (up to 256) until the value moves by
    less than 1e-10; an AccuracyWarning is issued if that is never reached.
    """
    return _doubled(kernel, None, s, xi, n, converge)[0]


def fredholm_trace_correction(kernel_k: KernelSpec, kernel_l: KernelSpec, s: float,
                              xi: float, n: int = 64, converge: bool = True) -> float:
    """-det(I - xi K) Tr((I - xi K)^{-1} xi L) on (0, s), shared Nystrom grid."""
    return _doubled(kernel_k, kernel_l, s, xi, n, converge)[0]


def e_pm(sign: int, order: int, s: float, xi: float, n: int | None = None) -> float:
    """E_order^+- (s; xi): Fredholm data of the +- kernels on (0, s/2), the
    Nystrom order doubling from n (default 16) until certified to 1e-10."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    return _doubled(_K[sign], _PAIR[_K[sign]] if order else None, s / 2.0, xi, n)[0]


def _e_bulk(beta: int, order: int, s: float, xi: float, n: int | None):
    """(E_order, the largest Nystrom order certified over the kernels used)."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if beta == 2:
        return _doubled(_SINE, _PAIR[_SINE] if order else None, s, xi, n)
    if beta not in (1, 4):
        raise ValueError("beta must be 1, 2, or 4")
    # beta = 4: orthogonal-group dimension 2N+1, so the +- operators act on
    # (0, s) and the correction picks up a further factor 1/4
    span, x = (s / 2.0, 2.0 * xi - xi * xi) if beta == 1 else (s, xi)
    (em, nm), (ep, np_) = (_doubled(k, _PAIR[k] if order else None, span, x, n)
                           for k in (_K[-1], _K[+1]))
    if beta == 1:
        return ((1.0 - xi) * em + ep) / (2.0 - xi), max(nm, np_)
    return (em + ep) / (2.0 if order == 0 else 8.0), max(nm, np_)


def e_bulk(beta: int, order: int, s: float, xi: float, n: int | None = None) -> float:
    """Bulk gap generating function term E_order for beta in {1, 2, 4}.

    order 0 is the limit, order 1 the coefficient of 1/N^2. The Nystrom order
    doubles from n (default 16) until certified to 1e-10.
    """
    return _e_bulk(beta, order, s, xi, n)[0]


def gap_probabilities(beta: int, s: float, xi: float, n: int | None = None) -> GapResult:
    (e0, n0), (e1, n1) = _e_bulk(beta, 0, s, xi, n), _e_bulk(beta, 1, s, xi, n)
    return GapResult(s, xi, beta, e0, e1, max(n0, n1))


def e_finite_cue(N: int, phi: float, xi: float) -> float:
    """Exact generating function of the interval count on (0, phi) for the
    N-dimensional circular unitary ensemble (rank-N Toeplitz determinant)."""
    if N < 1:
        raise ValueError("N must be positive")
    if not 0.0 <= phi <= 2.0 * np.pi + 1e-12:
        raise ValueError("phi must lie in [0, 2 pi]")
    if xi == 0.0 or phi == 0.0:
        return 1.0
    j = np.arange(N)
    dif = j[:, None] - j[None, :]
    A = np.empty((N, N), dtype=complex)
    nz = dif != 0
    A[nz] = (np.exp(1j * dif[nz] * phi) - 1.0) / (2j * np.pi * dif[nz])
    A[~nz] = phi / (2.0 * np.pi)
    ev = np.linalg.eigvalsh(A)
    return float(np.prod(1.0 - xi * ev))


@dataclass(frozen=True)
class CorrectionEstimate:
    E0: float
    E1: float
    residual_order: float


def extract_correction(N_list, s: float, xi: float) -> CorrectionEstimate:
    """Richardson extrapolation of e_finite_cue(N, 2 pi s / N, xi) in powers
    of 1/N^2: limit, first correction, and the empirical order of what is
    left after removing them. The values of N must be distinct."""
    Ns = np.asarray(sorted(N_list), float)
    if Ns.size < 3:
        raise ValueError("need at least 3 values of N")
    F = np.array([e_finite_cue(int(N), 2.0 * np.pi * s / N, xi) for N in Ns])
    diffs = np.diff(F)
    if np.any(diffs == 0) or np.any(np.sign(diffs) != np.sign(diffs[0])):
        warnings.warn("non-monotone data; fit may be unreliable", AccuracyWarning)
    if np.any(np.diff(Ns) == 0):
        raise ValueError("values of N must be distinct")
    h = 1.0 / Ns ** 2
    # exact three-term fit {1, h, h^2} through the finest three values
    e0, e1, _ = map(float, np.linalg.solve(np.vander(h[-3:], 3, increasing=True), F[-3:]))
    # pairwise Richardson limits: R_k - e0 = -e2 h_k h_{k+1}, so each ratio of
    # neighbouring defects gives the order, 4, over N_{k+2} / N_k
    R = (F[1:] * h[:-1] - F[:-1] * h[1:]) / (h[:-1] - h[1:])
    d = np.abs(R - e0)
    orders = 2.0 * np.log(d[:-1] / d[1:]) / np.log(Ns[2:] / Ns[:-2])
    return CorrectionEstimate(e0, e1, float(np.mean(orders)))

