"""Gap-probability generating functions: Nystrom Fredholm determinants and
trace corrections for the bulk kernels over whole arrays of s, from stacked
symmetric eigensolves cached per sweep and order, the exact finite-N
circular-unitary generating function, and the beta = 1, 4 combination
formulas."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import KernelSpec, kernel_eval
from .numerics import gauss_legendre, inverse_square_fit


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


_SINE = KernelSpec("sine")
_K = {+1: KernelSpec("plus"), -1: KernelSpec("minus")}
# the 1/N^2 correction kernel paired with each bulk kernel
_PAIR = {_SINE: KernelSpec("l"), _K[+1]: KernelSpec("l_plus"), _K[-1]: KernelSpec("l_minus")}


# Matrix entries per stacked eigensolve: a sweep over many s goes through
# eigh in slices of at most this many entries (one matrix when it alone is
# larger), which bounds the kernel temporaries and each cached spectrum.
_STACK_ENTRIES = 16384


def _symmetrised(kernel: KernelSpec, s, n: int) -> np.ndarray:
    """sqrt(w) K sqrt(w) on (0, s), one matrix per entry of s (stacked along
    the leading axes): bitwise symmetric for a symmetric kernel."""
    rule = gauss_legendre(n, 0.0, 1.0)
    s = np.asarray(s, float)[..., None]
    x = s * rule.nodes
    sw = np.sqrt(s * rule.weights)
    return (sw[..., :, None] * sw[..., None, :]) * kernel_eval(
        kernel, x[..., :, None], x[..., None, :])


@lru_cache(maxsize=128)
def _spectrum(kernel: KernelSpec, kernel_l: KernelSpec | None, s: tuple, n: int):
    """Eigenvalues lam of each A = sqrt(w) K sqrt(w) = V diag(lam) V^T on
    (0, s), s over the tuple, and, given L, d = diag(V^T B V) with
    B = sqrt(w) L sqrt(w); one row per s, V is not kept."""
    lam, V = np.linalg.eigh(_symmetrised(kernel, s, n))
    lam.flags.writeable = False
    if kernel_l is None:
        return lam, None
    d = np.einsum("...ij,...ij->...j", V, _symmetrised(kernel_l, s, n) @ V)
    d.flags.writeable = False
    return lam, d


def _det_fixed(kernel: KernelSpec, s, xi: float, n: int,
               kernel_l: KernelSpec | None = None) -> np.ndarray:
    """Order-n det(I - xi K) = prod_j (1 - xi lam_j) at each s > 0 of the 1-d
    array s, from the spectra its paired correction also uses; given L,
    -det(I - xi K) Tr((I - xi K)^{-1} xi L) = -xi sum_j d_j prod_{i != j}
    (1 - xi lam_i), by prefix and suffix products so that it stays finite as
    1 - xi lam_j -> 0."""
    s = np.atleast_1d(np.asarray(s, float))
    pair = _PAIR.get(kernel) if kernel_l is None else kernel_l
    step = max(1, _STACK_ENTRIES // (n * n))
    spectra = [_spectrum(kernel, pair, tuple(s[i:i + step].tolist()), n)
               for i in range(0, s.size, step)]
    f = 1.0 - xi * np.concatenate([lam for lam, _ in spectra])
    if kernel_l is None:
        return np.prod(f, axis=-1)
    d = np.concatenate([d for _, d in spectra])
    ones = np.ones((s.size, 1))
    before = np.concatenate((ones, np.cumprod(f[:, :-1], axis=-1)), axis=-1)
    after = np.concatenate((np.cumprod(f[:, :0:-1], axis=-1)[:, ::-1], ones), axis=-1)
    return -xi * np.einsum("kj,kj->k", d, before * after)


def _doubled(kernel: KernelSpec, kernel_l: KernelSpec | None, s, xi: float):
    """(values, orders) at each entry of s: the first order-2n value within
    1e-10 of the order-n one, n starting at 16 and doubling up to 256 at each
    node on its own; only the nodes not yet certified go on to the next
    order. The order is 0 where no quadrature is needed."""
    s = np.asarray(s, float)
    if not np.all((s >= 0.0) & (s < np.inf)):
        raise ValueError("s must be finite and nonnegative")
    if kernel_l is not None and not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    flat = s.ravel()
    val = np.full(flat.size, 1.0 if kernel_l is None else 0.0)
    order = np.zeros(flat.size, int)
    todo = np.flatnonzero((flat > 0.0) & (xi != 0.0))
    n = 16
    if todo.size:
        val[todo], order[todo] = _det_fixed(kernel, flat[todo], xi, n, kernel_l), n
    while todo.size and n < 256:
        n *= 2
        new = _det_fixed(kernel, flat[todo], xi, n, kernel_l)
        done = np.abs(new - val[todo]) < 1e-10
        val[todo], order[todo] = new, n
        todo = todo[~done]
    if todo.size:
        what = "Fredholm determinant" if kernel_l is None else "trace correction"
        warnings.warn(f"{what} not converged at order {n} at {todo.size} of "
                      f"{flat.size} values of s", AccuracyWarning)
    return val.reshape(s.shape), order.reshape(s.shape)


def _scalar_or_array(values):
    return values if values.ndim else float(values)


def fredholm_det(kernel: KernelSpec, s, xi: float):
    """det(I - xi K restricted to (0, s)) by Nystrom discretization, at a
    scalar or an array s, certified to 1e-10 by doubling the order from 16
    (up to 256); an AccuracyWarning is issued if that is never reached."""
    return _scalar_or_array(_doubled(kernel, None, s, xi)[0])


def fredholm_trace_correction(kernel_k: KernelSpec, kernel_l: KernelSpec, s, xi: float):
    """-det(I - xi K) Tr((I - xi K)^{-1} xi L) on (0, s), shared Nystrom grid,
    at a scalar or an array s, certified like fredholm_det."""
    return _scalar_or_array(_doubled(kernel_k, kernel_l, s, xi)[0])


def e_pm(sign: int, order: int, s, xi: float):
    """E_order^+- (s; xi) at a scalar or an array s: Fredholm data of the +-
    kernels on (0, s/2), the Nystrom order doubling from 16 until certified
    to 1e-10."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    half = np.asarray(s, float) / 2.0
    return _scalar_or_array(_doubled(_K[sign], _PAIR[_K[sign]] if order else None,
                                     half, xi)[0])


def _e_bulk(beta: int, order: int, s, xi: float):
    """(E_order, the largest Nystrom order certified over the kernels used),
    as arrays shaped like s."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    s = np.asarray(s, float)
    if beta == 2:
        return _doubled(_SINE, _PAIR[_SINE] if order else None, s, xi)
    if beta not in (1, 4):
        raise ValueError("beta must be 1, 2, or 4")
    # beta = 4: orthogonal-group dimension 2N+1, so the +- operators act on
    # (0, s) and the correction picks up a further factor 1/4
    span, x = (s / 2.0, 2.0 * xi - xi * xi) if beta == 1 else (s, xi)
    (em, nm), (ep, np_) = (_doubled(k, _PAIR[k] if order else None, span, x)
                           for k in (_K[-1], _K[+1]))
    if beta == 1:
        return ((1.0 - xi) * em + ep) / (2.0 - xi), np.maximum(nm, np_)
    return (em + ep) / (2.0 if order == 0 else 8.0), np.maximum(nm, np_)


def e_bulk(beta: int, order: int, s, xi: float):
    """Bulk gap generating function term E_order for beta in {1, 2, 4}, at a
    scalar or an array s.

    order 0 is the limit, order 1 the coefficient of 1/N^2. The Nystrom order
    doubles from 16 until certified to 1e-10, at each s on its own.
    """
    return _scalar_or_array(_e_bulk(beta, order, s, xi)[0])


def gap_probabilities(beta: int, s: float, xi: float) -> GapResult:
    (e0, n0), (e1, n1) = _e_bulk(beta, 0, s, xi), _e_bulk(beta, 1, s, xi)
    return GapResult(s, xi, beta, float(e0), float(e1), int(max(n0, n1)))


def e_finite_cue(N: int, phi: float, xi: float) -> float:
    """Exact generating function of the interval count on (0, phi) for the
    N-dimensional circular unitary ensemble (rank-N Toeplitz determinant)."""
    if not (N >= 1 and float(N).is_integer()):
        raise ValueError("N must be a positive integer")
    if not 0.0 <= phi <= 2.0 * np.pi + 1e-12:
        raise ValueError("phi must lie in [0, 2 pi]")
    if xi == 0.0 or phi == 0.0:
        return 1.0
    # conjugating (e^{i d phi} - 1) / (2 pi i d), d = j - k, by diag(e^{-i j phi/2})
    # leaves the real symmetric Toeplitz matrix c_|d| with the same spectrum
    d = np.arange(1, int(N))
    c = np.concatenate([[phi / (2.0 * np.pi)], np.sin(d * (phi / 2.0)) / (np.pi * d)])
    j = np.arange(int(N))
    ev = np.linalg.eigvalsh(c[np.abs(j[:, None] - j[None, :])])
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
    e0, e1, _ = map(float, inverse_square_fit(Ns[-3:], F[-3:]))
    # pairwise Richardson limits: R_k - e0 = -e2 h_k h_{k+1}, so each ratio of
    # neighbouring defects gives the order, 4, over N_{k+2} / N_k
    R = (F[1:] * h[:-1] - F[:-1] * h[1:]) / (h[:-1] - h[1:])
    d = np.abs(R - e0)
    orders = 2.0 * np.log(d[:-1] / d[1:]) / np.log(Ns[2:] / Ns[:-2])
    return CorrectionEstimate(e0, e1, float(np.mean(orders)))

