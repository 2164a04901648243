"""Gap-probability generating functions: Nystrom Fredholm determinants and
trace corrections of the sine and +- kernels over whole arrays of s, all from
the even and odd parity blocks of the sine kernel on (-t, t), eigensolved in
stacks cached per sweep and order; the exact finite-N circular-unitary
generating function; and the beta = 1, 4 combination formulas."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import KernelSpec
from .numerics import _CUE_MAX_N, _choice, _real, _whole, gauss_legendre, inverse_square_fit


class AccuracyWarning(UserWarning):
    pass


# Matrix entries per stacked eigensolve: a sweep over many t goes through eigh
# in slices of at most this many entries (one pair of blocks when it alone is
# larger), which bounds the assembly temporaries and each cached spectrum.
_STACK_ENTRIES = 16384
# Nystrom orders a node may take; each is certified against the next. A node
# on (-t, t) starts at the first at or above 2 t + 12: about where the rule
# starts to resolve sinc there (the least order within 1e-14 of order 512 is
# 12 at t = 1, 22 at t = 3, 46 at t = 10 and 70 at t = 20), whereas two
# orders below it can agree on values far from the true one.
_RUNGS = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
# Largest s that _certified accepts, whatever t = scale * s it maps to. At xi =
# 1, s = 300 still gives E_0 = 0 at every beta; by s = 2000 beta = 4 gives
# -9.2e117, and from s = 10^4 beta = 2 gives inf.
_S_MAX = 300.0


def _blocks(t, n: int):
    """Stacks (K, L) shaped (2, t.size, n/2, n/2), plus first, of the parity
    blocks sqrt(w) [K(x, y) +- K(x, -y)] sqrt(w) of K = sinc(x - y) and of L =
    (pi/6) (x - y) sin pi(x - y) over the n/2 positive nodes of the n-point
    Gauss rule on (-t, t), t a 1-d array. sin pi(x -+ y) = a -+ b, a = sin pi x
    cos pi y and b = cos pi x sin pi y, takes n/2 sines and cosines per t, and
    a - b (a + b) is exactly antisymmetric (symmetric): the blocks come out
    bitwise symmetric."""
    rule = gauss_legendre(n, -1.0, 1.0)
    x = t[:, None] * rule.nodes[n // 2:]
    sw = np.sqrt(t[:, None] * rule.weights[n // 2:])[:, :, None]
    # pi x reduced exactly mod 2 pi before sin and cos round it
    phase = np.pi * (x - 2.0 * np.rint(x / 2.0))
    sin, cos, x = np.sin(phase)[:, :, None], np.cos(phase)[:, :, None], x[:, :, None]
    a, b = sin * cos.swapaxes(1, 2), cos * sin.swapaxes(1, 2)
    # sinc(0) = 1 on the diagonal, and everywhere at t = 0, where w = 0
    (k_near, l_near), (k_far, l_far) = (
        (np.divide(v, np.pi * u, out=np.ones_like(u), where=u != 0.0), u * v)
        for u, v in ((x - x.swapaxes(1, 2), a - b), (x + x.swapaxes(1, 2), a + b)))
    w = sw * sw.swapaxes(1, 2)
    return (w * np.stack((k_near + k_far, k_near - k_far)),
            (np.pi / 6.0) * w * np.stack((l_near + l_far, l_near - l_far)))


@lru_cache(maxsize=128)
def _spectrum(t: tuple, n: int):
    """Eigenvalues lam of each parity block A = V diag(lam) V^T of K on
    (-t, t), t over the tuple, and d = diag(V^T B V), B the same block of L:
    two read-only arrays shaped (2, len(t), n/2), plus first; V is not kept."""
    K, L = _blocks(np.array(t), n)
    lam, V = np.linalg.eigh(K)
    d = np.einsum("...ij,...ij->...j", V, L @ V)
    lam.flags.writeable = d.flags.writeable = False
    return lam, d


def _fixed(t, xi: float, n: int, order: int, c):
    """Order-n E_order at each t > 0 of the 1-d array t: c . (E^+, E^-) of the
    parity blocks, or for c None the sine kernel's E_0 = E_0^+ E_0^-, E_1 =
    E_1^+ E_0^- + E_0^+ E_1^-. Per block E_0 = prod_j (1 - xi lam_j) and E_1 =
    -xi sum_j d_j prod_{i != j} (1 - xi lam_i), by prefix and suffix products
    so that it stays finite as 1 - xi lam_j -> 0."""
    step = max(1, _STACK_ENTRIES // (n * n // 2))
    spectra = [_spectrum(tuple(t[i:i + step].tolist()), n) for i in range(0, t.size, step)]
    f = 1.0 - xi * np.concatenate([lam for lam, _ in spectra], axis=1)
    e = [np.prod(f, axis=-1)]
    if order:
        d = np.concatenate([d for _, d in spectra], axis=1)
        ones = np.ones(f.shape[:-1] + (1,))
        before = np.concatenate((ones, np.cumprod(f[..., :-1], axis=-1)), axis=-1)
        after = np.concatenate((np.cumprod(f[..., :0:-1], axis=-1)[..., ::-1], ones), axis=-1)
        e.append(-xi * np.einsum("...j,...j->...", d, before * after))
    if c is not None:
        return c @ e[order]
    return e[0][0] * e[0][1] if order == 0 else e[1][0] * e[0][1] + e[0][0] * e[1][1]


def _certified(s, scale: float, xi: float, order: int, c=None):
    """(values, orders) at each entry s in [0, 300] of _fixed's E_order on (-t,
    t), t = scale * s, certified on that value: the first value at a rung of
    _RUNGS within 1e-10 (absolute) of the value at the rung below. Each node
    starts at the first rung at or above 2 t + 12, but at most at 384, so that
    it is compared at least once, and climbs on its own until certified or
    past 512; _fixed runs once per rung, over the nodes at it. The order is 0
    where no quadrature is needed."""
    t = np.asarray(_real("s", s, 0.0, _S_MAX)) * scale
    xi, order = _real("xi", xi, 0.0, 1.0), _choice("order", order, (0, 1))
    flat = t.ravel()
    val, orders = np.full(flat.size, 0.0 if order else 1.0), np.zeros(flat.size, int)
    nodes = np.flatnonzero((flat > 0.0) & (xi != 0.0))
    start = np.minimum(np.searchsorted(_RUNGS, 2.0 * flat[nodes] + 12.0), len(_RUNGS) - 2)
    # nan below a node's first rung: no value there can certify it
    val[nodes], climbing = np.nan, np.zeros(flat.size, bool)
    for k in range(start.min(initial=len(_RUNGS)), len(_RUNGS)):
        climbing[nodes[start == k]] = True
        if climbing.any():
            new = _fixed(flat[climbing], xi, _RUNGS[k], order, c)
            done = np.abs(new - val[climbing]) < 1e-10
            val[climbing], orders[climbing] = new, _RUNGS[k]
            climbing[climbing] = ~done
        elif k >= start.max():
            break
    if climbing.any():
        what = "trace correction" if order else "Fredholm determinant"
        warnings.warn(f"{what} not converged at order {_RUNGS[-1]} at "
                      f"{np.count_nonzero(climbing)} of {flat.size} values of s", AccuracyWarning)
    return val.reshape(t.shape), orders.reshape(t.shape)


def _scalar_or_array(values):
    return values if values.ndim else float(values)


# The +- kernels as weights c of the parity blocks on (-s/2, s/2)
_PM = {+1: np.array([1.0, 0.0]), -1: np.array([0.0, 1.0])}


def fredholm_det(kernel: KernelSpec, s, xi: float):
    """det(I - xi K) on (0, s), K the sine kernel alone: e_bulk(2, 0, s, xi)."""
    if kernel != KernelSpec("sine"):
        raise ValueError(f"no Nystrom engine for {kernel}")
    return e_bulk(2, 0, s, xi)


def fredholm_trace_correction(kernel_k: KernelSpec, kernel_l: KernelSpec, s, xi: float):
    """-det(I - xi K) Tr((I - xi K)^{-1} xi L) on (0, s), (K, L) the pair (sine,
    l) alone: e_bulk(2, 1, s, xi)."""
    if (kernel_k, kernel_l) != (KernelSpec("sine"), KernelSpec("l")):
        raise ValueError(f"no Nystrom engine for {kernel_k} with {kernel_l}")
    return e_bulk(2, 1, s, xi)


def e_pm(sign: int, order: int, s, xi: float):
    """E_order^+- (s; xi) at a scalar or an array s in [0, 300]: Fredholm data
    of the +- kernels on (0, s/2), certified to 1e-10 absolute like e_bulk.
    sign is the int +1 or -1; a bool or float is refused."""
    c = _PM[_choice("sign", sign, _PM, floats=False)]
    return _scalar_or_array(_certified(s, 0.5, xi, order, c)[0])


def _e_bulk(beta: int, order: int, s, xi: float):
    """(E_order, the Nystrom order certified), as arrays shaped like s."""
    beta, xi = _choice("beta", beta, (1, 2, 4)), _real("xi", xi, 0.0, 1.0)
    if beta == 2:
        return _certified(s, 0.5, xi, order)
    if beta == 1:
        # the +- blocks on (-s/2, s/2) at 2 xi - xi^2
        return _certified(s, 0.5, 2.0 * xi - xi * xi, order,
                          np.array([1.0, 1.0 - xi]) / (2.0 - xi))
    # beta = 4: orthogonal-group dimension 2N+1, so the +- operators act on
    # (0, s) and the correction picks up a further factor 1/4
    return _certified(s, 1.0, xi, order, np.full(2, 0.125 if order else 0.5))


def e_bulk(beta: int, order: int, s, xi: float):
    """Bulk gap generating function term E_order for beta in {1, 2, 4}, at a
    scalar or an array s in [0, 300].

    order 0 is the limit, order 1 the coefficient of 1/N^2. The Nystrom order
    starts where the rule resolves the kernel and rises until two orders agree
    to 1e-10 absolute, at each s on its own, so values far below 1e-10 carry
    no certified relative digits.
    """
    return _scalar_or_array(_e_bulk(beta, order, s, xi)[0])


def _cue_halves(N: int, phi: float, xi: float):
    """(E_N^+, E_N^-) = det(I - xi B^+-) of the mirror-even and mirror-odd
    halves B^+-[j, k] = c_|j-k| +- c_(N-1-j-k) of the real symmetric Toeplitz
    matrix c_|j-k|, of sizes ceil(N/2) and floor(N/2). That matrix is
    centrosymmetric, so e_k +- e_(N-1-k) split it exactly (Cantoni and
    Butler, Linear Algebra Appl. 13 (1976) 275); for odd N the middle column
    of B^+ is c_|j-m| alone, since e_m is its own mirror (a similarity, not
    orthogonal). LU, unlike Cholesky, serves every finite xi: I - xi B is
    indefinite for xi > 1."""
    N, phi = _whole("N", N, 1, _CUE_MAX_N), _real("phi", phi, 0.0, 2.0 * np.pi + 1e-12)
    xi = _real("xi", xi)
    # conjugating (e^{i d phi} - 1) / (2 pi i d), d = j - k, by diag(e^{-i j phi/2})
    # leaves the real symmetric Toeplitz matrix c_|d| with the same spectrum
    d = np.arange(1, N)
    c = np.concatenate([[phi / (2.0 * np.pi)], np.sin(d * (phi / 2.0)) / (np.pi * d)])
    p, m = N - N // 2, N // 2
    # strided views: T[j, k] = c_|j-k| and H[j, k] = c_(N-1-j-k), j, k < p
    T = sliding_window_view(np.concatenate((c[p - 1:0:-1], c[:p])), p)[::-1]
    H = sliding_window_view(c[::-1], p)[:p]
    # both halves in one buffer, each I - xi B assembled in place
    buf, halves = np.empty((p, p)), []
    for size, op in ((p, np.add), (m, np.subtract)):
        B = op(T[:size, :size], H[:size, :size], out=buf[:size, :size])
        if size > m:   # odd N: the middle column of B^+
            B[:, m] = T[:, m]
        B *= -xi
        B.flat[::size + 1] += 1.0
        halves.append(float(np.linalg.det(B)))
    return tuple(halves)


def e_finite_cue(N: int, phi: float, xi: float) -> float:
    """Exact generating function of the interval count on (0, phi) for the
    N-dimensional circular unitary ensemble: the rank-N Toeplitz determinant
    det(I - xi T), as the product of the LU determinants of its mirror-even
    and mirror-odd halves (`_cue_halves`). N must be a positive integer no
    larger than 4096 (`_CUE_MAX_N`); xi may be any finite number."""
    plus, minus = _cue_halves(N, phi, xi)
    return plus * minus


@dataclass(frozen=True)
class CorrectionEstimate:
    E0: float
    E1: float
    residual_order: float


def extract_correction(N_list, s: float, xi: float) -> CorrectionEstimate:
    """Richardson extrapolation of e_finite_cue(N, 2 pi s / N, xi) in powers
    of 1/N^2: limit, first correction, and the empirical order of what is
    left after removing them. The values of N must be distinct positive
    integers no larger than 4096; all are checked before any determinant."""
    s = _real("s", s, 0.0)
    Ns = np.asarray(sorted(_whole("N", N, 1, _CUE_MAX_N)
                           for N in np.ravel(np.asarray(N_list, object))), float)
    _whole("the number of values of N", Ns.size, 3)
    if np.any(np.diff(Ns) == 0):
        raise ValueError("values of N must be distinct")
    F = np.array([e_finite_cue(int(N), 2.0 * np.pi * s / N, xi) for N in Ns])
    diffs = np.diff(F)
    if np.any(diffs == 0) or np.any(np.sign(diffs) != np.sign(diffs[0])):
        warnings.warn("non-monotone data; fit may be unreliable", AccuracyWarning)
    h = 1.0 / Ns ** 2
    # exact three-term fit {1, h, h^2} through the finest three values
    e0, e1, _ = map(float, inverse_square_fit(Ns[-3:], F[-3:]))
    # pairwise Richardson limits: R_k - e0 = -e2 h_k h_{k+1}, so each ratio of
    # neighbouring defects gives the order, 4, over N_{k+2} / N_k
    R = (F[1:] * h[:-1] - F[:-1] * h[1:]) / (h[:-1] - h[1:])
    d = np.abs(R - e0)
    orders = 2.0 * np.log(d[:-1] / d[1:]) / np.log(Ns[2:] / Ns[:-2])
    return CorrectionEstimate(e0, e1, float(np.mean(orders)))

