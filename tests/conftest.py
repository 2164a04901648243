import math
import tracemalloc

import numpy as np
import pytest


class EighLog(list):
    """Shapes of the arrays passed to np.linalg.eigh."""

    @property
    def matrices(self) -> int:
        return sum(math.prod(shape[:-2]) for shape in self)

    @property
    def work(self) -> int:
        """Sum over the matrices of n^3, n their order."""
        return sum(math.prod(shape[:-2]) * shape[-1] ** 3 for shape in self)


@pytest.fixture
def eigh_log(monkeypatch):
    """Records every array passed to np.linalg.eigh while the test runs."""
    log = EighLog()
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        log.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return log


def traced_peak(call):
    """(call(), the peak of the memory traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _l_kernel(d):
    d = np.asarray(d, float)
    return (np.pi * d / 6.0) * np.sin(np.pi * d)


def kernel_eval(family: str, x, y):
    """The bulk kernel of the named family at (x, y), broadcasting over arrays:
    the oracle that gap._blocks and the Nystrom engine are checked against."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if family == "sine":
        return np.sinc(x - y)
    if family == "l":
        return _l_kernel(x - y)
    if family == "plus":
        return np.sinc(x - y) + np.sinc(x + y)
    if family == "minus":
        return np.sinc(x - y) - np.sinc(x + y)
    if family == "l_plus":
        return _l_kernel(x - y) + _l_kernel(x + y)
    return _l_kernel(x - y) - _l_kernel(x + y)
