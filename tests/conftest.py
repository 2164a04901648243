import math

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
