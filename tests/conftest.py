import numpy as np
import pytest
import scipy.linalg as sla
import scipy.special as sp

from tevsolve import bie, linalg, special


@pytest.fixture
def amos_points(monkeypatch):
    """The argument sizes of every Amos K_m and J_m call that :mod:`special`
    makes, in order: the fit nodes of a call given a kernel table
    (special.FIT_DEGREE + 1 per call), the class representatives where such a
    call falls back to Amos on each class, and direct evaluations."""
    points = []
    for name in ("kv", "jv"):
        amos = getattr(sp, name)
        monkeypatch.setattr(special._sp, name,
                            lambda m, z, amos=amos: points.append(np.size(z)) or amos(m, z))
    return points


@pytest.fixture
def trace_ratios(monkeypatch):
    """The wavenumber of every trace ratio P(k) that :mod:`bie` builds, in the
    order built (the order is the pool's when a family runs on more than one
    thread)."""
    built = []
    original = bie._trace_ratio
    monkeypatch.setattr(bie, "_trace_ratio",
                        lambda s, k, classes, work: built.append(k) or original(s, k, classes, work))
    return built


@pytest.fixture
def node_matrix():
    """The dense matrix, in the basis of the nodes, of a :class:`linalg.BlockDiag`
    (Q diag(blocks) Q^T, Q the class basis), as bie's M(z) and trace ratios are."""
    def dense(M: linalg.BlockDiag) -> np.ndarray:
        D = sla.block_diag(*M.blocks)
        return D if M.basis is None else M.basis @ D @ M.basis.T
    return dense
