import itertools

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


def _class_basis(s) -> np.ndarray:
    """The orthonormal class basis Q of the mirror maps i -> -i and i -> N/2 - i
    that map the sample's nodes onto their mirror images (y -> -y, x -> -x),
    built from the maps alone: per character chi of the group G they generate,
    the second map's sign varying slowest, one column sum_g chi(g) e_g(i),
    normalised, for each node i that is the first of its orbit and where that
    sum is not zero.  The identity for a curve with neither symmetry."""
    n, i, (x, y) = s.n, np.arange(s.n), s.points.T
    maps = [p for p, mirror in ((-i % n, (x, -y)), ((n // 2 - i) % n, (-x, y)))
            if np.allclose(s.points[p], np.transpose(mirror), rtol=0, atol=1e-12)]
    group = [i, *maps, *([maps[0][maps[1]]] if len(maps) == 2 else [])]
    columns = []
    for signs in itertools.product((1, -1), repeat=len(maps)):
        chi = [1, *signs[::-1], *([signs[0] * signs[1]] if len(maps) == 2 else [])]
        for rep in (j for j in range(n) if j == min(g[j] for g in group)):
            v = np.zeros(n)
            for c, g in zip(chi, group):
                v[g[rep]] += c
            if np.any(v):
                columns.append(v / np.linalg.norm(v))
    return np.array(columns).T


@pytest.fixture
def class_basis():
    """Q of a sample (see _class_basis), a test-side reference that reads nothing
    of :mod:`bie`: bie's blocks of a matrix A are the diagonal blocks of Q^T A Q."""
    return _class_basis


@pytest.fixture
def node_matrix():
    """The dense matrix, in the basis of the sample's nodes, of a
    :class:`linalg.BlockDiag` in its class coordinates (Q diag(blocks) Q^T), as
    bie's M(z) and trace ratios are."""
    def dense(s, M: linalg.BlockDiag) -> np.ndarray:
        Q = _class_basis(s)
        return Q @ sla.block_diag(*M.blocks) @ Q.T
    return dense
