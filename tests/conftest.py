import numpy as np
import pytest
import scipy.special as sp

from tevsolve import bie, special


@pytest.fixture
def amos_points(monkeypatch):
    """The argument sizes of every Amos K_m and J_m call that :mod:`special`
    makes, in order: the fit nodes of a kernel table (special.FIT_DEGREE + 1
    per call) as well as direct evaluations."""
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
    monkeypatch.setattr(bie, "_trace_ratio", lambda s, k: built.append(k) or original(s, k))
    return built
