import numpy as np
import pytest
import scipy.special as sp

from tevsolve import special


@pytest.fixture
def amos_points(monkeypatch):
    """The argument sizes of every Amos K_m and J_m call that :mod:`special`
    makes, in order."""
    points = []
    for name in ("kv", "jv"):
        amos = getattr(sp, name)
        monkeypatch.setattr(special._sp, name,
                            lambda m, z, amos=amos: points.append(np.size(z)) or amos(m, z))
    return points
