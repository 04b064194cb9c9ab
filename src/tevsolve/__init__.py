"""Interior transmission eigenvalues of an acoustic scatterer whose boundary
carries two conductive parameters (eta, lambda), for a 2D medium with constant
refractive index n.

Two solver paths cross-validate each other:

* unit disk: exact angular-mode determinants, with real-axis bracketing and
  complex roots from argument-principle counts (:mod:`tevsolve.disk`);
* general smooth boundary: a spectrally accurate Nystrom discretization of
  the single/adjoint-double layer operators assembled into a holomorphic
  matrix family (:mod:`tevsolve.bie`), solved by a contour-integral
  eigensolver (:mod:`tevsolve.beyn`).

:mod:`tevsolve.studies` adds the experiment harness (spectra, lambda -> 1
convergence orders, monotonicity sweeps, determinant grids) behind the
``tevsolve`` command line.
"""

from .errors import TevError
from .materials import MaterialParams
from .studies import (
    StudyConfig,
    config_from_dict,
    run_contour_grid,
    run_convergence_study,
    run_monotonicity_sweep,
    run_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "StudyConfig",
    "TevError",
    "config_from_dict",
    "run_contour_grid",
    "run_convergence_study",
    "run_monotonicity_sweep",
    "run_spectrum",
    "__version__",
]
