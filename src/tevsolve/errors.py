"""Exception hierarchy for the solver."""


class TevError(Exception):
    """Base class for all tevsolve errors: each is a ConfigError or a NumericalError."""


class ConfigError(TevError):
    """Invalid configuration, CLI arguments, or operation preconditions."""


class GeometryError(ConfigError):
    """Degenerate boundary curve (irregular, self-touching, or misoriented): bad input."""


class NumericalError(TevError):
    """Base class for runtime numerical failures."""


class RangeError(NumericalError):
    """Argument outside the supported range of a special function."""


class SingularityError(NumericalError):
    """Evaluation too close to a kernel singularity."""


class SingularMatrix(NumericalError):
    """LU factorization hit a pivot below the singularity tolerance."""

    def __init__(self, pivot_index: int, pivot: float, tol: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        self.tol = tol
        super().__init__(
            f"matrix singular to tolerance: |pivot[{pivot_index}]| = {pivot:.3e} <= {tol:.3e}"
        )


class NumericalFailure(NumericalError):
    """Iterative linear-algebra kernel failed to converge."""


class PoleError(NumericalError):
    """Evaluation at or too close to a pole of an analytic symbol."""


class InteriorResonance(NumericalError):
    """A boundary single-layer operator is singular: the wavenumber sits on an
    interior Dirichlet eigenvalue, where the single-layer representation breaks
    down.  Shift the contour or wavenumber away from the resonance."""

    def __init__(self, wavenumber: complex):
        self.wavenumber = wavenumber
        super().__init__(f"single-layer operator singular at wavenumber {wavenumber}")


class CapacityExceeded(NumericalError):
    """Contour eigensolver probe space saturated: the zeroth moment matrix is
    numerically full rank, so there may be more eigenvalues inside the contour
    than probe columns.  Increase probe_columns or shrink the contour."""


class TrackingLost(NumericalError):
    """A study window held fewer eigenvalues than the branches it tracks."""

    def __init__(self, lam: float, found: int, needed: int):
        self.lam = lam
        self.found = found
        self.needed = needed
        super().__init__(
            f"the window at lambda = {lam:g} holds {found} eigenvalues; {needed} are needed"
        )
