"""Material parameters of the two-conductivity-parameter transmission problem."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

REGIME_A = "A"
REGIME_B = "B"
REGIME_OUTSIDE = "outside"


@dataclass(frozen=True)
class MaterialParams:
    """Constant refractive index n and conductive boundary parameters (eta, lam).

    lam = 1 is accepted: it is the one-parameter limit problem used as the
    baseline of the lam -> 1 convergence studies.
    """

    n: float
    eta: float
    lam: float

    def __post_init__(self):
        for name in ("n", "eta", "lam"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"{name} must be a finite real number, got {v!r}")
        if self.n <= 0:
            raise ConfigError(f"refractive index n must be positive, got {self.n}")
        if self.lam <= 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")

    @property
    def sqrt_n(self) -> float:
        return math.sqrt(self.n)

    def regime(self) -> str:
        """Classify the parameter regime.

        "A":  lam > 1, eta < 0 and lam*n < 1 (existence/monotonicity regime
              with eigenvalue lower bound k^2 >= mu_1(D));
        "B":  lam < 1, eta > 0 and lam*n > 1 (lower bound k^2 >= mu_1(D)/n);
        "outside" otherwise.  Computations are allowed in any regime; the
        theory-backed properties are only asserted inside A or B.
        """
        if self.lam > 1 and self.eta < 0 and self.lam * self.n < 1:
            return REGIME_A
        if self.lam < 1 and self.eta > 0 and self.lam * self.n > 1:
            return REGIME_B
        return REGIME_OUTSIDE

    def replace(self, **kwargs) -> "MaterialParams":
        return dataclasses.replace(self, **kwargs)
