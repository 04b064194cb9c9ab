"""The four benchmark workloads, built from the acceptance suite's configurations.

Each workload is a list of studies run through the public study API
(``tevsolve.studies``).  ``build`` makes the configurations (the set-up that
``setup_s`` times); ``run`` executes them and returns plain JSON-ready
results, one per study, which the checks in ``checks.py`` read.

A study that raises a ``TevError`` counts its material points as failed
operations instead of stopping the pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from tevsolve.beyn import BeynConfig, ContourSpec
from tevsolve.errors import TevError
from tevsolve.geometry import parse_shape
from tevsolve.materials import MaterialParams
from tevsolve.studies import (
    BieSettings,
    DeterminantSettings,
    StudyConfig,
    run_convergence_study,
    run_monotonicity_sweep,
    run_spectrum,
)

JOBS = 2          # thread-pool width of every study; the runner pins BLAS to 1 thread
P_MAX = 10        # lambda_p = 1 -/+ 2^-p, p = 1..P_MAX
EX34 = MaterialParams(4.0, -0.01, 2.0)
ELLIPSE = "ellipse:a=1,b=1.2"
NAMES = ("disk-lambda", "disk-n-sweep", "bie-spectrum", "bie-lambda")


@dataclass(frozen=True)
class Study:
    """One call into the study API: kind is converge, sweep or spectrum."""

    name: str
    kind: str
    cfg: StudyConfig
    side: str = "below"

    @property
    def points(self) -> int:
        """Material points the study solves: one per lambda, sweep value or spectrum."""
        if self.kind == "converge":
            return P_MAX + 1  # the limit lambda = 1, then p = 1..P_MAX
        if self.kind == "sweep":
            return len(self.cfg.sweep_values)
        return 1


def _disk(material, m_max, k_range, **extra) -> StudyConfig:
    return StudyConfig(material=material, method="determinant",
                       determinant=DeterminantSettings(m_max=m_max, k_range=k_range),
                       jobs=JOBS, **extra)


def _bie(material, nodes, contours, probe_columns, seed) -> StudyConfig:
    return StudyConfig(shape=ELLIPSE, material=material, method="bie",
                       bie=BieSettings(nodes=nodes, contours=contours,
                                       beyn=BeynConfig(probe_columns=probe_columns, seed=seed)),
                       jobs=JOBS)


def build(workload: str, seed: int) -> list[Study]:
    """The studies of a workload; seed becomes BeynConfig.seed on the BIE ones.

    Parses each study's boundary curve once, so a malformed shape fails here,
    in set-up, and not inside the timed pass.
    """
    if workload == "disk-lambda":
        studies = [
            Study("below (4, 1)", "converge",
                  _disk(MaterialParams(4.0, 1.0, 1.0), 6, (2.0, 4.0)), side="below"),
            Study("above (1/3, -1)", "converge",
                  _disk(MaterialParams(1.0 / 3.0, -1.0, 1.0), 6, (6.0, 8.5)), side="above"),
        ]
    elif workload == "disk-n-sweep":
        studies = [
            Study("n regime A", "sweep",
                  _disk(MaterialParams(0.25, -3.0, 2.0), 8, (3.0, 8.0), sweep_field="n",
                        sweep_values=(1 / 6, 1 / 5, 1 / 4, 1 / 3))),
            Study("n regime B", "sweep",
                  _disk(MaterialParams(4.0, 1.0, 0.5), 8, (1.0, 5.0), sweep_field="n",
                        sweep_values=(3.0, 4.0, 5.0, 6.0, 7.0))),
        ]
    elif workload == "bie-spectrum":
        contours = (ContourSpec(0.055, 0.045, 48), ContourSpec(0.75, 0.35, 24),
                    ContourSpec(1.5, 0.5, 24))
        studies = [Study("ellipse spectrum", "spectrum", _bie(EX34, 240, contours, 20, seed))]
    elif workload == "bie-lambda":
        studies = [
            Study("ellipse below (4, 1)", "converge",
                  _bie(MaterialParams(4.0, 1.0, 1.0), 120, (ContourSpec(2.5, 0.5, 24),), 24, seed),
                  side="below"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    for study in studies:
        if study.cfg.method == "bie":
            parse_shape(study.cfg.shape)
    return studies


def run(studies: list[Study]) -> list[dict]:
    """Run every study; each result is a dict with the study's output or its error."""
    out = []
    for study in studies:
        try:
            out.append(_solve(study))
        except TevError as exc:
            out.append({"error": f"{type(exc).__name__}: {exc}"})
    return out


def _solve(study: Study) -> dict:
    cfg = study.cfg
    if study.kind == "converge":
        res = run_convergence_study(cfg, side=study.side, p_max=P_MAX)
        return {"limits": list(res.limits),
                "lams": [r.lam for r in res.rows],
                "ks": [list(r.ks) for r in res.rows]}
    if study.kind == "sweep":
        res = run_monotonicity_sweep(cfg)
        return {"params": [r.param for r in res.rows],
                "ks": [list(r.ks) for r in res.rows],
                "verdicts": list(res.verdicts)}
    rows = run_spectrum(cfg)
    return {"eigenvalues": [[r.re_k, r.im_k, r.multiplicity] for r in rows]}

