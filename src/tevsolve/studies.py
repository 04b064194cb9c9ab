"""Experiment harness: spectrum runs, lam -> 1 convergence studies with EOC,
monotonicity sweeps, and |det_m| grids, with CSV/JSON emission.

A StudyConfig bundles the shape, material parameters, solver method and its
settings; the run_* functions return typed row lists that the writers emit
with exact headers:

    spectrum  re_k,im_k,multiplicity,residual,mode_m,source
    converge  p,lambda,k1,eoc1,k2,eoc2,k3,eoc3
    sweep     param,k1,k2,k3,verdict1,verdict2,verdict3
    grid      re_k,im_k,abs_dm

Floats are written with 17 significant digits so that emitted CSV re-parses
to the in-memory values exactly; display tables round to 4 decimals.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .beyn import BeynConfig, ContourSpec, NepEigenvalue, beyn_solve
from .bie import HelmholtzNep
from .disk import (
    DEFAULT_K_MIN,
    DEFAULT_M_MAX,
    DiskEigenvalue,
    complex_roots,
    determinant_grid,
    real_roots,
    real_roots_many,
)
from .errors import ConfigError, NumericalError, TrackingLost
from .geometry import BoundaryCurve, parse_shape, sample
from .linalg import _map
from .materials import REGIME_OUTSIDE, MaterialParams
from .special import MAX_ORDER

logger = logging.getLogger(__name__)

REAL_IMAG_TOL = 5.0e-4     # |im k| below this classifies an eigenvalue as real
MERGE_TOL = 1.0e-6         # per-mode merge distance of determinant roots
DISTINCT_TOL = 1.0e-9      # distinct-k tolerance for table columns


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
def _parse_mu(value) -> complex:
    """A contour center from a number, a [re, im] pair or a string like 2.2+0.6i."""
    if isinstance(value, str):
        z = complex(value.replace("i", "j").replace(" ", ""))
        value = [z.real, z.imag]
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0]), _real(value[1]))
    return complex(_real(value))


@dataclass(frozen=True)
class DeterminantSettings:
    m_max: int = DEFAULT_M_MAX
    k_range: tuple[float, float] = (DEFAULT_K_MIN, 10.0)
    tol: float = 1.0e-10
    complex_region: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class BieSettings:
    nodes: int = 120
    contours: tuple[ContourSpec, ...] = ()
    beyn: BeynConfig = field(default_factory=BeynConfig)


@dataclass(frozen=True)
class StudyConfig:
    shape: str = "circle:r=1"
    material: MaterialParams = field(default_factory=lambda: MaterialParams(4.0, -0.01, 2.0))
    method: str = "determinant"
    determinant: DeterminantSettings = field(default_factory=DeterminantSettings)
    bie: BieSettings = field(default_factory=BieSettings)
    sweep_field: str | None = None
    sweep_values: tuple[float, ...] = ()
    converge_side: str = "below"
    converge_p_max: int = 10
    grid_region: tuple[float, float, float, float] = (0.0, 10.0, -1.0, 1.0)
    grid_shape: tuple[int, int] = (400, 200)
    grid_m: int = 0
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 0  # 0: one thread per CPU this process may run on

    def __post_init__(self):
        if self.method not in ("determinant", "bie"):
            raise ConfigError(f"method must be 'determinant' or 'bie', got {self.method!r}")
        if self.curve != parse_shape("circle") and self.method == "determinant":
            raise ConfigError(f"the determinant method takes only the unit circle: {self.shape!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if self.converge_side not in ("below", "above"):
            raise ConfigError(f"side must be 'below' or 'above', got {self.converge_side!r}")
        if self.converge_p_max < 1 or lambda_at(self.converge_side, self.converge_p_max) == 1.0:
            raise ConfigError(f"p_max must be >= 1 with lambda_p != 1.0, got {self.converge_p_max}")
        if not 0 <= self.grid_m <= MAX_ORDER:
            raise ConfigError(f"grid m must be in 0..{MAX_ORDER}, got {self.grid_m}")
        if self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0 (0: all cores), got {self.jobs}")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"out: the directory of {self.out!r} does not exist")
        if self.sweep_field is not None:
            if self.sweep_field not in ("n", "eta", "lambda"):
                raise ConfigError(f"sweep field must be n, eta or lambda, got {self.sweep_field!r}")
            diffs = np.diff(self.sweep_values)
            if not self.sweep_values or not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise ConfigError("sweep values must be a nonempty, strictly monotone list")

    @cached_property
    def curve(self) -> BoundaryCurve:
        """The parsed shape; __post_init__ reads it first, so a bad shape fails construction."""
        return parse_shape(self.shape)

    @property
    def effective_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        if hasattr(os, "sched_getaffinity"):  # honours taskset and container CPU sets
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# configuration schema: one table for the JSON document and the flags
# ---------------------------------------------------------------------------
COMMANDS = ("spectrum", "grid", "converge", "sweep")


@dataclass(frozen=True)
class ConfigKey:
    """One configuration key: its JSON path, value parser and flag.

    ``path`` is dotted, and ``[]`` marks the items of a JSON list.  ``parse``
    turns the JSON value into keyword ``arg`` (default: the key's name) of
    the object its section builds; ValueError or TypeError reject the value.
    The flag belongs to ``commands``, and a ``comma`` flag takes a list.  A
    key absent from its section takes the value of the sibling it ``follows``.
    """

    path: str
    parse: Callable
    flag: str | None = None
    help: str | None = None
    arg: str | None = None
    commands: tuple[str, ...] = COMMANDS
    choices: tuple[str, ...] | None = None
    comma: bool = False
    required: bool = False
    alias: str | None = None
    follows: str | None = None

    @property
    def section(self) -> str:
        return self.path.rpartition(".")[0]

    @property
    def name(self) -> str:
        return self.path.rpartition(".")[2]


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _real(value) -> float:
    """A finite float from a JSON number or a flag string; no boolean, NaN or inf."""
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    if not math.isfinite(value := float(value)):
        raise ValueError("expected a finite number")
    return value


def _integer(value) -> int:
    """An int from a JSON integer, a whole-valued JSON float or a flag string;
    booleans and fractional values are rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError("expected an integer")
    return int(value)


def _numbers(count: int | None = None):
    def parse(value) -> tuple:
        if not isinstance(value, list) or count not in (None, len(value)):
            raise ValueError(f"expected a list of {count or 'some'} numbers")
        return tuple(_real(v) for v in value)
    return parse


def _or_none(parse):
    return lambda value: None if value is None else parse(value)


def _section(path: str, build=dict) -> ConfigKey:
    """A JSON object read through the keys below it; a dict merges into its parent."""
    return ConfigKey(path, lambda obj: build(**_read(obj, path)))


def _list(path: str, build) -> ConfigKey:
    """A JSON list of objects, each read through the keys below path[]."""
    def parse(items) -> tuple:
        if not isinstance(items, list):
            raise TypeError("expected a list")
        return tuple(build(**_read(item, path + "[]")) for item in items)
    return ConfigKey(path, parse)


def _grid(nx=None, ny=None, **kwargs) -> dict:
    if nx is not None or ny is not None:
        default_nx, default_ny = StudyConfig.grid_shape
        kwargs["grid_shape"] = (default_nx if nx is None else nx, default_ny if ny is None else ny)
    return kwargs


CONFIG_KEYS = (
    ConfigKey("shape", _text, "--shape", "circle:r=1 | ellipse:a=1,b=1.2 | kite"),
    _section("material", MaterialParams),
    ConfigKey("material.n", _real, "--n", "refractive index", required=True),
    ConfigKey("material.eta", _real, "--eta", "first conductivity parameter", required=True),
    ConfigKey("material.lambda", _real, "--lambda", "second conductivity parameter",
              arg="lam", required=True, alias="lam"),
    ConfigKey("method", _text, "--method", choices=("determinant", "bie")),
    _section("determinant", DeterminantSettings),
    ConfigKey("determinant.m_max", _integer, "--m-max", "largest angular mode (determinant)"),
    ConfigKey("determinant.k_range", _numbers(2), "--k-range",
              "real scan window, e.g. 0.01,10 (determinant)", comma=True),
    ConfigKey("determinant.tol", _real),
    ConfigKey("determinant.complex_region", _or_none(_numbers(4)), "--complex-region",
              "re0,re1,im0,im1 complex search window (determinant)", commands=("spectrum",),
              comma=True),
    _section("bie", BieSettings),
    ConfigKey("bie.nodes", _integer, "--nodes", "boundary quadrature nodes (bie)"),
    _list("bie.contours", partial(ContourSpec, radius=0.5)),
    ConfigKey("bie.contours[].mu", _parse_mu, "--mu",
              "comma list of contour centers, e.g. 0.5,1.5 or 2.2+0.6i", arg="center",
              comma=True, required=True, alias="center"),
    ConfigKey("bie.contours[].radius", _real, "--radius", "contour radius (default 0.5)"),
    ConfigKey("bie.contours[].quad_points", _integer, "--quad-points",
              "contour quadrature nodes (default 24)"),
    _section("bie.beyn", BeynConfig),
    ConfigKey("bie.beyn.probe_columns", _integer),
    ConfigKey("bie.beyn.residual_tol", _real),
    ConfigKey("bie.beyn.seed", _integer),
    _section("converge"),
    ConfigKey("converge.side", _text, "--side", arg="converge_side", commands=("converge",),
              choices=("below", "above")),
    ConfigKey("converge.p_max", _integer, "--pmax", arg="converge_p_max", commands=("converge",)),
    _section("sweep"),
    ConfigKey("sweep.field", _text, "--sweep-field", arg="sweep_field", commands=("sweep",),
              choices=("n", "eta", "lambda"), required=True),
    ConfigKey("sweep.values", _numbers(), "--sweep-values", "comma list of swept values",
              arg="sweep_values", commands=("sweep",), comma=True),
    _section("grid", _grid),
    ConfigKey("grid.region", _numbers(4), "--region", "re0,re1,im0,im1 (default 0,10,-1,1)",
              arg="grid_region", commands=("grid",), comma=True),
    ConfigKey("grid.nx", _integer, "--nx", commands=("grid",)),
    ConfigKey("grid.ny", _integer, "--ny", commands=("grid",), follows="nx"),
    ConfigKey("grid.m", _integer, "--m", "angular mode of the grid determinant", arg="grid_m",
              commands=("grid",)),
    ConfigKey("out", _or_none(_text), "--out", "output file path"),
    ConfigKey("format", _text, "--format", arg="fmt", choices=("csv", "json")),
    ConfigKey("jobs", _integer, "--jobs", "worker threads (default: hardware)"),
)


def config_from_dict(data: dict) -> StudyConfig:
    """Build a StudyConfig from a parsed JSON document through CONFIG_KEYS.

    Unknown keys at any depth, missing required keys and values that do not
    parse raise ConfigError.
    """
    return StudyConfig(**_read(data, ""))


def _expect_object(node, section: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{section or 'config document'} must be a JSON object")


def _read(obj, section: str) -> dict:
    """Keyword arguments of the object that one section of the document builds."""
    _expect_object(obj, section)
    keys = [k for k in CONFIG_KEYS if k.section == section]
    unknown = sorted(set(obj) - {n for k in keys for n in (k.name, k.alias)})
    if unknown:
        raise ConfigError(f"unknown config keys in {section or 'config document'}: {unknown}")
    kwargs = {}
    for key in keys:
        name = next((n for n in (key.name, key.alias, key.follows) if n in obj), None)
        if name is None:
            if key.required:
                raise ConfigError(f"missing key {key.path}")
            continue
        try:
            value = key.parse(obj[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key.path}: cannot parse {obj[name]!r}: {exc}") from exc
        if isinstance(value, dict):
            kwargs.update(value)
        else:
            kwargs[key.arg or key.name] = value
    return kwargs


def write_flag(doc: dict, key: ConfigKey, value) -> None:
    """Write a flag's value into a config document at its key's path.

    A flag on a list-item key sets it in every item of the list, but a comma
    flag replaces the list with one item per value.  A section the document
    lacks starts from the defaults of its required keys: a lone --n keeps the
    default eta and lambda.  Keys that follow the written key are dropped.
    """
    node, section = doc, ""
    for part in key.section.split(".") if key.section else ():
        _expect_object(node, section)
        section = f"{section}.{part}".lstrip(".")
        if part.endswith("[]"):
            items = node.get(part[:-2])
            if key.comma:
                node[part[:-2]] = [{key.name: v} for v in value]
            elif isinstance(items, list):
                for item in items:
                    if isinstance(item, dict):
                        item[key.name] = value
            return
        if part not in node:
            default = getattr(StudyConfig(), part, None)
            node[part] = {k.name: getattr(default, k.arg or k.name) for k in CONFIG_KEYS
                          if k.section == section and k.required and default is not None}
        node = node[part]
    _expect_object(node, section)
    node[key.name] = value
    for other in CONFIG_KEYS:
        if other.section == key.section and other.follows == key.name:
            node.pop(other.name, None)


# ---------------------------------------------------------------------------
# eigenvalue collection
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpectrumRow:
    re_k: float
    im_k: float
    multiplicity: int
    residual: float
    mode_m: int          # angular mode for determinant entries, -1 for BIE
    source: str


def _rows_from_disk(eigs: list[DiskEigenvalue]) -> list[SpectrumRow]:
    return [
        SpectrumRow(e.k.real, e.k.imag, e.multiplicity, e.residual, e.mode_m, "determinant")
        for e in eigs
    ]


def _rows_from_nep(eigs: list[NepEigenvalue]) -> list[SpectrumRow]:
    return [
        SpectrumRow(
            e.k.real, e.k.imag, e.multiplicity, e.residual, -1,
            f"beyn:{e.contour.label()}" if e.contour else "beyn",
        )
        for e in eigs
    ]


def _bie_eigenvalues(cfg: StudyConfig, nep: HelmholtzNep, partial_errors: list | None = None
                     ) -> list[NepEigenvalue]:
    """Union of Beyn solves over the configured contours, deduplicated."""
    if not cfg.bie.contours:
        raise ConfigError("bie method requires at least one contour")
    found: list[NepEigenvalue] = []
    for contour in cfg.bie.contours:
        try:
            found.extend(beyn_solve(nep, contour, cfg.bie.beyn, jobs=cfg.effective_jobs))
        except NumericalError as exc:
            if partial_errors is None:
                raise
            logger.warning("contour %s failed: %s", contour.label(), exc)
            partial_errors.append((contour, exc))
    # An eigenvalue in the overlap of two contours comes back twice.  Copies
    # within merge_radius are one eigenvalue (the radius beyn_solve merges
    # with inside a contour); the copy lying deepest inside its own contour,
    # where Beyn's method is most accurate, is kept with its own multiplicity
    # -- both copies count the same eigenspace, so multiplicities are not summed.
    found.sort(key=_contour_depth)
    merged: list[NepEigenvalue] = []
    for e in found:
        if all(abs(u.k - e.k) > cfg.bie.beyn.merge_radius for u in merged):
            merged.append(e)
    merged.sort(key=lambda e: (e.k.real, e.k.imag))
    return merged


def _contour_depth(e: NepEigenvalue) -> float:
    """|k - mu| / R of the contour that found e: 0 at its center, 1 on its edge."""
    return abs(e.k - e.contour.center) / e.contour.radius


def _real_values(eigs) -> list[float]:
    """Distinct real-classified eigenvalue locations, ascending."""
    vals = sorted(e.k.real for e in eigs if abs(e.k.imag) <= REAL_IMAG_TOL)
    out: list[float] = []
    for v in vals:
        if not out or v - out[-1] > DISTINCT_TOL:
            out.append(v)
    return out


def _window_values(cfg: StudyConfig, points: list[MaterialParams]):
    """The distinct real eigenvalues at each point, in order.

    The determinant path scans all points and modes in one pass, on the
    pool; the BIE path solves each point when its values are asked for.
    """
    if cfg.method == "determinant":
        det = cfg.determinant
        for eigs in real_roots_many(points, det.m_max, det.k_range, det.tol,
                                    jobs=cfg.effective_jobs):
            yield _real_values(eigs)
        return
    nep = HelmholtzNep(sample(cfg.curve, cfg.bie.nodes), cfg.material)
    for params in points:
        yield _real_values(_bie_eigenvalues(cfg, nep.with_params(params)))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------
def run_spectrum(cfg: StudyConfig, partial_errors: list | None = None) -> list[SpectrumRow]:
    """All eigenvalues under the configured method, sorted by (re k, im k).

    Determinant path: real-axis bracketing over m <= m_max, plus each mode's
    complex_roots search when a complex_region is configured (a root both find
    is kept once), both with their modes on the pool.  BIE
    path: Beyn solves over every configured contour; copies of one eigenvalue
    from overlapping contours (within BeynConfig.merge_radius) merge into the
    copy lying deepest inside its contour.
    """
    if cfg.method == "determinant":
        det = cfg.determinant
        jobs = cfg.effective_jobs
        eigs = list(real_roots(cfg.material, det.m_max, det.k_range, det.tol, jobs=jobs))
        if det.complex_region is not None:
            search = partial(complex_roots, p=cfg.material, region=det.complex_region, tol=det.tol)
            eigs += [e for extra in _map(search, range(det.m_max + 1), jobs) for e in extra
                     if all(d.mode_m != e.mode_m or abs(d.k - e.k) >= MERGE_TOL for d in eigs)]
        eigs.sort(key=lambda e: (e.k.real, e.k.imag, e.mode_m))
        return _rows_from_disk(eigs)
    nep = HelmholtzNep(sample(cfg.curve, cfg.bie.nodes), cfg.material)
    return _rows_from_nep(_bie_eigenvalues(cfg, nep, partial_errors))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EocRow:
    p: int
    lam: float
    ks: tuple[float, float, float]
    eocs: tuple[float | None, float | None, float | None]
    note: str = ""


@dataclass(frozen=True)
class ConvergenceStudy:
    side: str
    limits: tuple[float, float, float]
    rows: tuple[EocRow, ...]


def compute_eoc(errors) -> list[float | None]:
    """Estimated order of convergence log2(e_p / e_{p+1}) for consecutive errors.

    Nonpositive errors make the affected entries None ("N/A"), not an error.
    """
    out: list[float | None] = []
    for a, b in zip(errors, errors[1:]):
        if a is None or b is None or a <= 0 or b <= 0:
            out.append(None)
        else:
            out.append(math.log2(a / b))
    return out


def lambda_at(side: str, p: int) -> float:
    return 1.0 - math.ldexp(1.0, -p) if side == "below" else 1.0 + math.ldexp(1.0, -p)


def run_convergence_study(cfg: StudyConfig, side: str | None = None,
                          p_max: int | None = None) -> ConvergenceStudy:
    """First three eigenvalues along lambda_p = 1 -/+ 2^-p, with EOC columns.

    The limits k_j(1) come first from the one-parameter (lambda = 1) instance
    of the same solver.  Each row lists the three smallest eigenvalues of the
    window in ascending order -- the semantics of the reference tables, whose
    columns are re-sorted per row even across branch crossings (the disk case
    with eta = 1, n = 4 really does cross between lambda = 1/2 and 3/4, which
    is what produces the outlying first EOC entry around 2.03).  A crossing,
    detected by nearest-neighbor continuation from the previous row, is
    recorded in the row note rather than silently ignored.  A window yielding
    fewer than three eigenvalues raises TrackingLost.  EOC columns compare
    |k_j(lambda_p) - k_j(1)| across consecutive rows.
    """
    cfg = replace(cfg, converge_side=side or cfg.converge_side,
                  converge_p_max=cfg.converge_p_max if p_max is None else p_max)
    side, p_max = cfg.converge_side, cfg.converge_p_max
    lams = [lambda_at(side, p) for p in range(1, p_max + 1)]
    windows = _window_values(cfg, [cfg.material.replace(lam=lam) for lam in (1.0, *lams)])

    limit_vals = next(windows)
    if len(limit_vals) < 3:
        raise TrackingLost(1.0, len(limit_vals), 3)
    limits = tuple(limit_vals[:3])

    rows: list[EocRow] = []
    previous: list[float] | None = None
    prev_errors: list[float | None] | None = None
    for p, lam, values in zip(range(1, p_max + 1), lams, windows):
        if len(values) < 3:
            raise TrackingLost(lam, len(values), 3)
        ranked = values[:3]
        note = ""
        if previous is not None:
            continued = [min(values, key=lambda v: abs(v - b)) for b in previous]
            if continued != ranked:
                note = "crossing: branch continuation disagrees with rank order"
                logger.warning("p=%d lambda=%g: %s", p, lam, note)
        previous = ranked
        errors = [abs(t - l) if abs(t - l) > 0 else None for t, l in zip(ranked, limits)]
        if prev_errors is None:
            eocs: tuple = (None, None, None)
        else:
            eocs = tuple(compute_eoc([a, b])[0] for a, b in zip(prev_errors, errors))
        prev_errors = errors
        rows.append(EocRow(p, lam, tuple(ranked), eocs, note))
    return ConvergenceStudy(side, limits, tuple(rows))


# ---------------------------------------------------------------------------
# monotonicity sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRow:
    param: float
    ks: tuple[float | None, float | None, float | None]

    @property
    def complete(self) -> bool:
        return all(v is not None for v in self.ks)


@dataclass(frozen=True)
class SweepResult:
    field: str
    rows: tuple[SweepRow, ...]
    verdicts: tuple[str, str, str]


def _column_verdict(values: list[float]) -> str:
    if len(values) < 2:
        return "ascending"
    diffs = np.diff(values)
    if np.all(diffs >= -DISTINCT_TOL):
        return "ascending"
    if np.all(diffs <= DISTINCT_TOL):
        return "descending"
    return "violated"


def run_monotonicity_sweep(cfg: StudyConfig) -> SweepResult:
    """First three eigenvalues at every sweep point, with per-column verdicts.

    Points outside regimes A and B are computed anyway with a warning; a point
    yielding fewer than three eigenvalues in the window produces an incomplete
    row (empty cells), not an error.
    """
    if cfg.sweep_field is None:
        raise ConfigError("sweep requires a swept field and value list")
    field_key = {"lambda": "lam"}.get(cfg.sweep_field, cfg.sweep_field)
    points = [cfg.material.replace(**{field_key: v}) for v in cfg.sweep_values]
    for v, params in zip(cfg.sweep_values, points):
        if params.regime() == REGIME_OUTSIDE:
            logger.warning(
                "sweep point %s=%g lies outside regimes A and B; computing anyway",
                cfg.sweep_field, v,
            )
    windows = _window_values(cfg, points)
    rows = tuple(SweepRow(v, tuple(vals[j] if j < len(vals) else None for j in range(3)))
                 for v, vals in zip(cfg.sweep_values, windows))
    verdicts = tuple(
        _column_verdict([r.ks[j] for r in rows if r.ks[j] is not None]) for j in range(3)
    )
    return SweepResult(cfg.sweep_field, rows, verdicts)


# ---------------------------------------------------------------------------
# determinant grid
# ---------------------------------------------------------------------------
def run_contour_grid(cfg: StudyConfig):
    """|det_m| lattice for contour plotting (determinant method only)."""
    if cfg.method != "determinant":
        raise ConfigError("grid is a determinant-method command")
    nx, ny = cfg.grid_shape
    return determinant_grid(cfg.grid_m, cfg.material, cfg.grid_region, nx, ny)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------
def _fmt(x) -> str:
    if x is None:
        return "N/A"
    return "%.17g" % x


def spectrum_table(rows: list[SpectrumRow]) -> list[list[str]]:
    header = ["re_k", "im_k", "multiplicity", "residual", "mode_m", "source"]
    body = [
        [_fmt(r.re_k), _fmt(r.im_k), str(r.multiplicity), _fmt(r.residual), str(r.mode_m), r.source]
        for r in rows
    ]
    return [header] + body


def converge_table(study: ConvergenceStudy) -> list[list[str]]:
    header = ["p", "lambda", "k1", "eoc1", "k2", "eoc2", "k3", "eoc3"]
    body = []
    for r in study.rows:
        cells = [str(r.p), _fmt(r.lam)]
        for k, e in zip(r.ks, r.eocs):
            cells += [_fmt(k), _fmt(e)]
        body.append(cells)
    return [header] + body


def sweep_table(result: SweepResult) -> list[list[str]]:
    header = ["param", "k1", "k2", "k3", "verdict1", "verdict2", "verdict3"]
    body = [
        [_fmt(r.param)] + [_fmt(k) if k is not None else "" for k in r.ks] + list(result.verdicts)
        for r in result.rows
    ]
    return [header] + body


def grid_table(grid) -> list[list[str]]:
    re, im, vals = grid
    body = [["re_k", "im_k", "abs_dm"]]
    for i in range(len(re)):
        for j in range(len(im)):
            body.append([_fmt(re[i]), _fmt(im[j]), _fmt(vals[i, j])])
    return body


def write_table(table: list[list[str]], out: str | None, fmt: str) -> str:
    """Serialize a header+rows table as JSON if fmt is "json", else as CSV (the
    one other format StudyConfig admits); write to out when given."""
    if fmt == "json":
        header, *rows = table
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    return text


def read_table_csv(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def display(table: list[list[str]]) -> str:
    """Human-readable rendering with floats rounded to 4 decimals."""
    header, *rows = table

    def short(cell: str) -> str:
        try:
            int(cell)
            return cell
        except ValueError:
            pass
        try:
            return f"{float(cell):.4f}"
        except ValueError:
            return cell

    out_rows = [header] + [[short(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in out_rows) for i in range(len(header))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in out_rows)
