"""Per-layer tracing of tevsolve from outside the program.

The tracer replaces each traced public function by a timing wrapper under
every name it is looked up by.  The modules bind names at import
(``from .special import hankel1``), so a function is patched in every loaded
``tevsolve`` module whose namespace holds it: patching ``tevsolve.special``
alone would miss ``tevsolve.bie.hankel1``.  ``linalg.*`` and
``beyn.residual`` are looked up at call time and ``HelmholtzNep.__call__``
through the class, which the same rule covers.

Counters are shared by Beyn's node threads and the sweep thread pool, so
every update takes a lock.  Each thread keeps a stack of open spans: a span's
duration is added to its parent's child time (for self times), and a span
with no traced parent on its thread is a root, whose interval counts as time
the studies layer spent waiting on the layers below it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); the span name groups a function into its layer
TARGETS = (
    ("special", "hankel1", "special.hankel1"),
    ("special", "bessel_j", "special.bessel_j"),
    ("special", "bessel_j_prime", "special.bessel_j_prime"),
    ("special", "bessel_j_second", "special.bessel_j_second"),
    ("geometry", "parse_shape", "geometry.parse_shape"),
    ("geometry", "sample", "geometry.sample"),
    ("bie", "assemble_single_layer", "bie.assemble_single_layer"),
    ("bie", "assemble_adjoint_double_layer", "bie.assemble_adjoint_double_layer"),
    ("linalg", "lu_factor", "linalg.lu_factor"),
    ("linalg", "lu_apply", "linalg.lu_apply"),
    ("linalg", "svd", "linalg.svd"),
    ("linalg", "singular_values", "linalg.singular_values"),
    ("linalg", "eig_dense", "linalg.eig_dense"),
    ("beyn", "beyn_solve", "beyn.beyn_solve"),
    ("beyn", "residual", "beyn.residual"),
    ("disk", "disk_determinant", "disk.disk_determinant"),
    ("disk", "real_roots", "disk.real_roots"),
)

# per_layer metrics of BENCHMARK.json: name -> (unit, better)
METRICS = {
    "special.hankel1.points": ("count", "lower"),
    "special.bessel_j.points": ("count", "lower"),
    "special.bessel_j_prime.points": ("count", "lower"),
    "special.busy_s": ("s", "lower"),
    "geometry.sample.calls": ("count", "lower"),
    "geometry.busy_s": ("s", "lower"),
    "bie.assemble_single_layer.calls": ("count", "lower"),
    "bie.assemble_adjoint_double_layer.calls": ("count", "lower"),
    "bie.assemble.busy_s": ("s", "lower"),
    "bie.assemble.self_s": ("s", "lower"),
    "bie.nep.calls": ("count", "lower"),
    "bie.nep.busy_s": ("s", "lower"),
    "bie.trace_ratio.hit_ratio": ("ratio", "higher"),
    "linalg.lu_factor.calls": ("count", "lower"),
    "linalg.lu_factor.busy_s": ("s", "lower"),
    "linalg.lu_apply.busy_s": ("s", "lower"),
    "linalg.svd.calls": ("count", "lower"),
    "linalg.svd.busy_s": ("s", "lower"),
    "linalg.eig_dense.calls": ("count", "lower"),
    "beyn.contours": ("count", "lower"),
    "beyn.busy_s": ("s", "lower"),
    "beyn.post_nep_calls": ("count", "lower"),
    "beyn.residual.calls": ("count", "lower"),
    "beyn.eigenvalues": ("count", "higher"),
    "beyn.accept_ratio": ("ratio", "higher"),
    "disk.scan_points": ("count", "lower"),
    "disk.scalar_evals": ("count", "lower"),
    "disk.real_roots.calls": ("count", "lower"),
    "disk.roots": ("count", "higher"),
    "disk.busy_s": ("s", "lower"),
    "studies.points": ("count", "higher"),
    "studies.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _points(args, kwargs) -> dict:
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["z"]))}


def _determinant_points(args, kwargs) -> dict:
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"scan_points": int(np.size(k))} if np.ndim(k) else {"scalar_evals": 1}


def _contour_nodes(args, kwargs) -> dict:
    contour = args[1] if len(args) > 1 else kwargs["contour"]
    return {"nodes": contour.quad_points}


# extra counters per span name, from the call's arguments and its result
_ARG_COUNTS = {
    "special.hankel1": _points,
    "special.bessel_j": _points,
    "special.bessel_j_prime": _points,
    "disk.disk_determinant": _determinant_points,
    "beyn.beyn_solve": _contour_nodes,
}
_RESULT_COUNTS = {
    "disk.real_roots": lambda res: {"roots": len(res)},
    "beyn.beyn_solve": lambda res: {"eigenvalues": len(res)},
}


class Tracer:
    """Counts and times the traced functions while installed (a context manager)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.roots: list[tuple[float, float]] = []

    def __enter__(self) -> "Tracer":
        from tevsolve.bie import HelmholtzNep

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tevsolve" or name.startswith("tevsolve."))]
        for module, func, span in TARGETS:
            original = getattr(sys.modules[f"tevsolve.{module}"], func)
            wrapped = self._wrap(original, span)
            for m in modules:
                if m.__dict__.get(func) is original:
                    self._patch(m, func, wrapped)
        self._patch(HelmholtzNep, "__call__", self._wrap(HelmholtzNep.__call__, "bie.nep"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, span: str):
        arg_counts = _ARG_COUNTS.get(span)
        result_counts = _RESULT_COUNTS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time of the spans nested in this one, on this thread
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                extra = arg_counts(args, kwargs) if arg_counts else {}
                with self._lock:
                    self.calls[span] += 1
                    self.busy[span] += end - start
                    self.child[span] += frame[0]
                    for key, value in extra.items():
                        self.counts[f"{span}.{key}"] += value
                    if not stack:
                        self.roots.append((start, end))
            if result_counts:
                with self._lock:
                    for key, value in result_counts(result).items():
                        self.counts[f"{span}.{key}"] += value
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def covered(self, start: float, end: float) -> float:
        """Length of [start, end] covered by root spans (the union, over threads)."""
        total, reach = 0.0, start
        for a, b in sorted(self.roots):
            a, b = max(a, reach), min(b, end)
            if b > a:
                total += b - a
                reach = b
        return total

    def metrics(self, start: float, end: float, points: int) -> dict[str, float]:
        """The per-layer metrics of a traced pass over [start, end] (perf_counter).

        trace.overhead_s needs an untraced pass and is added by the runner.
        """
        c, b, n = self.calls, self.busy, self.counts
        special = ("special.hankel1", "special.bessel_j", "special.bessel_j_prime",
                   "special.bessel_j_second")
        assemble = ("bie.assemble_single_layer", "bie.assemble_adjoint_double_layer")
        nodes = n["beyn.beyn_solve.nodes"]
        residuals = c["beyn.residual"]
        return {
            "special.hankel1.points": n["special.hankel1.points"],
            "special.bessel_j.points": n["special.bessel_j.points"],
            "special.bessel_j_prime.points": n["special.bessel_j_prime.points"],
            "special.busy_s": sum(b[s] for s in special),
            "geometry.sample.calls": c["geometry.sample"],
            "geometry.busy_s": b["geometry.sample"] + b["geometry.parse_shape"],
            "bie.assemble_single_layer.calls": c["bie.assemble_single_layer"],
            "bie.assemble_adjoint_double_layer.calls": c["bie.assemble_adjoint_double_layer"],
            "bie.assemble.busy_s": sum(b[s] for s in assemble),
            "bie.assemble.self_s": sum(b[s] - self.child[s] for s in assemble),
            "bie.nep.calls": c["bie.nep"],
            "bie.nep.busy_s": b["bie.nep"],
            "bie.trace_ratio.hit_ratio": (
                1.0 - c["bie.assemble_single_layer"] / (2 * c["bie.nep"]) if c["bie.nep"] else 0.0),
            "linalg.lu_factor.calls": c["linalg.lu_factor"],
            "linalg.lu_factor.busy_s": b["linalg.lu_factor"],
            "linalg.lu_apply.busy_s": b["linalg.lu_apply"],
            "linalg.svd.calls": c["linalg.svd"] + c["linalg.singular_values"],
            "linalg.svd.busy_s": b["linalg.svd"] + b["linalg.singular_values"],
            "linalg.eig_dense.calls": c["linalg.eig_dense"],
            "beyn.contours": c["beyn.beyn_solve"],
            "beyn.busy_s": b["beyn.beyn_solve"],
            # every M(k) call happens inside beyn_solve; the first `nodes` are the quadrature
            "beyn.post_nep_calls": c["bie.nep"] - nodes if nodes else 0,
            "beyn.residual.calls": residuals,
            "beyn.eigenvalues": n["beyn.beyn_solve.eigenvalues"],
            "beyn.accept_ratio": (
                n["beyn.beyn_solve.eigenvalues"] / residuals if residuals else 0.0),
            "disk.scan_points": n["disk.disk_determinant.scan_points"],
            "disk.scalar_evals": n["disk.disk_determinant.scalar_evals"],
            "disk.real_roots.calls": c["disk.real_roots"],
            "disk.roots": n["disk.real_roots.roots"],
            "disk.busy_s": b["disk.real_roots"],
            "studies.points": points,
            "studies.self_s": (end - start) - self.covered(start, end),
        }
