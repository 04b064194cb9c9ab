"""tevsolve benchmark: four disk and boundary-integral studies, timed end to end
and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
Each pass of the workload runs in a fresh process (perfbench/worker.py);
passes repeat until they have measured S seconds, at least one.  The studies
run with JOBS = 2 threads and every OpenBLAS copy pinned to one thread, so
that jobs x BLAS threads <= nproc on the 2-core reference machine.

--trace 0 reports the end-to-end metrics: setup_s (median of several
process starts to the first solve call), wall_s and peak_rss_mib (medians over
the passes).  --trace 1 runs untraced passes, then traced ones, and reports
the per-layer metrics of the traced passes (medians) and trace.overhead_s.

Every distinct pass result is checked against the oracles in checks.py,
outside the timed section.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
environment record.  The full record, with every sample, is also written to
perfbench/results/.
"""

import os

# Pin both OpenBLAS copies (numpy's and scipy's) before anything loads them;
# the worker processes inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5      # set-up is timed in this many processes per run, at least
DEADLINE_S = 170.0     # a run ends within 180 s; a worker past this is stopped


def _worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker process; its output, with setup_s measured from its start."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(flags) or 'pass'} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("setup_end") - start
    return out


def _passes(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> list:
    """Passes until their timed sections add up to at least seconds."""
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < seconds:
        passes.append(_worker(workload, seed, deadline, *flags))
    return passes


def environment(blas_threads: dict, jobs: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "jobs": jobs,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "blas_threads": blas_threads,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "tevsolve" / "__init__.py").is_file():
        print(f"no tevsolve sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        plain = _passes(args.workload, args.seed, args.seconds, deadline)
        passes = _passes(args.workload, args.seed, args.seconds, deadline, "--trace")
        setups = []
    else:
        setups = [_worker(args.workload, args.seed, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        passes = plain = _passes(args.workload, args.seed, args.seconds, deadline)
        setups += [p["setup_s"] for p in passes]

    import checks

    studies = workloads.build(args.workload, args.seed)
    every = plain + passes if args.trace else passes
    failures, checked = [], {}
    attempted = failed = 0
    for p in every:
        attempted += sum(s.points for s in studies)
        failed += sum(s.points for s, r in zip(studies, p["results"]) if "error" in r)
        key = json.dumps(p["results"], sort_keys=True)
        if key not in checked:  # identical results need no second check
            checked[key] = checks.check(studies, p["results"])
            failures += checked[key]
    errors = sorted({r["error"] for p in every for r in p["results"] if "error" in r})

    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        from tracer import METRICS

        layers = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in METRICS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in passes) - wall
        metrics = {name: _metric(value, METRICS[name][0]) for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(wall, "s"),
            "peak_rss_mib": _metric(statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        }

    env = environment(passes[0]["blas_threads"], workloads.JOBS)
    if any(n != BLAS_THREADS for n in env["blas_threads"].values()):
        print(f"warning: BLAS pin not in effect: {env['blas_threads']}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "result": result,
        "check_failures": failures, "errors": errors, "setup_samples": setups,
        "wall_samples": [p["wall_s"] for p in plain],
        "traced_wall_samples": [p["wall_s"] for p in passes] if args.trace else [],
        "peak_rss_samples": [p["peak_rss_mib"] for p in passes],
        "results": passes[0]["results"],
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in failures + errors:
        print(line, file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
