"""One benchmark pass in its own process; the runner starts it.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Set-up is everything from process start to the first solve call: imports,
configurations and curve parsing.  The worker reports the CLOCK_MONOTONIC
time at which set-up ended, so the runner can measure set-up from the moment
it started the process.  The pass itself is timed from there to the returned
result objects; turning them into JSON and checking them happen after.

The last line of standard output is one JSON object: the set-up end time,
the pass time, the peak resident set, the BLAS thread counts, the study
results and, with --trace, the per-layer metrics.
"""

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402  (imports tevsolve: part of the timed set-up)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS copy loaded in this process.

    numpy and scipy each ship their own OpenBLAS; both must honour the pin.
    The libraries are found in /proc/self/maps and asked through ctypes.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def timed_pass(studies):
    """(results, start, end) of one pass, timed with perf_counter."""
    start = time.perf_counter()
    results = workloads.run(studies)
    return results, start, time.perf_counter()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    studies = workloads.build(args.workload, args.seed)
    setup_end = time.monotonic()
    out = {"setup_end": setup_end}
    if not args.setup_only:
        if args.trace:
            from tracer import Tracer

            with Tracer() as tracer:
                results, start, end = timed_pass(studies)
            out["layers"] = tracer.metrics(start, end, sum(s.points for s in studies))
        else:
            results, start, end = timed_pass(studies)
        out.update(
            wall_s=end - start,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            blas_threads=blas_threads(),
            results=results,
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
