"""BENCHMARK.json against the code, and the runner without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import METRICS

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == METRICS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_runner_fails_without_sources(tmp_path):
    # only BENCHMARK.json and the benchmark's own files: no result, nonzero exit
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "disk-lambda", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
