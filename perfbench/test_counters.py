"""Deterministic-counter gate and output contract of the benchmark.

Two traced runs with the same seed must give identical counters for every
input, and the seed-0 counters must equal the recorded baselines.  A change
that moves a baseline must say why in CHANGES.md and update it here.
Both modes must print exactly the metrics BENCHMARK.json names, and a
directory without the package must make the run fail.

    python3 -m pytest -q perfbench/test_counters.py      # about 2 min

Tier-1 (`pytest` from the repository root) does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

GATED = ("integrate.rhs_calls", "integrate.solves", "integrate.out_points",
         "radial.jost_orders", "specfun.hankel_calls", "fields.gauge_builds",
         "scattering.excluded")

# Seed-0 counters per input at rtol 1e-11, measured with camscat 0.1.0.
BASELINE = {
    "phase_table": {
        "magnetic": {"integrate.rhs_calls": 125_244, "integrate.solves": 12,
                     "integrate.out_points": 12, "radial.jost_orders": 162,
                     "specfun.hankel_calls": 162, "fields.gauge_builds": 1,
                     "scattering.excluded": 0},
        "free": {"integrate.rhs_calls": 123_732, "integrate.solves": 12,
                 "integrate.out_points": 12, "radial.jost_orders": 162,
                 "specfun.hankel_calls": 162, "fields.gauge_builds": 1,
                 "scattering.excluded": 0},
    },
    "cam_scan": {
        "scan": {"integrate.rhs_calls": 113_142, "integrate.solves": 30,
                 "integrate.out_points": 30, "radial.jost_orders": 462,
                 "specfun.hankel_calls": 462, "fields.gauge_builds": 0,
                 "scattering.excluded": 0},
    },
    "discriminate": {
        "pair": {"integrate.rhs_calls": 251_280, "integrate.solves": 48,
                 "integrate.out_points": 12_324, "radial.jost_orders": 188,
                 "specfun.hankel_calls": 188, "fields.gauge_builds": 0,
                 "scattering.excluded": 0},
    },
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def reported(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"], proc.stdout
    return {name: m["unit"] for name, m in res["metrics"].items()}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def traced_counters(workload: str) -> dict:
    assert reported(run(workload, 1)) == declared("per_layer")
    doc = json.loads((ROOT / ".perfbench_out" /
                      f"trace-{workload}-0.json").read_text())
    return {key: {name: c[name] for name in GATED}
            for key, c in doc["counters"].items()}


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_counters_repeat_and_match_baseline(workload):
    first = traced_counters(workload)
    assert traced_counters(workload) == first
    assert first == BASELINE[workload]


def test_untraced_run_reports_end_to_end_metrics():
    assert reported(run("cam_scan", 0)) == declared("end_to_end")


def test_fails_without_the_package():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("cam_scan", 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
