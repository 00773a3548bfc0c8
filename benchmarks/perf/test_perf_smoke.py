"""Smoke test of the benchmark itself: ``pytest benchmarks/perf``.

Not part of tier-1 (``testpaths`` is ``tests``).  Runs ``run.py --smoke``
twice on one seed — tiny graphs, one op per workload, both the end-to-end
and the traced run — and checks the shape of what comes out.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402


def _smoke_run() -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "7"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> "tuple[dict, dict]":
    return _smoke_run(), _smoke_run()


def test_result_shape_and_names(runs):
    first, _ = runs
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    for name, mv in first["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert set(mv) == {"value", "unit"}


def test_every_applicable_metric_is_measured(runs):
    first, _ = runs
    catalogue = spec.load_catalogue()
    for name, mv in first["metrics"].items():
        assert mv["value"] is not None, f"{name} is null"
    for w in spec.WORKLOADS:
        for m in catalogue["end_to_end"]:
            assert f"{w}.{m['name']}" in first["metrics"], (w, m["name"])
    # Every listed per-layer metric applies to, and is emitted by, at
    # least one workload.
    for m in catalogue["per_layer"]:
        assert any(f"{w}.{m['name']}" in first["metrics"] for w in spec.WORKLOADS), m["name"]


def test_nothing_failed(runs):
    for run in runs:
        assert run["correct"] is True
        assert run["failed"] == 0
        for w in spec.WORKLOADS:
            assert run["metrics"][f"{w}.ok_frac"]["value"] == 1.0


def test_exact_metrics_repeat(runs):
    first, second = runs
    for w in spec.WORKLOADS:
        for name in spec.EXACT_METRICS:
            key = f"{w}.{name}"
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
