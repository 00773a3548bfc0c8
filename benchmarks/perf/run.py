#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, every output checked.

    python benchmarks/perf/run.py [--seed 42] [--workload NAME]
                                  [--trace [0|1]] [--seconds N] [--smoke]

Each workload runs as a *prepare* subprocess (generate, tile, save — timed
as ``setup_s``) and then a fresh *measure* subprocess that loads the graph,
warms up once, runs ops for ``--seconds`` and checks every result against
an independent oracle.  ``--trace 1`` runs the per-layer variant instead
(see ``layer_walk.py``); without ``--trace`` both runs are made.  Every run
leaves one fingerprinted JSON under ``raw/`` for ``compare.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--workload``
its metrics are the ones ``BENCHMARK.json`` lists (end-to-end for
``--trace 0``, per-layer for ``--trace 1``); without, every workload's
metrics, named ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: Hard stop for one subprocess; the driver allows a whole run 180 s.
PHASE_TIMEOUT_S = 150


def _phase(phase: str, workload: str, seed: int, workdir: str,
           seconds: float, smoke: bool) -> dict:
    cmd = [sys.executable, WORKER, phase, "--workload", workload,
           "--seed", str(seed), "--dir", workdir, "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PHASE_TIMEOUT_S,
                          env={**os.environ, **spec.PROCESS_ENV})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: {phase} phase exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One run of one workload; returns (and files under raw/) its record."""
    os.makedirs(spec.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=spec.WORK_DIR)
    try:
        # setup_s is a median over repeats; the traced run reports no
        # setup_s, so it sets up once.
        repeats = 1 if (trace or smoke) else spec.SETUP_REPEATS
        setups = [
            _phase("prepare", name, seed, workdir, 0, smoke)
            for _ in range(repeats)
        ]
        phase = "trace" if trace else "measure"
        out = _phase(phase, name, seed, workdir, seconds, smoke)
        if not trace:
            out["metrics"]["setup_s"] = median(s["setup_s"] for s in setups)
            out["setup_raw_s"] = median(s["setup_raw_s"] for s in setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "fingerprint": spec.fingerprint(seed),
        "attempted": out["attempted"],
        "failed": min(len(out["failures"]), out["attempted"]),
        "failures": sorted(set(out["failures"])),
        "errors": out.get("errors", {}),
        "metrics": out["metrics"],
        # Untraced runs: every op's time in reference-machine seconds and
        # as measured, and the calibration they were scaled by.
        **{key: out[key] for key in (
            "op_latencies_s", "op_latencies_raw_s", "machine_slowdown",
            "setup_raw_s") if key in out},
    }
    os.makedirs(spec.RAW_DIR, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    path = os.path.join(
        spec.RAW_DIR, f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def listed_metrics(record: dict, catalogue: dict, fill: bool) -> dict:
    """The record's metrics in the shape and order BENCHMARK.json lists.

    ``ok_frac`` is ``1 - fail_frac`` (the driver wants metrics that are
    never 0).  A per-layer metric whose layer could not be walked reads
    null.  One that does not apply to the workload is left out, or with
    ``fill`` — the driver wants every listed metric on every workload —
    reads 0.
    """
    values = dict(record["metrics"])
    if "fail_frac" in values:
        values["ok_frac"] = 1.0 - values["fail_frac"]
    section = "per_layer" if record["trace"] else "end_to_end"
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in catalogue[section]
        if fill or m["name"] in values
    }


def print_record(record: dict, catalogue: dict) -> None:
    kind = "per-layer (traced run)" if record["trace"] else "end-to-end"
    print(f"\n== {record['workload']} · {kind} · seed "
          f"{record['fingerprint']['seed']} · {record['attempted']} ops, "
          f"{record['failed']} failed ==")
    for name, mv in listed_metrics(record, catalogue, fill=False).items():
        if mv["value"] is None:
            shown = f"null   ({record['errors'][name]})"
        else:
            shown = f"{mv['value']:.6g}"
        print(f"  {name:<36} {shown:>14} {mv['unit']}")
    if not record["trace"]:
        print(f"  {'fail_frac':<36} {record['metrics']['fail_frac']:>14.6g} frac")
        # Times above are in reference-machine seconds (spec.normalised).
        print(f"  {'(machine slowdown vs reference)':<36} "
              f"{record['machine_slowdown']:>14.3f} x")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS),
                    help="run one workload (default: all six)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                    choices=(0, 1),
                    help="1: per-layer run only; 0: end-to-end run only; "
                         "absent: both")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, one op each, under a minute in all")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(spec.SRC, "repro")):
        sys.stderr.write("benchmarks/perf: src/repro not found; the "
                         "benchmark measures the repository it sits in\n")
        return 2
    catalogue = spec.load_catalogue()
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else catalogue["run_seconds"])
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = (False, True) if args.trace is None else (bool(args.trace),)

    records = [
        run_workload(name, args.seed, seconds, trace, args.smoke)
        for name in names for trace in traces
    ]
    for record in records:
        print_record(record, catalogue)

    failed = sum(r["failed"] for r in records)
    if args.workload and len(records) == 1:
        metrics = listed_metrics(records[0], catalogue, fill=True)
    else:
        metrics = {
            f"{r['workload']}.{name}": mv
            for r in records
            for name, mv in listed_metrics(r, catalogue, fill=False).items()
        }
    print()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
