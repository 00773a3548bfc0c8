#!/usr/bin/env python
"""Shard-scaling benchmark: one coordinator + K persistent shard workers.

Runs R-MAT graphs through the engine at ``shards`` 1/2/4 in the
device-paced configuration (``realize_io=True``): every shard worker
sleeps its own batches' modeled service time on its private device lane,
so K workers genuinely overlap I/O pacing *and* fetch/decode/kernel
compute — the wall-clock counterpart of G-store's partitioned-grid
concurrent streaming (§III/§VI).  The coordinator still commits every
batch's simulated time to the one true clock in plan order, which is why
the run must (and does) report *identical* simulated statistics at every
shard count.

For every (graph, algorithm) the run asserts results are sha256-identical
and the simulated timeline identical across all shard counts before
recording anything.  Results land in the ``shard_scaling`` section of
``BENCH_pipeline.json`` (the overlap benchmark's sections are preserved
when the machine fingerprint matches).

``--min-shard-speedup`` is an optional gate, honest by construction: it
is enforced only when the runner actually has >= 2 CPUs available *and*
the sharded runs really executed sharded (no graceful fallback);
otherwise the measured numbers are recorded and the gate reports
"reported only".  CI does not pass it today — the sha256 + sim-signature
assertion is the gate there (docs/PERFORMANCE.md "Shard scaling").

Usage::

    python benchmarks/bench_shard_scaling.py                # full run
    python benchmarks/bench_shard_scaling.py --scales 12 --repeats 2  # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import machine_block, merge_payload  # noqa: E402

from repro.algorithms.bfs import BFS  # noqa: E402
from repro.algorithms.pagerank import PageRank  # noqa: E402
from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.gstore import GStoreEngine  # noqa: E402
from repro.format.tiles import TiledGraph  # noqa: E402
from repro.graphgen.rmat import rmat  # noqa: E402
from repro.runtime.threads import available_cpus  # noqa: E402
from repro.storage.device import DeviceProfile  # noqa: E402

ALGOS = {
    "bfs": lambda: BFS(root=0, direction_optimizing=True),
    "pagerank": lambda: PageRank(max_iterations=5, tolerance=0.0),
}


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _sim_signature(stats) -> tuple:
    """The simulated-run identity a shard count must not change."""
    return (
        stats.sim_elapsed,
        stats.io_time,
        stats.bytes_read,
        stats.tiles_fetched,
        stats.edges_processed,
        len(stats.iterations),
    )


def _signatures_match(a: tuple, b: tuple) -> bool:
    return all(
        math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
        if isinstance(x, float) else x == y
        for x, y in zip(a, b)
    )


def bench_graph(scale: int, args) -> dict:
    el = rmat(scale, edge_factor=args.edge_factor, seed=args.seed)
    tg = TiledGraph.from_edge_list(el, tile_bits=args.tile_bits, group_q=16)
    print(f"graph 2^{scale}: {tg!r}  payload {tg.storage_bytes()} bytes")
    section = {
        "scale": scale,
        "n_vertices": tg.n_vertices,
        "stored_edges": tg.n_edges,
        "payload_bytes": tg.storage_bytes(),
        "algos": {name: {} for name in args.algos},
    }
    refs: dict = {}
    for shards in args.shards:
        cfg = EngineConfig(
            memory_bytes=args.memory_kb * 1024,
            segment_bytes=args.segment_kb * 1024,
            realize_io=True,
            device_profile=DeviceProfile(read_bandwidth=args.bandwidth),
            workers="auto",
            shards=shards,
        )
        with GStoreEngine(tg, cfg) as engine:
            # Spawn the workers (and their graph unpickling) off the clock,
            # the way a long-lived deployment amortises startup.
            engine.warm_backend()
            for name in args.algos:
                factory = ALGOS[name]
                best = None
                algo = stats = None
                for _ in range(args.repeats):
                    algo = factory()
                    t0 = time.perf_counter()
                    stats = engine.run(algo)
                    wall = time.perf_counter() - t0
                    best = wall if best is None else min(best, wall)
                digest = _sha(algo.result())
                sig = _sim_signature(stats)
                if shards == 1:
                    refs[name] = (digest, sig)
                else:
                    ref_digest, ref_sig = refs[name]
                    assert digest == ref_digest, (
                        f"{name} at shards={shards} diverged from shards=1"
                    )
                    assert _signatures_match(sig, ref_sig), (
                        f"{name} at shards={shards} changed the simulated "
                        f"run: {sig} != {ref_sig}"
                    )
                resolved = stats.extra["execution"]["shards_resolved"]
                section["algos"][name][str(shards)] = {
                    "wall_seconds": best,
                    "shards_resolved": resolved,
                    "sim_elapsed": stats.sim_elapsed,
                    "sim_io_time": stats.io_time,
                    "bytes_read": stats.bytes_read,
                    "identical_to_unsharded": True,
                }
                print(f"  [2^{scale}] {name:9s} shards {shards} "
                      f"(resolved {resolved}): {best:7.3f}s wall")
    for name in args.algos:
        per = section["algos"][name]
        serial = per["1"]["wall_seconds"]
        for shards in args.shards:
            per[str(shards)]["speedup_vs_unsharded"] = (
                serial / per[str(shards)]["wall_seconds"]
            )
    return section


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scales", type=int, nargs="*", default=[18, 19],
                    help="log2 of |V| per graph (default: 18 and 19 — the "
                         "reference graph and one larger)")
    ap.add_argument("--edge-factor", type=int, default=8)
    ap.add_argument("--tile-bits", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--shards", type=int, nargs="*", default=[1, 2, 4])
    ap.add_argument("--memory-kb", type=int, default=4096)
    ap.add_argument("--segment-kb", type=int, default=1024)
    ap.add_argument("--bandwidth", type=float, default=100e6,
                    help="modeled device read bandwidth, bytes/s")
    ap.add_argument("--algos", nargs="*", default=sorted(ALGOS),
                    choices=sorted(ALGOS))
    ap.add_argument("--min-shard-speedup", type=float, default=None,
                    metavar="X",
                    help="fail unless every algorithm reaches this wall "
                         "speedup at 2 shards; enforced only on runners "
                         "with >= 2 CPUs where the runs actually executed "
                         "sharded (1-core numbers are recorded, not gated)")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_pipeline.json"))
    args = ap.parse_args(argv)

    if 1 not in args.shards:
        args.shards = [1, *args.shards]
    args.shards = sorted(set(args.shards))

    sections = [bench_graph(scale, args) for scale in args.scales]

    payload = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_block(),
        "shard_scaling": {
            "config": {
                "memory_bytes": args.memory_kb * 1024,
                "segment_bytes": args.segment_kb * 1024,
                "read_bandwidth": args.bandwidth,
                "shards": args.shards,
                "repeats": args.repeats,
                "edge_factor": args.edge_factor,
                "tile_bits": args.tile_bits,
                "seed": args.seed,
            },
            "graphs": sections,
        },
    }
    payload = merge_payload(
        args.out, payload,
        preserve=("benchmark", "graph", "config", "results", "selective"),
    )
    print(f"wrote {args.out}")

    # The acceptance gate — only meaningful where sharding can possibly
    # win (>= 2 CPUs) and where it actually ran sharded.
    ok = True
    cpus = available_cpus()
    gate_shards = 2 if 2 in args.shards else max(args.shards)
    for section in sections:
        for name, per in section["algos"].items():
            entry = per[str(gate_shards)]
            sp = entry["speedup_vs_unsharded"]
            enforceable = (
                args.min_shard_speedup is not None
                and cpus >= 2
                and entry["shards_resolved"] == gate_shards
            )
            if enforceable:
                passed = sp >= args.min_shard_speedup
                status = "ok" if passed else "BELOW THRESHOLD"
                ok = ok and passed
            else:
                status = "reported only"
            print(f"  shard gate 2^{section['scale']} {name}: "
                  f"{sp:.2f}x at {gate_shards} shards [{status}]")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
