#!/usr/bin/env python
"""Kernel-throughput benchmark: per-tile vs fused vs fused+parallel.

Runs each algorithm's one kernel through the G-Store engine at three
dispatch granularities — once per tile (``fused=False``), once per shard
of a batch, and per shard over the worker thread pool — and records
edges/sec and wall seconds for every mode into ``BENCH_kernels.json`` at
the repo root.  This is the perf trajectory file future PRs extend.

The thread pool is warmed before timing, so thread spawn is not charged
to the first measured iteration.

Usage::

    python benchmarks/bench_kernel_throughput.py             # full run
    python benchmarks/bench_kernel_throughput.py --scale 12  # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.algorithms.bfs import BFS  # noqa: E402
from repro.algorithms.cc import ConnectedComponents  # noqa: E402
from repro.algorithms.kcore import KCore  # noqa: E402
from repro.algorithms.pagerank import PageRank  # noqa: E402
from repro.algorithms.reachability import Reachability  # noqa: E402
from repro.algorithms.spmv import SpMV  # noqa: E402
from repro.algorithms.sssp import SSSP  # noqa: E402
from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.gstore import GStoreEngine  # noqa: E402
from repro.format.tiles import TiledGraph  # noqa: E402
from repro.graphgen.rmat import rmat  # noqa: E402
from repro.runtime.threads import (  # noqa: E402
    available_cpus,
    execution_fingerprint,
)

ALGOS = {
    "pagerank": lambda: PageRank(max_iterations=5, tolerance=0.0),
    "bfs": lambda: BFS(root=0),
    "spmv": lambda: SpMV(iterations=3),
    "cc": lambda: ConnectedComponents(),
    "kcore": lambda: KCore(k=8),
    "sssp": lambda: SSSP(root=0),
    "reachability": lambda: Reachability(seeds=[0]),
}


def build_graph(scale: int, edge_factor: int, tile_bits: int, seed: int) -> TiledGraph:
    el = rmat(scale, edge_factor=edge_factor, seed=seed)
    return TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=16)


def run_mode(tg: TiledGraph, factory, fused: bool, workers: int, repeats: int):
    """Best-of-N engine run; returns (wall_seconds, edges_processed)."""
    best = None
    edges = 0
    for _ in range(repeats):
        cfg = EngineConfig(
            memory_bytes=256 * 1024 * 1024,
            segment_bytes=8 * 1024 * 1024,
            fused=fused,
            workers=workers,
        )
        with GStoreEngine(tg, cfg) as engine:
            # Thread-pool spawn happens off the clock.
            engine.warm_backend()
            algo = factory()
            t0 = time.perf_counter()
            stats = engine.run(algo)
            wall = time.perf_counter() - t0
            edges = stats.edges_processed
        best = wall if best is None else min(best, wall)
    return best, edges


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=18, help="log2 of |V| (default 18)")
    ap.add_argument("--edge-factor", type=int, default=8)
    # 2^10-vertex tiles: the many-small-tiles regime the fused layer
    # targets (a trillion-edge graph at the paper's 2^16-vertex tiles has
    # millions of tiles — per-tile dispatch overhead is the bottleneck).
    ap.add_argument("--tile-bits", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--workers", type=int, default=None,
                    help="workers for the parallel mode (default: all "
                         "cores, minimum 2 so the pool genuinely engages "
                         "— at 1 worker it routes through the serial path "
                         "and the comparison measures noise)")
    ap.add_argument("--algos", nargs="*", default=sorted(ALGOS),
                    choices=sorted(ALGOS))
    ap.add_argument("--min-fused-speedup", type=float, default=None,
                    help="exit nonzero if any algorithm's fused speedup over "
                         "the per-tile loop falls below this threshold")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernels.json"))
    args = ap.parse_args(argv)

    workers = args.workers or max(2, available_cpus())
    modes = [
        ("per-tile", False, 1),
        ("fused", True, 1),
        ("fused+parallel", True, workers),
    ]

    print(f"building R-MAT graph: 2^{args.scale} vertices, "
          f"edge_factor={args.edge_factor}, tile_bits={args.tile_bits} ...")
    tg = build_graph(args.scale, args.edge_factor, args.tile_bits, args.seed)
    print(f"  {tg!r}  ({tg.n_tiles} tile slots)")

    results = {}
    for name in args.algos:
        factory = ALGOS[name]
        results[name] = {}
        for label, fused, w in modes:
            wall, edges = run_mode(tg, factory, fused, w, args.repeats)
            eps = edges / wall if wall > 0 else float("inf")
            results[name][label] = {
                "wall_seconds": wall,
                "edges_processed": edges,
                "edges_per_sec": eps,
            }
            print(f"  {name:10s} {label:15s} {wall:8.3f}s  "
                  f"{eps / 1e6:9.2f} M edges/s")
        # Wall ratio, not edges/sec ratio: a live kernel (SSSP) counts
        # its second in-shard relaxation, so its fused run processes more
        # edges than the per-tile run it is compared with.
        base = results[name]["per-tile"]["wall_seconds"]
        for label, _, _ in modes[1:]:
            results[name][label]["speedup_vs_per_tile"] = (
                base / results[name][label]["wall_seconds"]
            )
        line = ", ".join(
            f"{label} {results[name][label]['speedup_vs_per_tile']:.2f}x"
            for label, _, _ in modes[1:]
        )
        print(f"  {name:10s} speedup vs per-tile: {line}")

    payload = {
        "benchmark": "kernel_throughput",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "parallel_workers": workers,
            **execution_fingerprint(workers=workers),
        },
        "graph": {
            "scale": args.scale,
            "n_vertices": tg.n_vertices,
            "stored_edges": tg.n_edges,
            "edge_factor": args.edge_factor,
            "tile_bits": args.tile_bits,
            "seed": args.seed,
        },
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    ok = True
    if args.min_fused_speedup is not None:
        for name in args.algos:
            sp = results[name]["fused"]["speedup_vs_per_tile"]
            status = "ok" if sp >= args.min_fused_speedup else "TOO SLOW"
            print(f"  fused gate {name}: {sp:.2f}x "
                  f"(need >= {args.min_fused_speedup:.2f}x) [{status}]")
            ok = ok and sp >= args.min_fused_speedup
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
