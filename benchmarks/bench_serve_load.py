#!/usr/bin/env python
"""Load generator for the concurrent query service (docs/SERVING.md).

Drives a :class:`~repro.serve.service.QueryService` over one shared
read-only engine with a fixed mixed-query workload and measures serving
latency two ways:

* **closed loop** — ``c`` client threads, each issuing its next query
  the moment the previous one returns.  Sweeping ``c`` produces the
  saturation curve: engine runs go one at a time (the engine lane), so
  throughput is roughly flat from one client on — more clients only
  overlap the cheap non-engine work — and latency grows with the queue.
  ``--min-concurrency-scaling`` gates that flatness: throughput at every
  client count over that of one-client parts interleaved with it (0.46
  before the lane: two clients were slower than one).
* **open loop** — queries arrive on a Poisson-ish fixed-rate schedule
  regardless of completions, the "heavy traffic" regime: offered load
  beyond capacity shows up as admission rejections, not unbounded queue
  growth.

Before any load runs, every distinct query in the mix is executed once
serially and its payload sha256 recorded; during the load phases every
result is checked against that baseline, so the benchmark doubles as
the cross-query isolation gate — one corrupted result fails the run.
Result caching is disabled throughout: every query exercises the full
engine path (a cache-hit latency distribution would only flatter the
numbers).

Results land in ``BENCH_serve.json`` at the repo root: per-concurrency
p50/p95/p99 + throughput (the saturation curve), the open-loop sweep,
and the corruption/verification tally.

Usage::

    python benchmarks/bench_serve_load.py              # 2^14 R-MAT
    python benchmarks/bench_serve_load.py --scale 10 --queries 60  # smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import machine_block, merge_payload  # noqa: E402

from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.gstore import GStoreEngine  # noqa: E402
from repro.errors import AdmissionError  # noqa: E402
from repro.format.tiles import TiledGraph  # noqa: E402
from repro.graphgen.rmat import rmat  # noqa: E402
from repro.serve import (  # noqa: E402
    BFSQuery,
    NeighborhoodQuery,
    PageRankTopKQuery,
    QueryService,
    ReachabilityQuery,
    ServiceConfig,
    SSSPQuery,
)

OUT_PATH = os.path.join(ROOT, "BENCH_serve.json")


def build_service(scale: int, workers: int, queue_depth: int):
    el = rmat(scale, edge_factor=16, seed=5)
    tg = TiledGraph.from_edge_list(el, tile_bits=10, group_q=8)
    # Semi-external budget: the streaming/caching memory is a fraction
    # of the graph, so queries really fetch tiles.
    cfg = EngineConfig(
        memory_bytes=max(tg.storage_bytes() // 4, 64 * 1024),
        segment_bytes=max(tg.storage_bytes() // 128, 16 * 1024),
    )
    engine = GStoreEngine(tg, cfg)
    service = QueryService(
        engine,
        ServiceConfig(workers=workers, queue_depth=queue_depth,
                      cache_entries=0),
    )
    return engine, service


def query_mix(n_vertices: int, seed: int = 17) -> list:
    """A deterministic mixed workload over all five query types."""
    rng = np.random.default_rng(seed)
    roots = rng.integers(0, n_vertices, size=32)
    mix: list = []
    for i, r in enumerate(roots):
        r = int(r)
        kind = i % 5
        if kind == 0:
            mix.append(BFSQuery(root=r))
        elif kind == 1:
            mix.append(SSSPQuery(root=r))
        elif kind == 2:
            mix.append(PageRankTopKQuery(k=10, max_iterations=8))
        elif kind == 3:
            mix.append(NeighborhoodQuery(vertex=r))
        else:
            mix.append(ReachabilityQuery(source=r, target=(r + 1) % n_vertices))
    return mix


def percentiles(latencies: "list[float]") -> dict:
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "n": int(arr.size),
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p95_ms": float(np.percentile(arr, 95) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
    }


def _clients(service, mix, baselines, total: int, concurrency: int):
    """``concurrency`` threads, each back-to-back until ``total`` queries;
    returns ``(latencies, elapsed, corrupt, errors)``."""
    latencies: "list[float]" = []
    corrupt = 0
    errors = 0
    counter = {"next": 0}
    lock = threading.Lock()

    def client():
        nonlocal corrupt, errors
        while True:
            with lock:
                i = counter["next"]
                if i >= total:
                    return
                counter["next"] = i + 1
            q = mix[i % len(mix)]
            t0 = time.perf_counter()
            try:
                result = service.execute(q)
            except Exception:
                with lock:
                    errors += 1
                continue
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)
                if result.sha256 != baselines[q]:
                    corrupt += 1

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, time.perf_counter() - t0, corrupt, errors


#: Parts a level above one client is cut into (see :func:`closed_loop`).
ROUNDS = 4


def closed_loop(service, mix, baselines, total: int, concurrency: int) -> dict:
    """One level of the saturation curve: ``total`` queries from
    ``concurrency`` clients.

    Above one client the level is cut into ``ROUNDS`` parts and each part
    runs right after a one-client part of the same size;
    ``concurrency_scaling`` is the throughput of the one side over the
    other.  Interleaved because levels minutes apart on a shared host
    differ by tens of percent for no reason of ours (and the first level
    of a process reads fastest), which a ratio of two such levels
    inherits and a ratio of interleaved parts does not.
    """
    rounds = ROUNDS if concurrency > 1 else 1
    ref, own = [], []  # (latencies, elapsed, corrupt, errors) per part
    for i in range(rounds):
        part = total * (i + 1) // rounds - total * i // rounds
        if concurrency > 1:
            ref.append(_clients(service, mix, baselines, part, 1))
        own.append(_clients(service, mix, baselines, part, concurrency))
    latencies = [dt for part in own for dt in part[0]]
    busy = sum(part[1] for part in own)
    out = percentiles(latencies)
    out.update(
        concurrency=concurrency,
        throughput_qps=len(latencies) / busy if busy else 0.0,
        elapsed_s=busy,
        corrupt=sum(part[2] for part in ref + own),
        errors=sum(part[3] for part in ref + own),
    )
    if ref:
        out["one_client_n"] = sum(len(part[0]) for part in ref)
        out["one_client_qps"] = out["one_client_n"] / sum(
            part[1] for part in ref
        )
        out["concurrency_scaling"] = (
            out["throughput_qps"] / out["one_client_qps"]
        )
    return out


def open_loop(service, mix, baselines, total: int, rate_qps: float) -> dict:
    """Fixed-rate arrivals: submissions do not wait for completions.

    Overload shows up as typed admission rejections (counted, not
    errors) — the service's bounded queue converts excess offered load
    into fast feedback instead of latency collapse.
    """
    latencies: "list[float]" = []
    corrupt = 0
    rejected = 0
    errors = 0
    lock = threading.Lock()
    interval = 1.0 / rate_qps
    pending = []

    def on_done(q, t0, future):
        nonlocal corrupt, errors
        try:
            result = future.result()
        except Exception:
            with lock:
                errors += 1
            return
        dt = time.perf_counter() - t0
        with lock:
            latencies.append(dt)
            if result.sha256 != baselines[q]:
                corrupt += 1

    start = time.perf_counter()
    for i in range(total):
        target = start + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        q = mix[i % len(mix)]
        t0 = time.perf_counter()
        try:
            future = service.submit(q)
        except AdmissionError:
            rejected += 1
            continue
        future.add_done_callback(
            lambda f, q=q, t0=t0: on_done(q, t0, f)
        )
        pending.append(future)
    for f in pending:
        try:
            f.result()
        except Exception:
            pass
    elapsed = time.perf_counter() - start
    out = percentiles(latencies) if latencies else {"n": 0}
    out.update(
        offered_qps=rate_qps,
        completed_qps=len(latencies) / elapsed if elapsed else 0.0,
        rejected=rejected,
        errors=errors,
        corrupt=corrupt,
        elapsed_s=elapsed,
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14,
                    help="R-MAT scale (2^N vertices; default 14)")
    ap.add_argument("--queries", type=int, default=240,
                    help="total queries per closed-loop level (default 240)")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--queue-depth", type=int, default=32)
    ap.add_argument("--concurrency", type=int, nargs="+",
                    default=[1, 2, 4, 8],
                    help="closed-loop client counts to sweep")
    ap.add_argument("--rates", type=float, nargs="+", default=None,
                    help="open-loop offered rates (qps); default derives "
                         "from the measured closed-loop capacity")
    ap.add_argument("--max-p99-ms", type=float, default=None,
                    help="fail if any closed-loop p99 exceeds this bound")
    ap.add_argument("--min-concurrency-scaling", type=float, default=None,
                    help="fail if closed-loop throughput at any client "
                         "count falls under this multiple of the "
                         "one-client throughput interleaved with it")
    args = ap.parse_args()

    print(f"building 2^{args.scale} R-MAT and service "
          f"({args.workers} workers, queue depth {args.queue_depth})")
    engine, service = build_service(
        args.scale, args.workers, args.queue_depth
    )
    mix = query_mix(engine.graph.n_vertices)

    # Serial baselines: the ground truth every concurrent result must
    # hash-match.  Runs at concurrency 1 through the same service path.
    print(f"serial baselines over {len(mix)} distinct queries ...")
    baselines = {}
    for q in mix:
        baselines[q] = service.execute(q).sha256

    closed = []
    for c in args.concurrency:
        r = closed_loop(service, mix, baselines, args.queries, c)
        closed.append(r)
        scaling = (
            f"   scaling {r['concurrency_scaling']:.2f}"
            if "concurrency_scaling" in r else ""
        )
        print(
            f"closed loop c={c:<3d} {r['throughput_qps']:8.1f} qps   "
            f"p50 {r['p50_ms']:7.1f} ms   p95 {r['p95_ms']:7.1f} ms   "
            f"p99 {r['p99_ms']:7.1f} ms   corrupt {r['corrupt']}{scaling}"
        )

    capacity = max(r["throughput_qps"] for r in closed)
    rates = args.rates or [
        round(capacity * f, 2) for f in (0.5, 0.9, 1.5)
    ]
    opened = []
    for rate in rates:
        r = open_loop(service, mix, baselines, args.queries, rate)
        opened.append(r)
        print(
            f"open loop  λ={rate:8.1f} qps  completed "
            f"{r['completed_qps']:8.1f} qps   "
            f"p99 {r.get('p99_ms', float('nan')):7.1f} ms   "
            f"rejected {r['rejected']}   corrupt {r['corrupt']}"
        )

    total_queries = sum(
        r["n"] + r.get("one_client_n", 0) for r in closed + opened
    )
    total_corrupt = sum(r["corrupt"] for r in closed + opened)
    total_errors = sum(r["errors"] for r in closed + opened)
    print(
        f"total: {total_queries} queries, {total_corrupt} corrupted, "
        f"{total_errors} errors"
    )

    payload = {
        "benchmark": "serve_load",
        "machine": machine_block(workers=args.workers),
        "config": {
            "scale": args.scale,
            "workers": args.workers,
            "queue_depth": args.queue_depth,
            "queries_per_level": args.queries,
            "mix_size": len(mix),
            "fingerprint": service.fingerprint,
        },
        "saturation_curve": closed,
        "open_loop": opened,
        "verification": {
            "total_queries": total_queries,
            "corrupt": total_corrupt,
            "errors": total_errors,
        },
        "serve_counters": service.stats(),
    }
    merge_payload(OUT_PATH, payload)
    print(f"wrote {OUT_PATH}")

    service.close()
    engine.close()

    if total_corrupt:
        print("FAIL: cross-query result corruption detected", file=sys.stderr)
        return 1
    if total_errors:
        print("FAIL: queries errored under load", file=sys.stderr)
        return 1
    if args.max_p99_ms is not None:
        worst = max(r["p99_ms"] for r in closed)
        if worst > args.max_p99_ms:
            print(
                f"FAIL: closed-loop p99 {worst:.1f} ms exceeds bound "
                f"{args.max_p99_ms:.1f} ms",
                file=sys.stderr,
            )
            return 1
    bound = args.min_concurrency_scaling
    if bound is not None:
        slow = [
            r for r in closed if r.get("concurrency_scaling", bound) < bound
        ]
        for r in slow:
            print(
                f"FAIL: {r['concurrency']} clients reach "
                f"{r['concurrency_scaling']:.2f}x the one-client "
                f"throughput, under the bound {bound:.2f}x",
                file=sys.stderr,
            )
        if slow:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
