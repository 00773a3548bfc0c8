#!/usr/bin/env python
"""CI wall-clock smoke: prefetch overlap and concurrent serving.

Two gates on the real clock, each exiting non-zero on failure.  What does
not need a wall clock (bit-identical results across prefetch depths and
with or without the kernel pool; selective byte savings) is held by the
equivalence lattice and tier-1 instead.

1. **Overlap** — a 2^12 R-MAT streamed through a 128 KB budget in 32 KB
   segments from a device-paced (``realize_io``) 20 MB/s device: for BFS
   and PageRank, the best wall time at prefetch depth 1, 2 or 4 beats
   depth 0 (best of 2 repeats per depth).
2. **Serve** — a five-kind query mix over one shared engine (2^12 R-MAT,
   4 workers, queue depth 16, result cache off), closed loop at 1, 2 and
   4 clients with 160 queries a level, then open loop at 0.5, 0.9 and
   1.5× the measured capacity.  Every reply is sha256-checked against its
   serial baseline: no corrupted or errored reply in any run, closed-loop
   p99 ≤ 5 000 ms, and 2 and 4 clients each reach ≥ 0.8× the one-client
   throughput interleaved with them.

Usage: PYTHONPATH=src python tools/wall_smoke.py
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AdmissionError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.serve import (
    BFSQuery,
    NeighborhoodQuery,
    PageRankTopKQuery,
    QueryService,
    ReachabilityQuery,
    ServiceConfig,
    SSSPQuery,
)
from repro.storage.device import DeviceProfile

OVERLAP_ALGOS = {
    "bfs": lambda: BFS(root=0),
    "pagerank": lambda: PageRank(max_iterations=5, tolerance=0.0),
}

#: Queries per closed-loop level and per open-loop rate.
QUERIES = 160

#: Parts a closed-loop level above one client is cut into (see
#: :meth:`Load.closed_loop`).
ROUNDS = 4

_failures = 0


def check(ok: bool, label: str) -> None:
    global _failures
    print(f"  {'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        _failures += 1


def overlap_wall(tg: TiledGraph, factory, depth: int, repeats: int = 2) -> float:
    """Best-of-``repeats`` wall seconds of one device-paced run."""
    # The budget is far under the payload, so every iteration streams the
    # graph; the device is slowed so that I/O weighs against this
    # implementation's compute about as it does on the paper's hardware.
    cfg = EngineConfig(
        memory_bytes=128 * 1024,
        segment_bytes=32 * 1024,
        prefetch_depth=depth,
        realize_io=True,
        device_profile=DeviceProfile(read_bandwidth=20e6),
    )
    best = float("inf")
    for _ in range(repeats):
        with GStoreEngine(tg, cfg) as engine:
            algo = factory()
            t0 = time.perf_counter()
            engine.run(algo)
            best = min(best, time.perf_counter() - t0)
    return best


def gate_overlap() -> None:
    print("gate 1: prefetching beats serial fetch-then-compute on the wall clock")
    el = rmat(12, edge_factor=8, seed=42)
    tg = TiledGraph.from_edge_list(el, tile_bits=10, group_q=16)
    for name, factory in OVERLAP_ALGOS.items():
        walls = {d: overlap_wall(tg, factory, d) for d in (0, 1, 2, 4)}
        best = min((1, 2, 4), key=walls.__getitem__)
        speedup = walls[0] / walls[best]
        check(
            speedup > 1.0,
            f"{name}: depth {best} runs {speedup:.2f}x depth 0 "
            f"({walls[best]:.3f} s against {walls[0]:.3f} s)",
        )


def query_mix(n_vertices: int, seed: int = 17) -> list:
    """32 queries cycling the five kinds over seeded roots."""
    kinds = (
        lambda r: BFSQuery(root=r),
        lambda r: SSSPQuery(root=r),
        lambda r: PageRankTopKQuery(k=10, max_iterations=8),
        lambda r: NeighborhoodQuery(vertex=r),
        lambda r: ReachabilityQuery(source=r, target=(r + 1) % n_vertices),
    )
    roots = np.random.default_rng(seed).integers(0, n_vertices, size=32)
    return [kinds[i % len(kinds)](int(r)) for i, r in enumerate(roots)]


class Load:
    """Query load over one service; every reply is checked against the
    sha256 the same query gave when run alone."""

    def __init__(self, service: QueryService, mix: list) -> None:
        self.service = service
        self.mix = mix
        self.baseline = {q: service.execute(q).sha256 for q in mix}
        self.lock = threading.Lock()
        self.replies = self.corrupt = self.errors = 0

    def _settle(self, q, t0: float, reply, latencies: list) -> None:
        """Check the reply ``reply()`` returns (or raises) for ``q``."""
        try:
            sha = reply().sha256
        except Exception:
            with self.lock:
                self.errors += 1
            return
        dt = time.perf_counter() - t0
        with self.lock:
            latencies.append(dt)
            self.replies += 1
            self.corrupt += sha != self.baseline[q]

    def clients(self, total: int, concurrency: int) -> "tuple[list, float]":
        """``concurrency`` threads, each sending its next query when its
        last reply arrives, until ``total`` are sent; returns the
        latencies and the elapsed seconds."""
        latencies: list = []
        order = iter(range(total))

        def client() -> None:
            while True:
                with self.lock:
                    i = next(order, None)
                if i is None:
                    return
                q = self.mix[i % len(self.mix)]
                self._settle(
                    q, time.perf_counter(),
                    lambda: self.service.execute(q), latencies,
                )

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(concurrency)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return latencies, time.perf_counter() - t0

    def closed_loop(self, total: int, concurrency: int):
        """One level of the saturation curve: ``(latencies, qps,
        scaling)``.

        Above one client the level is cut into ``ROUNDS`` parts, each run
        right after a one-client part of the same size, and ``scaling`` is
        the qps of the one side over the other (``None`` at one client).
        Interleaved because levels minutes apart on a shared host differ by
        tens of percent for no reason of ours, which a ratio of two levels
        inherits and a ratio of interleaved parts does not.
        """
        rounds = ROUNDS if concurrency > 1 else 1
        own: list = []
        busy = ref_n = ref_busy = 0
        for i in range(rounds):
            part = total * (i + 1) // rounds - total * i // rounds
            if concurrency > 1:
                latencies, elapsed = self.clients(part, 1)
                ref_n += len(latencies)
                ref_busy += elapsed
            latencies, elapsed = self.clients(part, concurrency)
            own += latencies
            busy += elapsed
        qps = len(own) / busy if busy else 0.0
        scaling = qps * ref_busy / ref_n if ref_n else None
        return own, qps, scaling

    def open_loop(self, total: int, rate: float) -> "tuple[float, int]":
        """Arrivals at a fixed ``rate`` that do not wait for replies:
        overload comes back as typed admission rejections (counted, not
        errors).  Returns the completed qps and the rejections."""
        latencies: list = []
        pending = []
        rejected = 0
        start = time.perf_counter()
        for i in range(total):
            delay = start + i / rate - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            q = self.mix[i % len(self.mix)]
            t0 = time.perf_counter()
            try:
                future = self.service.submit(q)
            except AdmissionError:
                rejected += 1
                continue
            future.add_done_callback(
                lambda f, q=q, t0=t0: self._settle(q, t0, f.result, latencies)
            )
            pending.append(future)
        for f in pending:
            try:
                f.result()
            except Exception:
                pass
        return len(latencies) / (time.perf_counter() - start), rejected


def gate_serve() -> None:
    print("gate 2: concurrent serving stays correct, bounded and scales")
    el = rmat(12, edge_factor=16, seed=5)
    tg = TiledGraph.from_edge_list(el, tile_bits=10, group_q=8)
    # Semi-external budget: a quarter of the graph, so queries fetch tiles.
    engine = GStoreEngine(tg, EngineConfig(
        memory_bytes=max(tg.storage_bytes() // 4, 64 * 1024),
        segment_bytes=max(tg.storage_bytes() // 128, 16 * 1024),
    ))
    # No result cache: every query takes the full engine path.
    service = QueryService(
        engine, ServiceConfig(workers=4, queue_depth=16, cache_entries=0)
    )
    try:
        load = Load(service, query_mix(tg.n_vertices))
        capacity = worst_p99 = 0.0
        for clients in (1, 2, 4):
            latencies, qps, scaling = load.closed_loop(QUERIES, clients)
            p99 = np.percentile(latencies, 99) * 1e3 if latencies else np.inf
            print(f"  closed loop, {clients} client(s): {qps:.1f} qps, "
                  f"p99 {p99:.1f} ms")
            capacity = max(capacity, qps)
            worst_p99 = max(worst_p99, p99)
            if scaling is not None:
                check(
                    scaling >= 0.8,
                    f"{clients} clients reach {scaling:.2f}x the one-client "
                    "throughput interleaved with them (bound 0.80x)",
                )
        check(worst_p99 <= 5000.0,
              f"worst closed-loop p99 {worst_p99:.0f} ms (bound 5000 ms)")
        for factor in (0.5, 0.9, 1.5):
            rate = round(capacity * factor, 2)
            done, rejected = load.open_loop(QUERIES, rate)
            print(f"  open loop at {rate:.1f} qps: {done:.1f} qps completed, "
                  f"{rejected} rejected")
        check(
            load.corrupt == 0 and load.errors == 0,
            f"{load.replies} replies, {load.corrupt} corrupted, "
            f"{load.errors} errored",
        )
    finally:
        service.close()
        engine.close()


def main() -> int:
    gate_overlap()
    gate_serve()
    if _failures:
        print(f"wall smoke: {_failures} gate(s) FAILED")
        return 1
    print("wall smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
