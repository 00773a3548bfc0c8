"""The ``serve_mix`` load: a seeded five-kind query mix and one closed-loop pass.

The mix construction follows ``benchmarks/bench_serve_load.query_mix``
and is copied here so that no file outside the benchmark's own directory
can change the load.  One difference, for steadiness from seed to seed:
roots are drawn from the ``ROOT_POOL`` highest-degree vertices, all in the
giant component, so the share of trivial traversals — and with it the
cost of one pass of the mix — does not swing with the seed.
"""

from __future__ import annotations

import threading
import time

import numpy as np

MIX_SIZE = 32
ROOT_POOL = 512
KINDS = ("bfs", "sssp", "pagerank_topk", "neighborhood", "reachability")


def query_mix(degrees: np.ndarray, seed: int) -> list:
    """``MIX_SIZE`` queries cycling the five kinds over seeded roots."""
    from repro.serve import (
        BFSQuery,
        NeighborhoodQuery,
        PageRankTopKQuery,
        ReachabilityQuery,
        SSSPQuery,
    )

    rng = np.random.default_rng(seed)
    pool = np.argsort(-degrees.astype(np.int64), kind="stable")[:ROOT_POOL]
    roots = rng.choice(pool, size=MIX_SIZE + 1, replace=False)
    mix: list = []
    for i in range(MIX_SIZE):
        r = int(roots[i])
        kind = KINDS[i % len(KINDS)]
        if kind == "bfs":
            mix.append(BFSQuery(root=r))
        elif kind == "sssp":
            mix.append(SSSPQuery(root=r))
        elif kind == "pagerank_topk":
            mix.append(PageRankTopKQuery(k=10, max_iterations=8))
        elif kind == "neighborhood":
            mix.append(NeighborhoodQuery(vertex=r))
        else:
            mix.append(ReachabilityQuery(source=r, target=int(roots[i + 1])))
    return mix


def one_pass(service, mix: list, expected: "dict[object, str]",
             clients: int) -> dict:
    """One pass of the mix through ``clients`` threads, each sending the
    next unsent query when its previous reply arrives.  Whole passes only,
    so every run measures the same blend of cheap and costly queries.
    Every reply is checked against ``expected`` (query -> sha256).
    """
    latencies: "list[tuple[str, float]]" = []
    failed = 0
    sent = 0
    lock = threading.Lock()

    def client() -> None:
        nonlocal failed, sent
        while True:
            with lock:
                if sent == len(mix):
                    return
                q = mix[sent]
                sent += 1
            t0 = time.perf_counter()
            try:
                ok = service.execute(q).sha256 == expected[q]
            except Exception:  # refused or errored: counted, loop goes on
                ok = False
            dt = time.perf_counter() - t0
            with lock:
                if ok:
                    latencies.append((q.name, dt))
                else:
                    failed += 1

    threads = [threading.Thread(target=client) for _ in range(clients)]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {
        "elapsed": time.perf_counter() - t_start,
        "failed": failed,
        "latencies": latencies,
    }
