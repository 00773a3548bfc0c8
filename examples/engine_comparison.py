#!/usr/bin/env python3
"""Head-to-head: G-Store vs X-Stream vs FlashGraph vs GridGraph.

Runs BFS, PageRank, and connected components on the same Kronecker graph
through all four engines over identical simulated hardware, verifies the
results agree bit-for-bit, and prints the §VII-B-style speedup table.
Also shows one engine variant: asynchronous BFS.  (Tiered SSD+HDD
storage is the ``ext_tiered_storage`` experiment; REPORT.md carries its
table.)

Run:  python examples/engine_comparison.py
"""

import numpy as np

from repro import (
    BFS,
    AsyncBFS,
    ConnectedComponents,
    EngineConfig,
    FlashGraphEngine,
    GridGraphEngine,
    GStoreEngine,
    PageRank,
    TiledGraph,
    XStreamEngine,
    kronecker,
)
from repro.baselines.common import BaselineConfig
from repro.bench.experiments import PR_FIXED_ITERS, run_comparator
from repro.storage.device import DeviceProfile
from repro.util.humanize import fmt_time

#: Device latency scaled with the ~1000x graph downscaling (see
#: DESIGN.md) so request-batching effects keep their real proportions.
SCALED = DeviceProfile(latency=2e-6)


def main() -> None:
    edges = kronecker(scale=15, edge_factor=16, seed=2)
    graph = TiledGraph.from_edge_list(edges, tile_bits=10, group_q=8)
    print(f"{edges}\n")

    traditional = graph.info.n_input_edges * 8
    memory = traditional // 8  # the paper's semi-external regime
    segment = max(traditional // 256, 32 * 1024)
    gcfg = EngineConfig(
        memory_bytes=memory, segment_bytes=segment, device_profile=SCALED
    )
    bcfg = BaselineConfig(
        memory_bytes=memory, segment_bytes=segment, device_profile=SCALED
    )

    # --- G-Store reference runs ---------------------------------------
    gstore = {}
    for label, algo in [
        ("bfs", BFS(root=0)),
        ("pagerank", PageRank(max_iterations=PR_FIXED_ITERS, tolerance=0.0)),
        ("cc", ConnectedComponents()),
    ]:
        stats = GStoreEngine(graph, gcfg).run(algo)
        gstore[label] = (algo.result(), stats)

    # --- Baselines ------------------------------------------------------
    rows = []
    for eng in [
        XStreamEngine(edges, bcfg),
        FlashGraphEngine(edges, bcfg),
        GridGraphEngine(edges, bcfg, n_parts=16),
    ]:
        speeds = {}
        for label in ["bfs", "pagerank", "cc"]:
            result, stats = run_comparator(eng, label)
            ref_result, ref_stats = gstore[label]
            if label == "pagerank":
                assert np.allclose(result, ref_result, atol=1e-10)
            else:
                assert np.array_equal(result, ref_result)
            speeds[label] = stats.sim_elapsed / ref_stats.sim_elapsed
        rows.append((eng.name, speeds))

    print("results verified identical across engines\n")
    print(f"{'engine':<12} {'BFS':>8} {'PageRank':>10} {'CC/WCC':>8}   (G-Store speedup)")
    for name, speeds in rows:
        print(
            f"{name:<12} {speeds['bfs']:>7.1f}x {speeds['pagerank']:>9.1f}x "
            f"{speeds['cc']:>7.1f}x"
        )

    # --- Variants -------------------------------------------------------
    print("\nvariants:")
    sync_stats = gstore["bfs"][1]
    asyn = AsyncBFS(root=0)
    asyn_stats = GStoreEngine(graph, gcfg).run(asyn)
    assert np.array_equal(asyn.result(), gstore["bfs"][0])
    print(
        f"  async BFS: {asyn_stats.n_iterations} sweeps vs "
        f"{sync_stats.n_iterations} (sim {fmt_time(asyn_stats.sim_elapsed)} vs "
        f"{fmt_time(sync_stats.sim_elapsed)})"
    )


if __name__ == "__main__":
    main()
