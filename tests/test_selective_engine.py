"""Selective execution end to end: byte savings and chaos determinism.

The selective plane's two run-level promises, on a graph large enough
that frontiers genuinely collapse below row granularity (2^14 R-MAT):

* **Monotone bytes** — a selective run moves strictly fewer bytes than
  the dense ablation baseline wherever the frontier thins out (the
  sparse early levels and the post-explosion tail), never more, and the
  per-iteration accounting conserves: ``read + cached + skipped`` equals
  the fixed dense demand every iteration.
* **Chaos determinism** — selective scheduling composes with the fault
  plane: a seeded chaos run over the selective plan is bit-deterministic
  across prefetch depths 0/2/4 (same injected-fault log, same counters,
  same simulated clock, same result bits).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.faults import FaultPlan, FaultRates
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat

# Same hot rates as tests/test_faults.py: high enough that faults land
# inside a short run's request ordinals.
HOT_RATES = FaultRates(transient=0.3, short_read=0.1, spike=0.2)


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    # 2^14 vertices at tile_bits=9 -> 32 tile rows: coarse enough to
    # build fast, fine enough that BFS's first and last levels activate
    # only a few rows.
    el = rmat(14, edge_factor=8, seed=5)
    return TiledGraph.from_edge_list(el, tile_bits=9, group_q=4)


def _run(tg, factory, selective, depth=0, faults=None):
    cfg = EngineConfig(
        memory_bytes=512 * 1024,
        segment_bytes=64 * 1024,
        prefetch_depth=depth,
        selective=selective,
        faults=faults,
    )
    with GStoreEngine(tg, cfg) as engine:
        algo = factory()
        stats = engine.run(algo)
        injector = engine.injector
    return algo, stats, injector


class TestMonotoneBytes:
    def test_selective_bfs_strictly_fewer_bytes_late(self, graph):
        """Selective BFS reads strictly less than dense on the sparse
        iterations — and identical results prove the skipped bytes were
        genuinely dead."""
        dense, dense_stats, _ = _run(graph, lambda: BFS(root=0), False)
        sel, sel_stats, _ = _run(graph, lambda: BFS(root=0), True)
        np.testing.assert_array_equal(dense.depth, sel.depth)
        assert len(sel_stats.iterations) == len(dense_stats.iterations)

        def moved(it):
            return it.bytes_read + it.bytes_from_cache

        # The dense baseline's demand is the same every iteration: every
        # non-empty tile.
        dense_demand = moved(dense_stats.iterations[0])
        assert all(
            moved(it) == dense_demand for it in dense_stats.iterations
        )
        assert all(it.bytes_skipped == 0 for it in dense_stats.iterations)
        for d_it, s_it in zip(dense_stats.iterations, sel_stats.iterations):
            # Conservation: what selective moved plus what it skipped is
            # exactly the dense demand — bytes never vanish unaccounted.
            assert moved(s_it) + s_it.bytes_skipped == dense_demand
            assert moved(s_it) <= moved(d_it)
        # Strictly fewer on the sparse ends: the root-only first level
        # and the post-explosion last level.
        first, last = sel_stats.iterations[0], sel_stats.iterations[-1]
        assert moved(first) < dense_demand
        assert moved(last) < dense_demand
        assert first.tiles_skipped > 0 and last.tiles_skipped > 0
        # And strictly fewer in total.
        assert sel_stats.bytes_read + sel_stats.bytes_from_cache < (
            dense_stats.bytes_read + dense_stats.bytes_from_cache
        )
        assert sel_stats.bytes_skipped > 0
        assert 0.0 < sel_stats.bytes_skipped_fraction() < 1.0

    @pytest.mark.parametrize(
        "name,factory",
        [
            ("sssp", lambda: SSSP(root=0)),
            ("kcore", lambda: KCore(k=8)),
            ("cc", lambda: ConnectedComponents()),
        ],
    )
    def test_selective_never_moves_more(self, graph, name, factory):
        """Every frontier algorithm conserves bytes against the dense
        demand and never exceeds it (CC may tie: its changed set can span
        all rows until convergence)."""
        dense, dense_stats, _ = _run(graph, factory, False)
        sel, sel_stats, _ = _run(graph, factory, True)
        np.testing.assert_array_equal(dense.result(), sel.result())
        dense_demand = (
            dense_stats.iterations[0].bytes_read
            + dense_stats.iterations[0].bytes_from_cache
        )
        for it in sel_stats.iterations:
            moved = it.bytes_read + it.bytes_from_cache
            assert moved + it.bytes_skipped == dense_demand, name
            assert moved <= dense_demand, name


    def test_selective_bfs_skips_a_third_of_dense_demand(self):
        """At the pipeline smoke geometry (2^12 R-MAT, 32 tile rows,
        128 KB budget streaming 32 KB segments, prefetch depth 4) selective
        BFS answers like the dense run and never moves at least 30% of its
        byte demand.  Simulated bytes, so the fraction is deterministic."""
        tg = TiledGraph.from_edge_list(
            rmat(12, edge_factor=8, seed=42), tile_bits=7, group_q=16
        )
        runs = {}
        for selective in (False, True):
            cfg = EngineConfig(
                memory_bytes=128 * 1024, segment_bytes=32 * 1024,
                prefetch_depth=4, realize_io=False, selective=selective,
            )
            with GStoreEngine(tg, cfg) as engine:
                algo = BFS(root=0)
                runs[selective] = algo, engine.run(algo)
        np.testing.assert_array_equal(runs[False][0].depth, runs[True][0].depth)
        assert runs[True][1].bytes_skipped_fraction() >= 0.30


class TestChaosSelective:
    def test_selective_chaos_bit_deterministic_across_depths(self, graph):
        """Selective + injected faults: the recovered run is identical at
        depths 0, 2, and 4 — fault log, counters, sim clock, result."""
        runs = []
        for depth in (0, 2, 4):
            algo, stats, injector = _run(
                graph,
                lambda: BFS(root=0),
                True,
                depth=depth,
                faults=FaultPlan(seed=13, rates=HOT_RATES),
            )
            runs.append(
                (
                    injector.log_tuples(),
                    injector.counters(),
                    stats.sim_elapsed,
                    stats.bytes_skipped,
                    algo.depth.copy(),
                )
            )
        logs, counters, sims, skipped, depths = zip(*runs)
        assert logs[0] == logs[1] == logs[2]
        assert counters[0] == counters[1] == counters[2]
        assert sims[0] == sims[1] == sims[2]
        assert skipped[0] == skipped[1] == skipped[2] > 0
        np.testing.assert_array_equal(depths[0], depths[1])
        np.testing.assert_array_equal(depths[0], depths[2])
        assert any(t for t in logs[0])  # the plan really injected

    def test_selective_chaos_matches_clean_result(self, graph):
        """Recovered chaos bits equal the clean selective run's bits."""
        clean, clean_stats, _ = _run(graph, lambda: BFS(root=0), True)
        chaos, chaos_stats, injector = _run(
            graph,
            lambda: BFS(root=0),
            True,
            depth=2,
            faults=FaultPlan(seed=13, rates=HOT_RATES),
        )
        np.testing.assert_array_equal(clean.depth, chaos.depth)
        # Retries re-read bytes but never change what the plan skipped.
        assert chaos_stats.bytes_skipped == clean_stats.bytes_skipped
        assert injector.counters().get("retry.exhausted", 0) == 0
