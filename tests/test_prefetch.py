"""Prefetch-pipeline equivalence and hygiene (the real §VI-B overlap).

The contract: with ``prefetch_depth >= 1`` a background worker fetches and
decodes slide batches ahead of compute, but batches still *commit* in plan
order on the engine thread — so every algorithm's results, edge counts,
simulated timeline, and SCR cache stats are identical at any depth to the
strictly serial ``prefetch_depth=0`` baseline.  And whatever happens
mid-run (algorithm exceptions included), no prefetch thread survives the
iteration.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.pagerank import PageRank
from repro.algorithms.spmv import SpMV
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.runtime.prefetch import PREFETCH_THREAD_NAME
from repro.runtime.threads import WORKER_THREAD_PREFIX

ALGOS = {
    "bfs": lambda: BFS(root=0),
    "pagerank": lambda: PageRank(max_iterations=15, tolerance=1e-10),
    "spmv": lambda: SpMV(iterations=3),
    "cc": lambda: ConnectedComponents(),
    "kcore": lambda: KCore(k=4),
}

DEPTHS = [0, 1, 4]


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    el = rmat(9, edge_factor=8, seed=77)
    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


def _run(tg, factory, depth, fused=True, workers=1):
    # Tiny budget: several slide batches per iteration plus cache pressure,
    # so rewind, mid-iteration evictions, and multi-batch prefetch all run.
    # shards is pinned to 1 module-wide: this file asserts the prefetch
    # *pipeline*'s internals, which shard-parallel execution bypasses
    # (shard/prefetch composition is covered by tests/test_backends.py).
    cfg = EngineConfig(
        memory_bytes=24 * 1024,
        segment_bytes=4 * 1024,
        fused=fused,
        workers=workers,
        prefetch_depth=depth,
        shards=1,
    )
    with GStoreEngine(tg, cfg) as engine:
        algo = factory()
        stats = engine.run(algo)
    return algo.result().copy(), stats


def _lingering(prefix: str) -> "list[str]":
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_depth_equivalence(graph, name):
    """Results, edge counts, sim timeline, and SCR stats are identical at
    every prefetch depth."""
    factory = ALGOS[name]
    ref_result, ref_stats = _run(graph, factory, depth=0)
    for depth in DEPTHS[1:]:
        result, stats = _run(graph, factory, depth=depth)
        assert np.array_equal(result, ref_result), (name, depth)
        assert stats.edges_processed == ref_stats.edges_processed, (name, depth)
        assert len(stats.iterations) == len(ref_stats.iterations), (name, depth)
        assert stats.sim_elapsed == pytest.approx(ref_stats.sim_elapsed)
        assert stats.io_time == pytest.approx(ref_stats.io_time)
        assert stats.bytes_read == ref_stats.bytes_read, (name, depth)
        assert stats.tiles_fetched == ref_stats.tiles_fetched, (name, depth)
        # SCR cache behaviour is schedule-dependent; identical schedules
        # must produce identical cache stats.
        assert stats.extra["scr"] == ref_stats.extra["scr"], (name, depth)


def test_depth_equivalence_per_tile(graph):
    """The per-tile (non-fused) reference loop prefetches identically too."""
    ref_result, ref_stats = _run(graph, ALGOS["bfs"], depth=0, fused=False)
    result, stats = _run(graph, ALGOS["bfs"], depth=2, fused=False)
    assert np.array_equal(result, ref_result)
    assert stats.edges_processed == ref_stats.edges_processed
    assert stats.extra["scr"] == ref_stats.extra["scr"]


def test_prefetched_batches_recorded(graph):
    """The wall-overlap accounting distinguishes serial from prefetched."""
    _, serial = _run(graph, ALGOS["pagerank"], depth=0)
    _, overlapped = _run(graph, ALGOS["pagerank"], depth=2)
    sw, ow = serial.extra["pipeline_wall"], overlapped.extra["pipeline_wall"]
    assert sw["batches"] > 0 and sw["prefetched"] == 0
    assert ow["prefetched"] == ow["batches"] > 0
    # The serial baseline stalls for every fetch by definition.
    assert sw["io_stall"] == pytest.approx(sw["io_busy"])
    assert serial.wall_io_stall_fraction() is not None


def test_execution_extra_records_pipeline(graph):
    _, stats = _run(graph, ALGOS["bfs"], depth=3, workers="auto")
    ex = stats.extra["execution"]
    assert ex["prefetch_depth"] == 3
    assert ex["workers"] == "auto"
    assert isinstance(ex["workers_resolved"], int) and ex["workers_resolved"] >= 1


class _Exploder(PageRank):
    """PageRank that blows up mid-run, after the pipeline has started."""

    def __init__(self, after_batches: int = 3):
        super().__init__(max_iterations=10, tolerance=0.0)
        self._batches = 0
        self._after = after_batches

    def batch_partial(self, views):
        self._batches += 1
        if self._batches > self._after:
            raise RuntimeError("kernel exploded mid-iteration")
        return super().batch_partial(views)

    def process_batch(self, views) -> int:
        self._batches += 1
        if self._batches > self._after:
            raise RuntimeError("kernel exploded mid-iteration")
        return super().process_batch(views)


@pytest.mark.parametrize("depth", [1, 4])
def test_algorithm_exception_shuts_prefetcher_down(graph, depth):
    """A mid-iteration kernel exception must not leak the prefetch thread
    (or pool workers, once the engine is closed)."""
    cfg = EngineConfig(
        memory_bytes=24 * 1024,
        segment_bytes=4 * 1024,
        prefetch_depth=depth,
        shards=1,
    )
    engine = GStoreEngine(graph, cfg)
    with pytest.raises(RuntimeError, match="exploded"):
        engine.run(_Exploder())
    assert _lingering(PREFETCH_THREAD_NAME) == []
    engine.close()
    assert _lingering(WORKER_THREAD_PREFIX) == []


def test_io_error_propagates_and_cleans_up(graph):
    """A store-read failure inside a prefetch job surfaces on the engine
    thread and still tears the pipeline down."""
    cfg = EngineConfig(
        memory_bytes=24 * 1024, segment_bytes=4 * 1024, prefetch_depth=2,
        shards=1,
    )
    engine = GStoreEngine(graph, cfg)
    original = engine.store.read

    def broken(offset, size):
        raise OSError("injected read failure")

    engine.store.read = broken
    with pytest.raises(OSError, match="injected"):
        engine.run(BFS(root=0))
    engine.store.read = original
    assert _lingering(PREFETCH_THREAD_NAME) == []
    engine.close()


def test_realize_io_matches_unrealized_results(graph):
    """Device-paced mode only changes wall time, never results or the
    simulated timeline."""
    ref_result, ref_stats = _run(graph, ALGOS["bfs"], depth=0)
    cfg = EngineConfig(
        memory_bytes=24 * 1024,
        segment_bytes=4 * 1024,
        prefetch_depth=2,
        realize_io=True,
        shards=1,
    )
    with GStoreEngine(graph, cfg) as engine:
        algo = BFS(root=0)
        stats = engine.run(algo)
    assert np.array_equal(algo.result(), ref_result)
    assert stats.sim_elapsed == pytest.approx(ref_stats.sim_elapsed)
    # The run really slept its I/O: wall time covers the simulated io time.
    assert stats.wall_seconds > 0
