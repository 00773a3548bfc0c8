"""Prefetch-pipeline hygiene (the real §VI-B overlap).

With ``prefetch_depth >= 1`` a background worker fetches and decodes slide
batches ahead of compute, but batches still *commit* in plan order on the
engine thread — that results and every simulated statistic are identical
at any depth is the equivalence lattice's (``tools/equiv_matrix.py``,
asserted in tier-1 by ``tests/test_equiv_lattice.py``).  Here: an unset
depth runs the thread only when reads block (``realize_io``) and an
explicit one is honoured, the wall clock tells serial from prefetched
batches, device-paced mode changes no result, and whatever happens mid-run
(algorithm exceptions included), no prefetch thread survives the
iteration.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import StorageError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.runtime.prefetch import PREFETCH_THREAD_NAME
from repro.runtime.threads import WORKER_THREAD_PREFIX


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    el = rmat(9, edge_factor=8, seed=77)
    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


def _config(**kw) -> EngineConfig:
    # Tiny budget: several slide batches per iteration plus cache pressure,
    # so rewind, mid-iteration evictions, and multi-batch prefetch all run.
    # shards is pinned to 1 module-wide: this file asserts the prefetch
    # *pipeline*'s internals, which shard-parallel execution bypasses.
    return EngineConfig(
        memory_bytes=24 * 1024, segment_bytes=4 * 1024, shards=1, **kw
    )


def _lingering(prefix: str) -> "list[str]":
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


@pytest.mark.parametrize("depth, realize_io, resolved", [
    (None, False, 0),  # the default over page-cached reads: no thread
    (None, True, 2),   # reads block: the thread has something to overlap
    (0, False, 0), (0, True, 0), (2, False, 2), (2, True, 2),
])
def test_depth_resolution(graph, monkeypatch, depth, realize_io, resolved):
    """``prefetch_depth`` unset resolves from ``realize_io``; an explicit
    depth is honoured either way — in the record, in the wall accounting,
    and in which threads the run started."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    kw = {} if depth is None else {"prefetch_depth": depth}
    cfg = _config(realize_io=realize_io, **kw)
    assert cfg.prefetch_depth == depth
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    with GStoreEngine(graph, cfg) as engine:
        stats = engine.run(PageRank(max_iterations=4, tolerance=0.0))
    ex, pw = stats.extra["execution"], stats.extra["pipeline_wall"]
    assert ex["prefetch_depth"] == depth
    assert ex["prefetch_depth_resolved"] == resolved
    assert pw["batches"] > 0
    assert pw["prefetched"] == (pw["batches"] if resolved else 0)
    # Every thread the run started is a prefetcher, and there are some
    # exactly when the depth resolved above 0.
    assert all(n.startswith(PREFETCH_THREAD_NAME) for n in started), started
    assert bool(started) == bool(resolved), started


def test_negative_depth_rejected():
    with pytest.raises(StorageError, match="prefetch_depth"):
        EngineConfig(prefetch_depth=-1)


def test_prefetched_batches_recorded(graph):
    """The wall-overlap accounting distinguishes serial from prefetched."""
    runs = []
    for depth in (0, 2):
        with GStoreEngine(graph, _config(prefetch_depth=depth)) as engine:
            runs.append(engine.run(PageRank(max_iterations=15, tolerance=1e-10)))
    serial, overlapped = runs
    sw, ow = serial.extra["pipeline_wall"], overlapped.extra["pipeline_wall"]
    assert sw["batches"] > 0 and sw["prefetched"] == 0
    assert ow["prefetched"] == ow["batches"] > 0
    # The serial baseline stalls for every fetch by definition.
    assert sw["io_stall"] == pytest.approx(sw["io_busy"])
    assert serial.wall_io_stall_fraction() is not None


def test_execution_extra_records_pipeline(graph):
    with GStoreEngine(graph, _config(prefetch_depth=3, workers="auto")) as engine:
        stats = engine.run(BFS(root=0))
    ex = stats.extra["execution"]
    assert ex["prefetch_depth"] == 3
    assert ex["workers"] == "auto"
    assert isinstance(ex["workers_resolved"], int) and ex["workers_resolved"] >= 1


class _Exploder(PageRank):
    """PageRank that blows up mid-run, after the pipeline has started.

    ``batch_partial`` sees every dispatch path — serial, pooled and per
    tile — so it counts each shard kernel call once."""

    def __init__(self, after_batches: int = 3):
        super().__init__(max_iterations=10, tolerance=0.0)
        self._batches = 0
        self._after = after_batches

    def batch_partial(self, views):
        self._batches += 1
        if self._batches > self._after:
            raise RuntimeError("kernel exploded mid-iteration")
        return super().batch_partial(views)


@pytest.mark.parametrize("depth", [1, 4])
def test_algorithm_exception_shuts_prefetcher_down(graph, depth):
    """A mid-iteration kernel exception must not leak the prefetch thread
    (or pool workers, once the engine is closed)."""
    engine = GStoreEngine(graph, _config(prefetch_depth=depth))
    with pytest.raises(RuntimeError, match="exploded"):
        engine.run(_Exploder())
    assert _lingering(PREFETCH_THREAD_NAME) == []
    engine.close()
    assert _lingering(WORKER_THREAD_PREFIX) == []


def test_io_error_propagates_and_cleans_up(graph):
    """A store-read failure inside a prefetch job surfaces on the engine
    thread and still tears the pipeline down."""
    engine = GStoreEngine(graph, _config(prefetch_depth=2))
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
    runs = []
    for cfg in (_config(prefetch_depth=0),
                _config(prefetch_depth=2, realize_io=True)):
        with GStoreEngine(graph, cfg) as engine:
            algo = BFS(root=0)
            runs.append((algo, engine.run(algo)))
    (ref, ref_stats), (algo, stats) = runs
    assert np.array_equal(algo.result(), ref.result())
    assert stats.sim_elapsed == pytest.approx(ref_stats.sim_elapsed)
    # The run really slept its I/O: wall time covers the simulated io time.
    assert stats.wall_seconds > 0
