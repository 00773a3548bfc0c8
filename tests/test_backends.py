"""Execution equivalence: worker counts, prefetch depths, and shard
counts produce identical runs.

Parallelism changes *nothing observable* except wall time: over
``workers`` in {1, 3} x prefetch depths {0, 2} (x selective on/off for
the frontier algorithms) and over shard counts {2, 4}, result arrays are
sha256-identical to the serial run, the simulated timeline and SCR cache
stats match field for field, and no shared-memory segment or worker
process outlives the engine.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.mis import MaximalIndependentSet
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.pagerank import PageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.spmv import SpMV
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import StorageError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.runtime.shm import LIVE_SHM_SEGMENTS
from repro.types import SHARDS_PER_BATCH

ALGOS = {
    "bfs": lambda: BFS(root=0),
    "pagerank": lambda: PageRank(max_iterations=15, tolerance=1e-10),
    "spmv": lambda: SpMV(iterations=3),
    "cc": lambda: ConnectedComponents(),
    "kcore": lambda: KCore(k=4),
    "sssp": lambda: SSSP(root=0),
    "async-bfs": lambda: AsyncBFS(root=0),
    "reachability-fwd": lambda: Reachability(seeds=[0, 5], forward=True),
    "reachability-bwd": lambda: Reachability(seeds=[0, 5], forward=False),
    "multibfs": lambda: MultiSourceBFS(roots=[0, 3, 200]),
    "mis": lambda: MaximalIndependentSet(seed=4),
}

#: The graph's slide batches hold ~2 000 edges, under the shipped
#: ``MIN_SHARD_EDGES``: lowered for this file so they still cut into
#: several shards (``test_matrix_batches_cut_into_several_shards``).
pytestmark = pytest.mark.usefixtures("low_shard_floor")

#: Worker counts: the serial walk and the thread pool — the shard
#: structure (and so the result) must not care.
WORKERS = [1, 3]

DEPTHS = [0, 2]


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    el = rmat(9, edge_factor=8, seed=77)
    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


def _run(tg, factory, workers, depth=2, selective=True, shards=None,
         private=False):
    # Tiny budget: several slide batches per iteration plus cache
    # pressure, so rewind, evictions, and multi-batch dispatch all run.
    # shards=None resolves through REPRO_SHARDS, so the equivalence
    # matrix also exercises shard-parallel execution when CI sets it.
    cfg = EngineConfig(
        memory_bytes=24 * 1024,
        segment_bytes=4 * 1024,
        workers=workers,
        prefetch_depth=depth,
        selective=selective,
        shards=shards,
    )
    with GStoreEngine(tg, cfg) as engine:
        algo = factory()
        stats = engine.run(
            algo, context=engine.query_context() if private else None
        )
    return algo.result().copy(), stats


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_matrix_batches_cut_into_several_shards(graph, monkeypatch):
    """What makes the matrices below mean something: under ``_run``'s
    budget a batch of this graph yields more than one shard at the
    lowered floor — and exactly one at the shipped floor, which is why
    the file lowers it."""

    class Counting(PageRank):
        @classmethod
        def shard_views(cls, views):
            shards = super().shard_views(views)
            counts.append(len(shards))
            return shards

    def factory():
        return Counting(max_iterations=2, tolerance=0.0)

    counts: "list[int]" = []
    _run(graph, factory, 1, depth=0)
    assert 1 < max(counts) <= SHARDS_PER_BATCH
    assert sorted(counts)[len(counts) // 2] > 1  # most batches, not one
    monkeypatch.undo()  # back to the shipped floor
    counts.clear()
    _run(graph, factory, 1, depth=0)
    assert set(counts) == {1}


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_backend_equivalence(graph, name):
    """Results and the full observable run are identical at every worker
    count and prefetch depth, and through a private context (one thread,
    depth 0, whatever the engine is configured with) — sha256 on the
    result bytes, so 'identical' means bit-identical, not approximately
    equal."""
    factory = ALGOS[name]
    ref_result, ref_stats = _run(graph, factory, 1, depth=0)
    ref_hash = _sha(ref_result)
    modes = [(w, d, False) for w in WORKERS for d in DEPTHS] + [(3, 2, True)]
    for workers, depth, private in modes:
        result, stats = _run(
            graph, factory, workers, depth=depth, private=private
        )
        assert _sha(result) == ref_hash, (name, workers, depth, private)
        assert stats.edges_processed == ref_stats.edges_processed
        assert len(stats.iterations) == len(ref_stats.iterations)
        assert stats.sim_elapsed == pytest.approx(ref_stats.sim_elapsed)
        assert stats.io_time == pytest.approx(ref_stats.io_time)
        assert stats.bytes_read == ref_stats.bytes_read
        assert stats.tiles_fetched == ref_stats.tiles_fetched
        assert stats.extra["scr"] == ref_stats.extra["scr"]
        execution = stats.extra["execution"]
        assert execution["workers_resolved"] == (1 if private else workers)
        assert execution["prefetch_depth_resolved"] == (
            0 if private else depth
        )
    assert not LIVE_SHM_SEGMENTS


#: The frontier-driven algorithms: every one implements ``rows_active``
#: (plus column/tile predicates where the kernel is bidirectional), so
#: selective scheduling thins their fetch sets per iteration.  BFS runs
#: direction-optimised here — the push/pull switch and the AND tile mask
#: are exactly the parts that must stay bit-identical across modes.  Both
#: asynchronous relaxations (the live kernels) are in the set.
FRONTIER_ALGOS = {
    "bfs": lambda: BFS(root=0, direction_optimizing=True),
    "sssp": lambda: SSSP(root=0),
    "async-bfs": lambda: AsyncBFS(root=0),
    "cc": lambda: ConnectedComponents(),
    "kcore": lambda: KCore(k=4),
}


def _demand(stats) -> int:
    """Bytes a run (or one iteration) asked for: fetched plus rewound."""
    return stats.bytes_read + stats.bytes_from_cache


@pytest.mark.parametrize("name", sorted(FRONTIER_ALGOS))
def test_selective_matrix(graph, name):
    """Selective execution is an I/O optimisation, never a semantic one:
    for every frontier algorithm, {selective on, off} x workers 1/3 x
    prefetch depths 0/2 produce sha256-identical results, and within each
    mode the full simulated run (timeline, bytes, SCR stats) is identical
    at every worker count and depth."""
    factory = FRONTIER_ALGOS[name]
    mode_ref = {}
    for selective in (False, True):
        result, stats = _run(graph, factory, 1, depth=0, selective=selective)
        mode_ref[selective] = (_sha(result), stats)
    # Cross-mode: skipping inactive tiles changes no result bit.
    assert mode_ref[True][0] == mode_ref[False][0], name
    # Dense mode never skips; selective mode must actually skip where the
    # frontier collapses below row granularity on this small graph (CC's
    # changed set spans all 8 tile rows until it converges — its savings
    # need the larger grids of test_selective_engine.py).
    dense, sel = mode_ref[False][1], mode_ref[True][1]
    assert dense.tiles_skipped == 0
    if name != "cc":
        assert sel.bytes_skipped > 0, name
    # Every dense iteration is one full sweep, and no selective iteration
    # asks for more than that.
    sweep = _demand(dense.iterations[0])
    assert all(_demand(it) == sweep for it in dense.iterations), name
    assert all(_demand(it) <= sweep for it in sel.iterations), name
    if factory().live_kernel:
        # An asynchronous relaxation is not monotone in the selection: the
        # dense first sweep also relaxes the tiles the frontier has not
        # reached yet, against this sweep's distances, and may converge a
        # sweep sooner than the selective run.  (On this graph per-tile
        # AsyncBFS demands 22 782 B selective against 22 266 B dense, and
        # so does its fused kernel; fused SSSP 31 802 B against 29 688 B.)
        # No theorem bounds the excess; one dense sweep did, per-tile and
        # fused, on every graph of seeds 60..99 at this geometry.
        assert _demand(sel) <= _demand(dense) + sweep, name
    else:
        # A synchronous kernel walks the same iterations either way, so
        # its total demand can only fall.
        assert len(sel.iterations) == len(dense.iterations), name
        assert _demand(sel) <= _demand(dense), name
    for selective in (False, True):
        ref_hash, ref_stats = mode_ref[selective]
        for workers in WORKERS:
            for depth in DEPTHS:
                result, stats = _run(
                    graph, factory, workers, depth=depth, selective=selective
                )
                key = (name, selective, workers, depth)
                assert _sha(result) == ref_hash, key
                assert stats.edges_processed == ref_stats.edges_processed, key
                assert len(stats.iterations) == len(ref_stats.iterations)
                assert stats.sim_elapsed == pytest.approx(
                    ref_stats.sim_elapsed
                ), key
                assert stats.io_time == pytest.approx(ref_stats.io_time), key
                assert stats.bytes_read == ref_stats.bytes_read, key
                assert stats.tiles_fetched == ref_stats.tiles_fetched, key
                assert stats.bytes_skipped == ref_stats.bytes_skipped, key
                assert stats.tiles_skipped == ref_stats.tiles_skipped, key
                assert stats.extra["scr"] == ref_stats.extra["scr"], key
                assert stats.extra["execution"]["selective"] == selective
    assert not LIVE_SHM_SEGMENTS


# --------------------------------------------------------------------- #
# Shard-parallel execution (coordinator + persistent shard workers)
# --------------------------------------------------------------------- #

#: The shard-capable algorithm set: every fused snapshot kernel.  BFS
#: runs direction-optimised — the push/pull switch must survive having
#: its batches computed on worker snapshots.
SHARD_ALGOS = {
    "bfs": lambda: BFS(root=0, direction_optimizing=True),
    "pagerank": lambda: PageRank(max_iterations=15, tolerance=1e-10),
    "spmv": lambda: SpMV(iterations=3),
    "cc": lambda: ConnectedComponents(),
    "kcore": lambda: KCore(k=4),
    "reachability": ALGOS["reachability-fwd"],
    "multibfs": ALGOS["multibfs"],
    "mis": ALGOS["mis"],
}


@pytest.mark.parametrize("selective", [False, True])
def test_shard_matrix(graph, selective):
    """Shard-parallel execution changes nothing observable but wall time:
    for every shard-capable algorithm, shards {2, 4} x selective {on, off}
    are sha256-identical to the single-process serial run, with the full
    simulated timeline and SCR stats matching field for field.  One
    engine per shard count is reused across all the algorithms — the
    persistent workers serve heterogeneous kernels back to back."""
    refs = {}
    for name, factory in SHARD_ALGOS.items():
        result, stats = _run(
            graph, factory, 1, depth=0, selective=selective, shards=1
        )
        refs[name] = (_sha(result), stats)
    for shards in (2, 4):
        cfg = EngineConfig(
            memory_bytes=24 * 1024,
            segment_bytes=4 * 1024,
            workers=1,
            prefetch_depth=2,
            selective=selective,
            shards=shards,
        )
        with GStoreEngine(graph, cfg) as engine:
            for name, factory in SHARD_ALGOS.items():
                algo = factory()
                stats = engine.run(algo)
                key = (name, shards, selective)
                ref_hash, ref_stats = refs[name]
                assert _sha(algo.result()) == ref_hash, key
                assert stats.edges_processed == ref_stats.edges_processed, key
                assert len(stats.iterations) == len(ref_stats.iterations)
                assert stats.sim_elapsed == pytest.approx(
                    ref_stats.sim_elapsed
                ), key
                assert stats.io_time == pytest.approx(ref_stats.io_time), key
                assert stats.bytes_read == ref_stats.bytes_read, key
                assert stats.tiles_fetched == ref_stats.tiles_fetched, key
                assert stats.bytes_skipped == ref_stats.bytes_skipped, key
                assert stats.extra["scr"] == ref_stats.extra["scr"], key
                ex = stats.extra["execution"]
                assert ex["shards"] == shards, key
                assert ex["shards_resolved"] == shards, key
    assert not LIVE_SHM_SEGMENTS


def test_shard_workers_cut_batches_as_the_coordinator_does(graph):
    """A worker chunking at another floor than its coordinator commits
    PageRank partials in another order.  The matrix above cannot see it
    (fifteen iterations over a resident graph converge the last bits
    back); three iterations streamed from storage every time can."""
    digests = set()
    for shards in (1, 2):
        cfg = EngineConfig(
            memory_bytes=8 * 1024, segment_bytes=4 * 1024,
            workers=1, prefetch_depth=0, shards=shards,
        )
        with GStoreEngine(graph, cfg) as engine:
            algo = PageRank(max_iterations=3, tolerance=0.0)
            stats = engine.run(algo)
            assert stats.extra["execution"]["shards_resolved"] == shards
            assert stats.bytes_read > 2 * graph.storage_bytes()
        digests.add(_sha(algo.result()))
    assert len(digests) == 1


def test_shard_counters_and_worker_tracks(graph):
    """A traced sharded run exposes the shard counters and places each
    worker's batch spans on its own trace track."""
    cfg = EngineConfig(
        memory_bytes=24 * 1024, segment_bytes=4 * 1024,
        workers=1, shards=2, trace=True,
    )
    with GStoreEngine(graph, cfg) as engine:
        algo = SHARD_ALGOS["pagerank"]()
        stats = engine.run(algo)
        counters = stats.extra["counters"]
        assert counters["shard.batches"] > 0
        assert counters["shard.bytes_read"] == stats.bytes_read
        assert counters["shard.worker_seconds"] > 0
        assert "shard.fallbacks" not in counters
        tracks = {
            r.track
            for r in engine.tracer.records()
            if r.track.startswith("repro-shard-")
        }
        assert tracks == {"repro-shard-0", "repro-shard-1"}
    assert not LIVE_SHM_SEGMENTS


def test_shard_gating_unsupported_algorithm(graph):
    """An algorithm whose fused kernel is live (SSSP: every shard must
    see the previous shard's commit) silently runs single-process even
    when shards are configured."""
    factory = lambda: SSSP(root=0)  # noqa: E731
    ref_result, _ = _run(graph, factory, 1, shards=1)
    result, stats = _run(graph, factory, 1, shards=2)
    assert np.array_equal(result, ref_result)
    ex = stats.extra["execution"]
    assert ex["shards"] == 2
    assert ex["shards_resolved"] == 1
    assert not LIVE_SHM_SEGMENTS


def test_env_default_shards(graph, monkeypatch):
    """shards=None resolves through REPRO_SHARDS — how CI runs the whole
    suite sharded without touching any test."""
    monkeypatch.setenv("REPRO_SHARDS", "2")
    cfg = EngineConfig(memory_bytes=24 * 1024, segment_bytes=4 * 1024)
    with GStoreEngine(graph, cfg) as engine:
        assert engine.shards == 2
    monkeypatch.setenv("REPRO_SHARDS", "0")
    with pytest.raises(ValueError):
        GStoreEngine(graph, cfg)


def test_config_rejects_bad_shards():
    with pytest.raises(StorageError):
        EngineConfig(shards=0)


def test_shard_fallback_when_shared_memory_unavailable(graph, monkeypatch):
    """No /dev/shm: the scatter-arena probe fails *before* any worker is
    spawned and the run completes single-process, bit-identical."""

    def no_shm(*a, **k):
        raise OSError("shared memory unavailable")

    ref_result, _ = _run(graph, SHARD_ALGOS["bfs"], 1, shards=1)
    monkeypatch.setattr(
        "multiprocessing.shared_memory.SharedMemory", no_shm
    )
    result, stats = _run(graph, SHARD_ALGOS["bfs"], 1, shards=2)
    assert np.array_equal(result, ref_result)
    ex = stats.extra["execution"]
    assert ex["shards"] == 2
    assert ex["shards_resolved"] == 1
    assert not LIVE_SHM_SEGMENTS


def test_close_tears_down_shard_runtime(graph):
    cfg = EngineConfig(
        memory_bytes=24 * 1024, segment_bytes=4 * 1024,
        workers=1, shards=2,
    )
    engine = GStoreEngine(graph, cfg)
    engine.warm_backend()
    rt = engine.shard_runtime
    assert rt is not None and not rt.broken
    procs = rt.processes
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    assert LIVE_SHM_SEGMENTS  # the scatter arena is live with the engine
    engine.close()
    assert engine.shard_runtime is None
    assert not any(p.is_alive() for p in procs)
    assert not LIVE_SHM_SEGMENTS
    engine.close()  # idempotent
