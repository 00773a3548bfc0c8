"""Shard-parallel execution: the coordinator/worker runtime's own contract.

That shard counts, worker counts, prefetch depths and private contexts
change nothing observable but wall time — workers chunking batches at
their coordinator's shard floor included — is the equivalence lattice's
(``tools/equiv_matrix.py``, asserted in tier-1 by
``tests/test_equiv_lattice.py``).  Here: a sharded run exposes its
counters and worker tracks, runs that cannot shard fall back
bit-identically, and no shared-memory segment or worker process
outlives the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import StorageError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.runtime.shm import LIVE_SHM_SEGMENTS


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    el = rmat(9, edge_factor=8, seed=77)
    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


def _config(**kw) -> EngineConfig:
    # Tiny budget: several slide batches per iteration plus cache pressure.
    return EngineConfig(memory_bytes=24 * 1024, segment_bytes=4 * 1024, **kw)


def test_shard_counters_and_worker_tracks(graph):
    """A traced sharded run exposes the shard counters and places each
    worker's batch spans on its own trace track."""
    with GStoreEngine(graph, _config(workers=1, shards=2, trace=True)) as engine:
        stats = engine.run(PageRank(max_iterations=15, tolerance=1e-10))
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


def _single_process_fallback(graph, make) -> None:
    """A run configured with two shards that must run single-process:
    bit-identical to ``shards=1``, and saying so in its execution record."""
    results = []
    for shards in (1, 2):
        with GStoreEngine(graph, _config(workers=1, shards=shards)) as engine:
            algo = make()
            stats = engine.run(algo)
        results.append(algo.result())
    assert np.array_equal(*results)
    ex = stats.extra["execution"]
    assert ex["shards"] == 2
    assert ex["shards_resolved"] == 1
    assert not LIVE_SHM_SEGMENTS


def test_shard_gating_unsupported_algorithm(graph):
    """An algorithm whose fused kernel is live (SSSP: every shard must
    see the previous shard's commit) silently runs single-process even
    when shards are configured."""
    _single_process_fallback(graph, lambda: SSSP(root=0))


def test_env_default_shards(graph, monkeypatch):
    """shards=None resolves through REPRO_SHARDS — how CI runs the whole
    suite sharded without touching any test."""
    monkeypatch.setenv("REPRO_SHARDS", "2")
    with GStoreEngine(graph, _config()) as engine:
        assert engine.shards == 2
    monkeypatch.setenv("REPRO_SHARDS", "0")
    with pytest.raises(ValueError):
        GStoreEngine(graph, _config())


def test_config_rejects_bad_shards():
    with pytest.raises(StorageError):
        EngineConfig(shards=0)


def test_shard_fallback_when_shared_memory_unavailable(graph, monkeypatch):
    """No /dev/shm: the scatter-arena probe fails *before* any worker is
    spawned and the run completes single-process, bit-identical."""

    def no_shm(*a, **k):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(
        "multiprocessing.shared_memory.SharedMemory", no_shm
    )
    _single_process_fallback(
        graph, lambda: BFS(root=0, direction_optimizing=True)
    )


def test_close_tears_down_shard_runtime(graph):
    engine = GStoreEngine(graph, _config(workers=1, shards=2))
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
