"""The slide loop costs O(batches), not O(tiles), in pool-side objects.

The cache pool accounts by disk position, so a run — fused or the
per-tile reference loop, which differ only in the decoder — hands each
batch's position array straight from the slide plan to the pool: no
``TileBuffer`` is built and the pool is entered a bounded number of times
per batch and per iteration.  A checkpoint resume seeds the pool from
positions alone, and the first rewind decodes them off the backing store
like any other.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.memory.segments import CachePool, TileBuffer

#: Pool entries one offered batch may cost (reserve, membership, two
#: admits, the analysis' resident scan and eviction) and one iteration's
#: planning + end-of-iteration analysis may cost — constants, whatever the
#: number of tiles in the batch.
CALLS_PER_STEP = 8


@pytest.fixture(scope="module")
def many_tiles() -> TiledGraph:
    el = rmat(13, edge_factor=8, seed=3)
    tg = TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)
    assert int((tg.tile_edge_counts() > 0).sum()) >= 4000
    return tg


def _count_pool_and_buffers(monkeypatch) -> dict:
    counts = {"buffers": 0, "pool_calls": 0}
    buffer_init = TileBuffer.__init__

    def counting_init(self, *args, **kwargs):
        counts["buffers"] += 1
        buffer_init(self, *args, **kwargs)

    monkeypatch.setattr(TileBuffer, "__init__", counting_init)
    for name, member in list(vars(CachePool).items()):
        if not callable(member) or name == "__init__":
            continue

        def counted(self, *args, _member=member, **kwargs):
            counts["pool_calls"] += 1
            return _member(self, *args, **kwargs)

        monkeypatch.setattr(CachePool, name, counted)
    return counts


@pytest.mark.parametrize(
    "make_algo",
    [lambda: BFS(root=0), lambda: PageRank(max_iterations=4, tolerance=0.0)],
    ids=["bfs", "pagerank"],
)
def test_fused_run_builds_no_per_tile_objects(many_tiles, monkeypatch, make_algo):
    payload = many_tiles.storage_bytes()
    counts = _count_pool_and_buffers(monkeypatch)
    for fused in (True, False):  # the reference loop builds none either
        cfg = EngineConfig(
            memory_bytes=payload // 4, segment_bytes=payload // 16,
            prefetch_depth=0, fused=fused,
        )
        counts.update(buffers=0, pool_calls=0)
        with GStoreEngine(many_tiles, cfg) as engine:
            stats = engine.run(make_algo())
        assert stats.extra["execution"]["fused"] is fused
        assert stats.tiles_fetched >= 4000
        assert stats.extra["scr"].tiles_cached > 0  # the pool was really used
        assert counts["buffers"] == 0, fused
        steps = stats.extra["pipeline_wall"]["batches"] + len(stats.iterations)
        assert counts["pool_calls"] <= CALLS_PER_STEP * steps, fused
        assert counts["pool_calls"] < stats.tiles_fetched // 4, fused


def test_per_tile_resume_rewinds_from_positions(many_tiles, tmp_path):
    """A resumed run starts from a pool that knows positions only; its
    first rewind must still produce every resident tile's view, and the
    result must match the uninterrupted run bit for bit."""
    payload = many_tiles.storage_bytes()

    def cfg(**kw):
        return EngineConfig(
            memory_bytes=payload // 2, segment_bytes=payload // 16,
            fused=False, prefetch_depth=0, **kw,
        )

    def make_algo():
        return PageRank(max_iterations=5, tolerance=0.0)

    clean = make_algo()
    clean_stats = GStoreEngine(many_tiles, cfg()).run(clean)

    ckpt = os.fspath(tmp_path / "ckpt")
    with pytest.raises(AlgorithmError):
        GStoreEngine(many_tiles, cfg(max_iterations=2)).run(
            make_algo(), checkpoint=ckpt
        )
    _, _, _, engine_state = CheckpointManager(ckpt).load()
    assert engine_state["cached_positions"]  # membership, nothing else

    resumed = make_algo()
    resumed_stats = GStoreEngine(many_tiles, cfg()).run(resumed, checkpoint=ckpt)
    assert not resumed_stats.extra["execution"]["fused"]
    first, same_clean = resumed_stats.iterations[0], clean_stats.iterations[2]
    assert first.tiles_from_cache == len(engine_state["cached_positions"])
    assert first.tiles_from_cache == same_clean.tiles_from_cache
    assert first.tiles_fetched == same_clean.tiles_fetched
    np.testing.assert_array_equal(clean.rank, resumed.rank)
