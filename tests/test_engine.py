"""Engine-level tests: SCR behaviour, selective I/O, pipelining, stats."""

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError, StorageError
from repro.memory.scr import CachePolicy
from repro.runtime.prefetch import Prefetcher
from repro.storage.aio import IOMode


def _cfg(**kw):
    base = dict(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    base.update(kw)
    return EngineConfig(**base)


class TestConfigValidation:
    def test_memory_must_hold_two_segments(self):
        with pytest.raises(StorageError):
            EngineConfig(memory_bytes=10, segment_bytes=8)

    def test_need_one_ssd(self):
        with pytest.raises(StorageError):
            EngineConfig(n_ssds=0)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    @pytest.mark.parametrize("field", [
        "memory_bytes", "segment_bytes", "n_ssds", "stripe_bytes",
        "prefetch_depth", "max_iterations",
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        """A count is an integer: a fractional ``n_ssds`` would fail
        untyped in ``range()``, and a fractional prefetch depth would make
        a semaphore that never reaches zero — read-ahead without bound."""
        with pytest.raises(StorageError, match=field):
            EngineConfig(**{field: value})
        if field == "prefetch_depth":
            with pytest.raises(TypeError, match="depth"):
                Prefetcher([lambda: None] * 4, depth=value)


class TestSCRBehaviour:
    def test_scr_reads_less_than_base(self, tiled_undirected):
        pr_scr = PageRank(max_iterations=4, tolerance=0.0)
        pr_base = PageRank(max_iterations=4, tolerance=0.0)
        scr = GStoreEngine(
            tiled_undirected, _cfg(cache_policy=CachePolicy.SCR)
        ).run(pr_scr)
        base = GStoreEngine(
            tiled_undirected, _cfg(cache_policy=CachePolicy.BASE)
        ).run(pr_base)
        assert scr.bytes_read < base.bytes_read
        assert scr.bytes_from_cache > 0
        assert base.bytes_from_cache == 0
        # Results identical either way.
        assert np.allclose(pr_scr.result(), pr_base.result())

    def test_first_iteration_has_no_cache_hits(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(
            PageRank(max_iterations=3, tolerance=0.0)
        )
        assert stats.iterations[0].tiles_from_cache == 0
        assert stats.iterations[1].tiles_from_cache > 0

    def test_pagerank_rewind_covers_everything_with_big_memory(
        self, tiled_undirected
    ):
        # With memory >= graph, iterations 2+ should be 100% cache-fed —
        # the paper: "almost 100% of these data will be utilized".
        big = _cfg(memory_bytes=8 * 1024 * 1024, segment_bytes=64 * 1024)
        stats = GStoreEngine(tiled_undirected, big).run(
            PageRank(max_iterations=3, tolerance=0.0)
        )
        last = stats.iterations[-1]
        assert last.bytes_read == 0
        assert last.tiles_from_cache > 0

    def test_bfs_cache_not_reused_for_visited_regions(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(BFS(root=0))
        # Total demand (read + cache) must not exceed one full pass per
        # iteration; mostly it should be far less late in the traversal.
        total_bytes = tiled_undirected.storage_bytes()
        for it in stats.iterations:
            assert it.bytes_read + it.bytes_from_cache <= total_bytes


class TestIOAccounting:
    def test_bytes_read_at_most_selected(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(
            PageRank(max_iterations=2, tolerance=0.0)
        )
        per_iter = tiled_undirected.storage_bytes()
        assert stats.iterations[0].bytes_read == per_iter

    def test_sync_mode_slower(self, tiled_undirected):
        # BFS's selective fetching produces gappy multi-request batches,
        # where synchronous per-request latency visibly loses to AIO.
        # Tiny segments force several batches per iteration.
        a = GStoreEngine(
            tiled_undirected,
            _cfg(io_mode=IOMode.AIO, segment_bytes=1024, memory_bytes=4096),
        ).run(BFS(root=0))
        s = GStoreEngine(
            tiled_undirected,
            _cfg(io_mode=IOMode.SYNC, segment_bytes=1024, memory_bytes=4096),
        ).run(BFS(root=0))
        assert s.io_time > a.io_time

    def test_overlap_faster_than_serial(self, tiled_undirected):
        # Small segments create many pipeline steps whose compute can
        # hide behind the next fetch.
        o = GStoreEngine(
            tiled_undirected,
            _cfg(overlap=True, segment_bytes=1024, memory_bytes=4096),
        ).run(PageRank(max_iterations=3, tolerance=0.0))
        n = GStoreEngine(
            tiled_undirected,
            _cfg(overlap=False, segment_bytes=1024, memory_bytes=4096),
        ).run(PageRank(max_iterations=3, tolerance=0.0))
        assert o.sim_elapsed < n.sim_elapsed

    def test_more_ssds_not_slower(self, tiled_undirected):
        t1 = GStoreEngine(tiled_undirected, _cfg(n_ssds=1)).run(
            PageRank(max_iterations=2, tolerance=0.0)
        )
        t4 = GStoreEngine(tiled_undirected, _cfg(n_ssds=4)).run(
            PageRank(max_iterations=2, tolerance=0.0)
        )
        assert t4.io_time <= t1.io_time


class TestStatsShape:
    def test_summary_renders(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(BFS(root=0))
        text = stats.summary()
        assert "gstore/bfs" in text
        assert "MTEPS" in text

    def test_iteration_elapsed_sums(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(BFS(root=0))
        assert stats.sim_elapsed == pytest.approx(
            sum(it.elapsed for it in stats.iterations)
        )

    def test_wall_time_recorded(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(BFS(root=0))
        assert stats.wall_seconds > 0

    def test_extra_holds_scr_and_pipeline(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(BFS(root=0))
        assert "scr" in stats.extra
        assert "pipeline" in stats.extra

    def test_configured_cost_model_sets_compute_time(self, tiled_undirected):
        from repro.runtime.cost import CostModel

        def run(model):
            with GStoreEngine(tiled_undirected, _cfg(cost_model=model)) as engine:
                return engine.run(PageRank(max_iterations=2, tolerance=0.0))

        slow, fast = run(CostModel()), run(CostModel().scaled(4.0))
        assert 0 < fast.compute_time < slow.compute_time
        assert fast.bytes_read == slow.bytes_read

    def test_edges_processed_bfs(self, tiled_undirected):
        stats = GStoreEngine(tiled_undirected, _cfg()).run(BFS(root=0))
        # Never more than one full pass per iteration.
        assert stats.edges_processed <= stats.n_iterations * tiled_undirected.n_edges


class TestGuards:
    def test_nonconvergence_raises(self, tiled_undirected):
        cfg = _cfg(max_iterations=2)
        algo = PageRank(max_iterations=100, tolerance=0.0)
        with pytest.raises(AlgorithmError):
            GStoreEngine(tiled_undirected, cfg).run(algo)

    def test_external_payload_runs(self, tmp_path, tiled_undirected):
        from repro.format.tiles import TiledGraph

        d = tmp_path / "g"
        tiled_undirected.save(d)
        ext = TiledGraph.load(d, resident=False)
        algo = BFS(root=0)
        stats = GStoreEngine(ext, _cfg()).run(algo)
        ref = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg()).run(ref)
        assert np.array_equal(algo.result(), ref.result())
