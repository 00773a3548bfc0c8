"""Property-based engine invariants: byte conservation, result stability."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.memory.scr import CachePolicy


@st.composite
def graph_and_config(draw):
    n_v = draw(st.integers(16, 200))
    n_e = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    el = EdgeList(
        rng.integers(0, n_v, n_e).astype(np.uint32),
        rng.integers(0, n_v, n_e).astype(np.uint32),
        n_v,
        directed=draw(st.booleans()),
        name="prop",
    )
    tile_bits = draw(st.integers(3, 6))
    tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=2)
    memory = draw(st.integers(4, 64)) * 1024
    segment = draw(st.integers(1, 2)) * 1024
    cfg = EngineConfig(memory_bytes=memory, segment_bytes=segment)
    return tg, cfg


class TestByteConservation:
    @given(gc=graph_and_config())
    @settings(max_examples=25, deadline=None)
    def test_pagerank_demand_equals_selection(self, gc):
        # For an all-active algorithm every iteration demands exactly the
        # whole payload: reads + cache hits == payload bytes, per iteration.
        tg, cfg = gc
        stats = GStoreEngine(tg, cfg).run(PageRank(max_iterations=3, tolerance=0.0))
        total = tg.storage_bytes()
        for it in stats.iterations:
            assert it.bytes_read + it.bytes_from_cache == total

    @given(gc=graph_and_config())
    @settings(max_examples=25, deadline=None)
    def test_bfs_demand_never_exceeds_payload(self, gc):
        tg, cfg = gc
        stats = GStoreEngine(tg, cfg).run(BFS(root=0))
        total = tg.storage_bytes()
        for it in stats.iterations:
            assert it.bytes_read + it.bytes_from_cache <= total

    @given(gc=graph_and_config())
    @settings(max_examples=20, deadline=None)
    def test_scr_never_reads_more_than_base(self, gc):
        tg, cfg = gc
        scr_stats = GStoreEngine(tg, cfg).run(
            PageRank(max_iterations=3, tolerance=0.0)
        )
        base_cfg = EngineConfig(
            memory_bytes=cfg.memory_bytes,
            segment_bytes=cfg.segment_bytes,
            cache_policy=CachePolicy.BASE,
        )
        base_stats = GStoreEngine(tg, base_cfg).run(
            PageRank(max_iterations=3, tolerance=0.0)
        )
        assert scr_stats.bytes_read <= base_stats.bytes_read


class TestResultStability:
    @given(gc=graph_and_config(), seg_kb=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_segmenting_never_changes_results(self, gc, seg_kb):
        tg, cfg = gc
        a = PageRank(max_iterations=4, tolerance=0.0)
        GStoreEngine(tg, cfg).run(a)
        other = EngineConfig(
            memory_bytes=max(cfg.memory_bytes, 2 * seg_kb * 1024),
            segment_bytes=seg_kb * 1024,
        )
        b = PageRank(max_iterations=4, tolerance=0.0)
        GStoreEngine(tg, other).run(b)
        assert np.allclose(a.result(), b.result())

    @given(gc=graph_and_config())
    @settings(max_examples=20, deadline=None)
    def test_sim_time_components_consistent(self, gc):
        tg, cfg = gc
        stats = GStoreEngine(tg, cfg).run(BFS(root=0))
        elapsed = stats.extra["pipeline"].elapsed
        # Overlapped elapsed lies between max(component) and their sum.
        assert elapsed <= stats.io_time + stats.compute_time + 1e-12
        assert elapsed >= max(stats.io_time, stats.compute_time) - 1e-12


class TestGeometryInvariance:
    @given(
        seed=st.integers(0, 2**31 - 1),
        q1=st.integers(1, 6),
        q2=st.integers(1, 6),
        tb=st.integers(3, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_group_q_never_changes_results(self, seed, q1, q2, tb):
        # Physical grouping is a *layout* choice: any q must give the
        # same algorithm output.
        rng = np.random.default_rng(seed)
        n = 120
        el = EdgeList(
            rng.integers(0, n, 300).astype(np.uint32),
            rng.integers(0, n, 300).astype(np.uint32),
            n,
            directed=False,
        )
        cfg = EngineConfig(memory_bytes=16 * 1024, segment_bytes=2 * 1024)
        a = PageRank(max_iterations=4, tolerance=0.0)
        GStoreEngine(
            TiledGraph.from_edge_list(el, tile_bits=tb, group_q=q1), cfg
        ).run(a)
        b = PageRank(max_iterations=4, tolerance=0.0)
        GStoreEngine(
            TiledGraph.from_edge_list(el, tile_bits=tb, group_q=q2), cfg
        ).run(b)
        assert np.allclose(a.result(), b.result())

    @given(seed=st.integers(0, 2**31 - 1), tb1=st.integers(3, 7),
           tb2=st.integers(3, 7))
    @settings(max_examples=20, deadline=None)
    def test_tile_bits_never_changes_results(self, seed, tb1, tb2):
        rng = np.random.default_rng(seed)
        n = 120
        el = EdgeList(
            rng.integers(0, n, 300).astype(np.uint32),
            rng.integers(0, n, 300).astype(np.uint32),
            n,
            directed=False,
        )
        cfg = EngineConfig(memory_bytes=16 * 1024, segment_bytes=2 * 1024)
        a = BFS(root=0)
        GStoreEngine(
            TiledGraph.from_edge_list(el, tile_bits=tb1, group_q=2), cfg
        ).run(a)
        b = BFS(root=0)
        GStoreEngine(
            TiledGraph.from_edge_list(el, tile_bits=tb2, group_q=2), cfg
        ).run(b)
        assert np.array_equal(a.result(), b.result())
