"""End-to-end integration tests crossing module boundaries."""

import numpy as np
import pytest

from repro import (
    BFS,
    ConnectedComponents,
    EdgeList,
    EngineConfig,
    FlashGraphEngine,
    GStoreEngine,
    GridGraphEngine,
    PageRank,
    TiledGraph,
    XStreamEngine,
    kronecker,
    rmat,
)
from repro.baselines.common import BaselineConfig
from repro.memory.scr import CachePolicy


@pytest.fixture(scope="module")
def kron():
    return kronecker(11, edge_factor=8, seed=33)


@pytest.fixture(scope="module")
def kron_tiled(kron):
    return TiledGraph.from_edge_list(kron, tile_bits=7, group_q=4)


def _cfg(**kw):
    base = dict(memory_bytes=128 * 1024, segment_bytes=16 * 1024)
    base.update(kw)
    return EngineConfig(**base)


@pytest.fixture(scope="module")
def agreement_graphs(kron, kron_tiled):
    """``(edge list, tiles)``: the undirected Kronecker graph and a directed
    R-MAT (self-loops and duplicates kept)."""
    directed = rmat(10, edge_factor=8, seed=34, directed=True)
    return [
        (kron, kron_tiled),
        (directed, TiledGraph.from_edge_list(directed, tile_bits=7, group_q=4)),
    ]


COMPARATORS = [
    XStreamEngine,
    FlashGraphEngine,
    lambda el, cfg: GridGraphEngine(el, cfg, n_parts=8),
]


class TestFourEnginesAgree:
    """All four engines must produce identical results on the same graph:
    every comparator (whose programs are written apart from G-Store's tile
    kernels) × BFS / PageRank / CC × undirected and directed."""

    @staticmethod
    def _consensus(graphs, algorithm, run, same):
        bcfg = BaselineConfig(memory_bytes=128 * 1024, segment_bytes=16 * 1024)
        for el, tiled in graphs:
            gs = algorithm()
            GStoreEngine(tiled, _cfg()).run(gs)
            for comparator in COMPARATORS:
                result, stats = run(comparator(el, bcfg))
                assert same(gs.result(), result), (stats.engine, el.name)

    def test_bfs_consensus(self, agreement_graphs):
        self._consensus(
            agreement_graphs, lambda: BFS(root=0), lambda eng: eng.run_bfs(0),
            np.array_equal,
        )

    def test_pagerank_consensus(self, agreement_graphs):
        self._consensus(
            agreement_graphs,
            lambda: PageRank(tolerance=1e-12, max_iterations=300),
            lambda eng: eng.run_pagerank(tolerance=1e-12, max_iterations=300),
            lambda ours, theirs: np.allclose(ours, theirs, atol=1e-10),
        )

    def test_cc_consensus(self, agreement_graphs):
        self._consensus(
            agreement_graphs, ConnectedComponents, lambda eng: eng.run_cc(),
            np.array_equal,
        )


class TestPersistedPipeline:
    """Generate -> convert -> save -> reload (semi-external) -> run."""

    def test_full_pipeline(self, tmp_path, kron, kron_tiled):
        d = tmp_path / "store"
        kron_tiled.save(d)
        reloaded = TiledGraph.load(d, resident=False)
        algo = BFS(root=0)
        stats = GStoreEngine(reloaded, _cfg()).run(algo)
        ref = BFS(root=0)
        GStoreEngine(kron_tiled, _cfg()).run(ref)
        assert np.array_equal(algo.result(), ref.result())
        assert stats.bytes_read > 0  # actually went through the store

    def test_edge_list_roundtrip_through_disk(self, tmp_path, kron):
        p = tmp_path / "edges.bin"
        kron.save(p)
        back = EdgeList.load(p)
        tg1 = TiledGraph.from_edge_list(kron, tile_bits=7, group_q=4)
        tg2 = TiledGraph.from_edge_list(back, tile_bits=7, group_q=4)
        assert np.array_equal(tg1.payload, tg2.payload)


class TestPolicyInvariance:
    """Results must be identical across all engine configurations."""

    @pytest.mark.parametrize("policy", [CachePolicy.SCR, CachePolicy.BASE])
    @pytest.mark.parametrize("n_ssds", [1, 4])
    def test_bfs_invariant(self, kron_tiled, policy, n_ssds):
        algo = BFS(root=0)
        GStoreEngine(
            kron_tiled, _cfg(cache_policy=policy, n_ssds=n_ssds)
        ).run(algo)
        ref = BFS(root=0)
        GStoreEngine(kron_tiled, _cfg()).run(ref)
        assert np.array_equal(algo.result(), ref.result())

    @pytest.mark.parametrize("memory_kb", [32, 64, 512])
    def test_pagerank_invariant_across_memory(self, kron_tiled, memory_kb):
        algo = PageRank(max_iterations=10, tolerance=0.0)
        GStoreEngine(
            kron_tiled,
            _cfg(memory_bytes=memory_kb * 1024, segment_bytes=8 * 1024),
        ).run(algo)
        ref = PageRank(max_iterations=10, tolerance=0.0)
        GStoreEngine(kron_tiled, _cfg()).run(ref)
        assert np.allclose(algo.result(), ref.result())


class TestAblationFormats:
    """The Figure 10 format variants must agree on results."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(snb=True, symmetric=True),
            dict(snb=False, symmetric=True),
            dict(snb=False, symmetric=False),
        ],
    )
    def test_variants_agree(self, kron, kwargs):
        tg = TiledGraph.from_edge_list(kron, tile_bits=7, group_q=4, **kwargs)
        algo = BFS(root=0)
        GStoreEngine(tg, _cfg()).run(algo)
        ref_tg = TiledGraph.from_edge_list(kron, tile_bits=7, group_q=4)
        ref = BFS(root=0)
        GStoreEngine(ref_tg, _cfg()).run(ref)
        assert np.array_equal(algo.result(), ref.result())

    def test_variant_sizes_ordered(self, kron):
        full = TiledGraph.from_edge_list(
            kron, tile_bits=7, group_q=4, snb=False, symmetric=False
        )
        sym = TiledGraph.from_edge_list(
            kron, tile_bits=7, group_q=4, snb=False, symmetric=True
        )
        snb = TiledGraph.from_edge_list(kron, tile_bits=7, group_q=4)
        assert full.storage_bytes() == 2 * sym.storage_bytes()
        assert sym.storage_bytes() > snb.storage_bytes()
