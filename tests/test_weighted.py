"""Weighted-graph support: edge-list plumbing, tile alignment, SSSP."""

import contextlib

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import FormatError
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from tests.batch_cuts import PER_TILE, cut_batches


@pytest.fixture(scope="module")
def weighted_el():
    """A connected undirected weighted graph without duplicate edges."""
    rng = np.random.default_rng(23)
    v = 400
    ring_src = np.arange(v, dtype=np.uint32)
    ring_dst = np.roll(ring_src, -1)
    extra = rng.integers(0, v, 1200).reshape(600, 2)
    el = EdgeList(
        np.concatenate([ring_src, extra[:, 0].astype(np.uint32)]),
        np.concatenate([ring_dst, extra[:, 1].astype(np.uint32)]),
        v,
        directed=False,
        name="weighted",
    )
    canon = el.canonicalized()  # unique edges, no self loops
    w = rng.uniform(0.5, 10.0, canon.n_edges).astype(np.float32)
    return EdgeList(
        canon.src, canon.dst, v, directed=False, name="weighted", weights=w
    )


class TestEdgeListWeights:
    def test_validation(self):
        with pytest.raises(FormatError):
            EdgeList(
                np.array([0], np.uint32),
                np.array([1], np.uint32),
                2,
                weights=np.array([1.0, 2.0]),
            )

    def test_canonicalize_carries_weights(self):
        el = EdgeList(
            np.array([3, 0], np.uint32),
            np.array([1, 2], np.uint32),
            4,
            directed=False,
            weights=np.array([7.0, 9.0], np.float32),
        )
        canon = el.canonicalized()
        lookup = {
            (int(u), int(v)): float(w)
            for u, v, w in zip(canon.src, canon.dst, canon.weights)
        }
        assert lookup == {(1, 3): 7.0, (0, 2): 9.0}

    def test_symmetrize_duplicates_weights(self, weighted_el):
        sym = weighted_el.symmetrized()
        assert sym.weights.shape[0] == 2 * weighted_el.n_edges
        assert np.allclose(sym.weights[: weighted_el.n_edges],
                           sym.weights[weighted_el.n_edges :])

    def test_self_loop_filter_keeps_alignment(self):
        el = EdgeList(
            np.array([0, 1], np.uint32),
            np.array([0, 2], np.uint32),
            3,
            directed=True,
            weights=np.array([5.0, 6.0], np.float32),
        )
        clean = el.without_self_loops()
        assert clean.weights.tolist() == [6.0]

    def test_save_load_roundtrip(self, tmp_path, weighted_el):
        p = tmp_path / "w.bin"
        weighted_el.save(p)
        back = EdgeList.load(p)
        assert np.allclose(back.weights, weighted_el.weights)
        assert np.array_equal(back.src, weighted_el.src)

    def test_unweighted_load_has_none(self, tmp_path):
        el = EdgeList.from_pairs([(0, 1)], n_vertices=2)
        p = tmp_path / "u.bin"
        el.save(p)
        assert EdgeList.load(p).weights is None


class TestTiledWeights:
    def test_tile_weights_aligned(self, weighted_el):
        tg = TiledGraph.from_edge_list(weighted_el, tile_bits=6, group_q=2)
        # Rebuild the (edge -> weight) map and check every tile slice.
        expect = {
            (int(u), int(v)): float(w)
            for u, v, w in zip(
                weighted_el.src, weighted_el.dst, weighted_el.weights
            )
        }
        seen = 0
        for _, batch in tg.scan(slab_bytes=512):
            # As the kernels slice it: the batch's extent of the
            # disk-edge-ordered weight array.
            w = batch.side(tg.edge_weights, 0, batch.n_edges)
            for u, v, wt in zip(batch.gsrc.tolist(), batch.gdst.tolist(),
                                w.tolist()):
                assert expect[(u, v)] == pytest.approx(wt)
                seen += 1
        assert seen == tg.n_edges

    def test_unweighted_returns_none(self, tiled_undirected):
        assert tiled_undirected.edge_weights is None

    def test_save_load_weights(self, tmp_path, weighted_el):
        tg = TiledGraph.from_edge_list(weighted_el, tile_bits=6, group_q=2)
        d = tmp_path / "wg"
        tg.save(d)
        back = TiledGraph.load(d)
        assert np.allclose(back.edge_weights, tg.edge_weights)

    def test_semi_external_keeps_weights_resident(self, tmp_path, weighted_el):
        tg = TiledGraph.from_edge_list(weighted_el, tile_bits=6, group_q=2)
        d = tmp_path / "wg"
        tg.save(d)
        ext = TiledGraph.load(d, resident=False)
        assert ext.payload is None
        assert ext.edge_weights is not None


class TestWeightedSSSP:
    def test_matches_dijkstra_on_real_weights(self, weighted_el):
        # The engine's shards: views span runs of tiles, or pieces of
        # one, so weights come from the view's disk-edge extent.
        self._check_dijkstra(weighted_el, per_tile=False)

    def test_matches_dijkstra_on_real_weights_per_tile(self, weighted_el):
        # Every batch cut into one-tile shards: each shard's weights are
        # its own tiles' extents.
        self._check_dijkstra(weighted_el, per_tile=True)

    def _check_dijkstra(self, weighted_el, per_tile):
        tg = TiledGraph.from_edge_list(weighted_el, tile_bits=6, group_q=2)
        algo = SSSP(root=0)
        cut = (cut_batches(SSSP, tg, PER_TILE) if per_tile
               else contextlib.nullcontext())
        with cut:
            GStoreEngine(
                tg,
                EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
            ).run(algo)
        g = nx.Graph()
        g.add_nodes_from(range(weighted_el.n_vertices))
        for u, v, w in zip(
            weighted_el.src.tolist(),
            weighted_el.dst.tolist(),
            weighted_el.weights.tolist(),
        ):
            g.add_edge(u, v, weight=w)
        ref = nx.single_source_dijkstra_path_length(g, 0)
        dist = algo.result()
        for v, expect in ref.items():
            assert dist[v] == pytest.approx(expect, rel=1e-6)

    def test_unweighted_still_uses_hash_weights(self, tiled_undirected):
        # Regression: graphs without weights keep the old deterministic
        # behaviour.
        a = SSSP(root=0)
        GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        ).run(a)
        b = SSSP(root=0)
        GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        ).run(b)
        assert np.array_equal(a.result(), b.result())
