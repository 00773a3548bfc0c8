"""SSSP correctness against networkx Dijkstra (extension algorithm)."""

import contextlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import native
from repro.algorithms.sssp import SSSP, edge_weights
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError
from repro.format.tiles import DecodedBatch
from tests.batch_cuts import PER_TILE, cut_batches


def _hash_weights(gsrc, gdst):
    """The endpoint hash ``edge_weights`` defines, in 64-bit arithmetic:
    the oracle for the 4-bit identity it computes instead."""
    a = np.minimum(gsrc, gdst).astype(np.uint64)
    b = np.maximum(gsrc, gdst).astype(np.uint64)
    h = (a * np.uint64(2654435761)) ^ (b * np.uint64(40503))
    return (1 + (h % np.uint64(16))).astype(np.float64)


_MAX_ID = 2**32 - 1
_IDS = st.one_of(
    st.sampled_from([0, 1, 7, _MAX_ID - 1, _MAX_ID]),
    st.integers(0, _MAX_ID),
)


@st.composite
def _pair(draw):
    s = draw(_IDS)
    return s, (s if draw(st.booleans()) else draw(_IDS))


_EDGE_CASES = [(0, 0), (0, _MAX_ID), (_MAX_ID, 0), (_MAX_ID, _MAX_ID), (9, 9)]


def _run(tg, root=0):
    algo = SSSP(root=root)
    eng = GStoreEngine(
        tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    stats = eng.run(algo)
    return algo, stats


class TestWeights:
    def test_deterministic(self):
        s = np.array([1, 2, 3], dtype=np.uint32)
        d = np.array([4, 5, 6], dtype=np.uint32)
        assert np.array_equal(edge_weights(s, d), edge_weights(s, d))

    def test_symmetric_in_endpoints(self):
        s = np.array([1], dtype=np.uint32)
        d = np.array([9], dtype=np.uint32)
        assert edge_weights(s, d)[0] == edge_weights(d, s)[0]

    def test_range(self):
        rng = np.random.default_rng(0)
        s = rng.integers(0, 1000, 500).astype(np.uint32)
        d = rng.integers(0, 1000, 500).astype(np.uint32)
        w = edge_weights(s, d)
        assert w.min() >= 1 and w.max() <= 16

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(_pair(), max_size=48),
        dtype=st.sampled_from([np.uint32, np.int64]),
    )
    @example(pairs=_EDGE_CASES, dtype=np.uint32)
    @example(pairs=_EDGE_CASES, dtype=np.int64)
    def test_matches_the_64_bit_hash(self, pairs, dtype):
        """The 4-bit form is the hash exactly, in either orientation and
        for the decoder's ``uint32`` IDs as for widened ones."""
        arr = np.array(pairs, dtype=dtype).reshape(-1, 2)
        s, d = arr[:, 0].copy(), arr[:, 1].copy()
        want = _hash_weights(s, d)
        for got in (edge_weights(s, d), edge_weights(d, s)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
        assert np.array_equal(np.stack([s, d], axis=1), arr)  # inputs kept

    def test_hash_weights_are_derived_in_the_kernel_only(
        self, tiled_undirected, monkeypatch
    ):
        # An unweighted graph stores no weights, and the partial carries
        # none: the relaxation hashes each widened edge as it reads it —
        # in the compiled loop, or once per shard in the NumPy body — and
        # both find the distances the hash defines.
        assert tiled_undirected.edge_weights is None
        batch = DecodedBatch.of_views([tiled_undirected.tile_view(0)])
        gsrc, gdst = batch.gsrc.astype(np.intp), batch.gdst.astype(np.intp)
        w = edge_weights(batch.gsrc, batch.gdst)
        dists = []
        for lib in (native.lib, None):
            monkeypatch.setattr(native, "lib", lib)
            algo = SSSP(root=0)
            algo.setup(tiled_undirected)
            algo.begin_iteration(0)
            tiles, stored = algo.shard_partial(batch, 0, batch.n_edges)
            assert tiles.n_edges == batch.n_edges and stored is None
            algo.apply_partial((tiles, stored))
            dists.append(algo.dist)
        want = np.full(tiled_undirected.n_vertices, np.inf)
        want[0] = 0.0
        for _ in range(2):  # the two passes, each committed
            cand = np.concatenate([want[gsrc] + w, want[gdst] + w])
            np.minimum.at(want, np.concatenate([gdst, gsrc]), cand)
        for got in dists:
            assert got.tobytes() == want.tobytes()


class TestCorrectness:
    def _nx_weighted(self, el):
        g = nx.Graph()
        g.add_nodes_from(range(el.n_vertices))
        canon = el.canonicalized()
        w = edge_weights(canon.src, canon.dst)
        for u, v, wt in zip(canon.src.tolist(), canon.dst.tolist(), w.tolist()):
            g.add_edge(u, v, weight=wt)
        return g

    def test_matches_dijkstra(self, small_undirected, tiled_undirected):
        algo, _ = _run(tiled_undirected, root=0)
        g = self._nx_weighted(small_undirected)
        ref = nx.single_source_dijkstra_path_length(g, 0)
        dist = algo.result()
        for v, expect in ref.items():
            assert dist[v] == pytest.approx(expect)

    def test_unreachable_inf(self, small_undirected, tiled_undirected):
        algo, _ = _run(tiled_undirected, root=0)
        g = self._nx_weighted(small_undirected)
        reach = set(nx.single_source_dijkstra_path_length(g, 0))
        dist = algo.result()
        for v in range(tiled_undirected.n_vertices):
            if v not in reach:
                assert np.isinf(dist[v])

    def test_sssp_upper_bounded_by_16x_bfs(self, tiled_undirected):
        # Weights are in [1, 16], so dist <= 16 * hops.
        from repro.algorithms.bfs import BFS

        bfs = BFS(root=0)
        GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        ).run(bfs)
        sp, _ = _run(tiled_undirected, root=0)
        hops = bfs.result()
        dist = sp.result()
        mask = hops != np.iinfo(np.uint32).max
        assert np.all(dist[mask] <= 16.0 * hops[mask] + 1e-9)
        assert np.all(dist[mask] >= hops[mask] - 1e-9)


class TestMechanics:
    def test_bad_root(self, tiled_undirected):
        with pytest.raises(AlgorithmError):
            SSSP(root=-1).setup(tiled_undirected)

    def test_root_distance_zero(self, tiled_undirected):
        algo, _ = _run(tiled_undirected, root=3)
        assert algo.result()[3] == 0.0

    def test_frontier_rows(self, tiled_undirected):
        algo = SSSP(root=0)
        algo.setup(tiled_undirected)
        assert algo.rows_active()[0]
        assert algo.rows_active().sum() == 1


class TestFusedByteGuard:
    """Coarser shards must not cost bytes: the live kernel over the
    engine's shards reads no more than the same kernel over one-tile
    shards (every batch cut at every tile boundary).

    A single in-order relaxation per shard commits less often at 8-shard
    granularity than per tile and reads 2-5 % *more* bytes; relaxing the
    resident edges a second time (``SSSP.apply_partial``) helps the coarse
    cut more than the fine one and turns that into a saving — with one
    pass at both granularities this guard fails.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fused_reads_no_more_than_per_tile(self, seed):
        from repro.format.tiles import TiledGraph
        from repro.graphgen.rmat import rmat

        el = rmat(11, edge_factor=8, seed=seed)
        tg = TiledGraph.from_edge_list(el, tile_bits=6, group_q=8)
        payload = tg.storage_bytes()
        deg = np.bincount(el.src, minlength=el.n_vertices)
        deg += np.bincount(el.dst, minlength=el.n_vertices)
        root = int(np.argmax(deg))
        runs = {}
        for fused in (True, False):
            algo = SSSP(root=root)
            cfg = EngineConfig(
                memory_bytes=payload // 4,
                segment_bytes=payload // 16,
            )
            cut = (contextlib.nullcontext() if fused
                   else cut_batches(SSSP, tg, PER_TILE))
            with cut, GStoreEngine(tg, cfg) as eng:
                stats = eng.run(algo)
            runs[fused] = (algo.result().copy(), stats)
        assert np.array_equal(runs[True][0], runs[False][0])
        assert runs[True][1].bytes_read <= runs[False][1].bytes_read
        assert len(runs[True][1].iterations) <= len(runs[False][1].iterations)
