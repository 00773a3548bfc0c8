"""Property-based tests: algorithm results vs networkx and scipy on random
graphs."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.types import INF_DEPTH


@st.composite
def graphs(draw, directed):
    n_v = draw(st.integers(min_value=2, max_value=150))
    n_e = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_v, n_e).astype(np.uint32)
    dst = rng.integers(0, n_v, n_e).astype(np.uint32)
    el = EdgeList(src, dst, n_v, directed=directed, name="prop")
    if directed:
        el = el.deduped().without_self_loops()
    return el


def _tile(el):
    return TiledGraph.from_edge_list(el, tile_bits=4, group_q=2)


def _engine(tg):
    return GStoreEngine(
        tg, EngineConfig(memory_bytes=32 * 1024, segment_bytes=4 * 1024)
    )


def _nx(el):
    g = nx.DiGraph() if el.directed else nx.Graph()
    g.add_nodes_from(range(el.n_vertices))
    source = el if el.directed else el.canonicalized()
    g.add_edges_from(zip(source.src.tolist(), source.dst.tolist()))
    return g


class TestBFSProperty:
    @given(el=graphs(directed=False), root_seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_undirected_depths(self, el, root_seed):
        root = root_seed % el.n_vertices
        algo = BFS(root=root)
        _engine(_tile(el)).run(algo)
        ref = nx.single_source_shortest_path_length(_nx(el), root)
        d = algo.result()
        for v in range(el.n_vertices):
            if v in ref:
                assert d[v] == ref[v]
            else:
                assert d[v] == INF_DEPTH

    @given(el=graphs(directed=True), root_seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_directed_depths(self, el, root_seed):
        root = root_seed % el.n_vertices
        algo = BFS(root=root)
        _engine(_tile(el)).run(algo)
        ref = nx.single_source_shortest_path_length(_nx(el), root)
        d = algo.result()
        for v in range(el.n_vertices):
            if v in ref:
                assert d[v] == ref[v]
            else:
                assert d[v] == INF_DEPTH


class TestCCProperty:
    @given(el=graphs(directed=False))
    @settings(max_examples=25, deadline=None)
    def test_component_structure(self, el):
        algo = ConnectedComponents()
        _engine(_tile(el)).run(algo)
        comp = algo.result()
        g = _nx(el)
        assert algo.n_components() == nx.number_connected_components(g)
        for members in nx.connected_components(g):
            assert len({int(comp[v]) for v in members}) == 1

    @given(el=graphs(directed=True))
    @settings(max_examples=20, deadline=None)
    def test_weak_components_on_directed(self, el):
        algo = ConnectedComponents()
        _engine(_tile(el)).run(algo)
        g = _nx(el)
        assert algo.n_components() == nx.number_weakly_connected_components(g)


class TestPageRankProperty:
    @given(el=graphs(directed=True))
    @settings(max_examples=15, deadline=None)
    def test_matches_networkx(self, el):
        algo = PageRank(tolerance=1e-12, max_iterations=500)
        _engine(_tile(el)).run(algo)
        ref = nx.pagerank(_nx(el), alpha=0.85, max_iter=1000, tol=1e-14)
        mine = algo.result()
        for v in range(el.n_vertices):
            assert abs(mine[v] - ref[v]) < 1e-7

    @given(el=graphs(directed=False))
    @settings(max_examples=15, deadline=None)
    def test_probability_distribution(self, el):
        algo = PageRank(tolerance=1e-10, max_iterations=500)
        _engine(_tile(el)).run(algo)
        r = algo.result()
        assert float(r.sum()) == np.float64(1.0).item() or abs(r.sum() - 1) < 1e-8
        assert float(r.min()) > 0


# --------------------------------------------------------------------- #
# Independent-oracle differential for the shard-granular fused kernels
# --------------------------------------------------------------------- #

_TILE_BITS = 4
_SPAN = 1 << _TILE_BITS


@st.composite
def adversarial_graphs(draw, directed, weighted=False):
    """Random graphs carrying the format's edge cases on purpose: self
    loops and duplicate edges (stored as given when directed, folded away
    at ingest when undirected), an edge on the max-ID vertex, a hub on a
    tile boundary whose edges land in several tiles and shards, whole
    tile rows without an edge, and — ``weighted`` — float32 stored
    weights (duplicates then carry different weights)."""
    n_v = draw(st.integers(min_value=3, max_value=150))
    n_e = draw(st.integers(min_value=1, max_value=250))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Confining the random edges to a vertex prefix leaves tile rows empty.
    span = draw(st.integers(min_value=2, max_value=n_v))
    src = rng.integers(0, span, n_e)
    dst = rng.integers(0, span, n_e)
    dup = rng.integers(0, n_e, draw(st.integers(0, 8)))
    loops = rng.integers(0, n_v, draw(st.integers(0, 4)))
    hub = _SPAN * draw(st.integers(0, 2)) + draw(st.sampled_from([0, _SPAN - 1]))
    hub = min(hub, n_v - 1)
    spokes = rng.integers(0, n_v, draw(st.integers(0, 40)))
    last = np.array([n_v - 1])
    src = np.concatenate([src, src[dup], loops, np.full(spokes.size, hub), last])
    dst = np.concatenate([dst, dst[dup], loops, spokes, rng.integers(0, n_v, 1)])
    el = EdgeList(
        src.astype(np.uint32), dst.astype(np.uint32), n_v,
        directed=directed, name="adversarial",
    )
    if weighted:
        if not directed:
            # Undirected ingest keeps one of a duplicate's weights; fold
            # first so the oracle and the store see the same one.
            el = el.canonicalized()
        w = rng.uniform(0.5, 10.0, el.n_edges).astype(np.float32)
        el = EdgeList(el.src, el.dst, n_v, directed=directed,
                      name="adversarial", weights=w)
    return el


def _oracle_matrix(el, weight_fn=None):
    """CSR adjacency for scipy with the *minimum* weight per vertex pair
    (``coo -> csr`` would sum duplicates)."""
    import scipy.sparse as sp

    src = el.src.astype(np.int64)
    dst = el.dst.astype(np.int64)
    if el.weights is not None:
        w = el.weights.astype(np.float64)
    elif weight_fn is not None:
        w = weight_fn(el.src, el.dst)
    else:
        w = np.ones(src.size)
    if not el.directed:
        src, dst, w = (np.concatenate([src, dst]), np.concatenate([dst, src]),
                       np.concatenate([w, w]))
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    n = el.n_vertices
    return sp.csr_matrix((w[first], (src[first], dst[first])), shape=(n, n))


def _tiny_engine(tg, fused):
    # A few hundred bytes of payload: budgets this small still give
    # several slide batches, cache pressure, and rewinds.
    return GStoreEngine(
        tg,
        EngineConfig(memory_bytes=384, segment_bytes=96, fused=fused),
    )


def _run_both(tg, factory):
    out = []
    for fused in (True, False):
        algo = factory()
        stats = _tiny_engine(tg, fused).run(algo)
        assert stats.extra["execution"]["fused"] == fused
        out.append(algo.result().copy())
    assert np.array_equal(out[0], out[1])
    return out[0]


class TestSSSPOracle:
    def _check(self, el, root_seed):
        from scipy.sparse.csgraph import dijkstra

        from repro.algorithms.sssp import SSSP, edge_weights

        root = root_seed % el.n_vertices
        tg = TiledGraph.from_edge_list(el, tile_bits=_TILE_BITS, group_q=2)
        dist = _run_both(tg, lambda: SSSP(root=root))
        ref = dijkstra(_oracle_matrix(el, edge_weights), directed=True,
                       indices=root)
        assert np.array_equal(np.isinf(dist), np.isinf(ref))
        assert np.allclose(dist, ref, rtol=1e-12, atol=0.0)

    @given(el=adversarial_graphs(directed=False), root_seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_undirected_hash_weights(self, el, root_seed):
        self._check(el, root_seed)

    @given(el=adversarial_graphs(directed=True), root_seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_directed_hash_weights(self, el, root_seed):
        self._check(el, root_seed)

    @given(el=adversarial_graphs(directed=False, weighted=True),
           root_seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_undirected_stored_weights(self, el, root_seed):
        self._check(el, root_seed)

    @given(el=adversarial_graphs(directed=True, weighted=True),
           root_seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_directed_stored_weights(self, el, root_seed):
        self._check(el, root_seed)


class TestReachabilityOracle:
    @given(el=adversarial_graphs(directed=True),
           seed=st.integers(0, 10**6), forward=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_directed(self, el, seed, forward):
        self._check(el, seed, forward)

    @given(el=adversarial_graphs(directed=False),
           seed=st.integers(0, 10**6), forward=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_undirected(self, el, seed, forward):
        self._check(el, seed, forward)

    def _check(self, el, seed, forward):
        from scipy.sparse.csgraph import breadth_first_order

        from repro.algorithms.reachability import Reachability

        source = seed % el.n_vertices
        tg = TiledGraph.from_edge_list(el, tile_bits=_TILE_BITS, group_q=2)
        reached = _run_both(
            tg, lambda: Reachability(seeds=[source], forward=forward)
        )
        adj = _oracle_matrix(el)
        order = breadth_first_order(
            adj if forward else adj.T.tocsr(), source, directed=True,
            return_predecessors=False,
        )
        ref = np.zeros(el.n_vertices, dtype=bool)
        ref[order] = True
        assert np.array_equal(reached, ref)
