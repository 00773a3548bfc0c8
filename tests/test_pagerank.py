"""PageRank correctness against networkx, and its scatter kernel against
the NumPy form it replaced."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRank, scatter_sums
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine


def _run(tg, **kw):
    algo = PageRank(tolerance=kw.pop("tolerance", 1e-12), max_iterations=300)
    eng = GStoreEngine(
        tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    stats = eng.run(algo)
    return algo, stats


class TestUndirected:
    def test_matches_networkx(self, tiled_undirected, nx_undirected):
        algo, _ = _run(tiled_undirected)
        ref = nx.pagerank(nx_undirected, alpha=0.85, max_iter=500, tol=1e-14)
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_sums_to_one(self, tiled_undirected):
        algo, _ = _run(tiled_undirected)
        assert float(algo.result().sum()) == pytest.approx(1.0, abs=1e-9)


class TestDirected:
    def test_matches_networkx(self, tiled_directed, nx_directed):
        algo, _ = _run(tiled_directed)
        ref = nx.pagerank(nx_directed, alpha=0.85, max_iter=500, tol=1e-14)
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_dangling_mass_redistributed(self):
        from repro.format.edgelist import EdgeList
        from repro.format.tiles import TiledGraph

        # Vertex 2 is dangling (no out-edges).
        el = EdgeList.from_pairs([(0, 1), (1, 2)], n_vertices=3, directed=True)
        tg = TiledGraph.from_edge_list(el, tile_bits=1, group_q=1)
        algo, _ = _run(tg)
        assert float(algo.result().sum()) == pytest.approx(1.0, abs=1e-9)
        g = nx.DiGraph()
        g.add_nodes_from(range(3))
        g.add_edges_from([(0, 1), (1, 2)])
        ref = nx.pagerank(g, alpha=0.85, tol=1e-14, max_iter=500)
        for v in range(3):
            assert algo.result()[v] == pytest.approx(ref[v], abs=1e-8)


class TestConvergence:
    def test_converges_before_cap(self, tiled_undirected):
        algo, stats = _run(tiled_undirected)
        assert algo.iterations_run < 300
        assert algo.delta < 1e-12

    def test_fixed_iterations(self, tiled_undirected):
        algo = PageRank(max_iterations=5, tolerance=0.0)
        eng = GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        )
        stats = eng.run(algo)
        assert algo.iterations_run == 5
        assert stats.n_iterations == 5

    def test_all_rows_active(self, tiled_undirected):
        algo = PageRank()
        algo.setup(tiled_undirected)
        assert algo.rows_active().all()
        assert algo.rows_active_next().all()

    def test_metadata_bytes(self, tiled_undirected):
        algo = PageRank()
        algo.setup(tiled_undirected)
        assert algo.metadata_bytes() >= 3 * 8 * tiled_undirected.n_vertices


class TestPersonalized:
    def _run(self, tg, personalization):
        algo = PageRank(
            tolerance=1e-12, max_iterations=500, personalization=personalization
        )
        GStoreEngine(
            tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
        ).run(algo)
        return algo

    def test_matches_networkx(self, tiled_directed, nx_directed):
        seeds = {0: 1.0, 7: 3.0}
        algo = self._run(tiled_directed, seeds)
        ref = nx.pagerank(
            nx_directed,
            alpha=0.85,
            personalization=seeds,
            max_iter=1000,
            tol=1e-14,
        )
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_undirected(self, tiled_undirected, nx_undirected):
        seeds = {3: 1.0}
        algo = self._run(tiled_undirected, seeds)
        ref = nx.pagerank(
            nx_undirected,
            alpha=0.85,
            personalization=seeds,
            max_iter=1000,
            tol=1e-14,
        )
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_mass_concentrates_near_seeds(self, tiled_undirected):
        algo = self._run(tiled_undirected, {5: 1.0})
        plain = PageRank(tolerance=1e-12, max_iterations=500)
        GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        ).run(plain)
        assert algo.result()[5] > plain.result()[5]

    def test_validation(self, tiled_undirected):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            PageRank(personalization={10**9: 1.0}).setup(tiled_undirected)
        with pytest.raises(AlgorithmError):
            PageRank(personalization={0: -1.0}).setup(tiled_undirected)
        with pytest.raises(AlgorithmError):
            PageRank(personalization={0: 0.0}).setup(tiled_undirected)


# ---------------------------------------------------------------------- #
# scatter_sums: bit-identical to one weighted bincount per window
# ---------------------------------------------------------------------- #


def _bincount_sums(x, gsrc, gdst, symmetric):
    """The oracle: ``scatter_sums``'s windows as weighted bincounts over
    widened IDs and gathered values, the same windowing rules."""
    if gsrc.shape[0] == 0:
        return []
    src = gsrc.astype(np.int64)
    dst = gdst.astype(np.int64)
    vals = x[src]
    lo, hi = int(dst.min()), int(dst.max()) + 1
    if not symmetric:
        return [(lo, np.bincount(dst - lo, weights=vals))]
    vals2 = x[dst]
    lo2, hi2 = int(src.min()), int(src.max()) + 1
    if hi <= lo2 or hi2 <= lo:
        return [
            (lo, np.bincount(dst - lo, weights=vals)),
            (lo2, np.bincount(src - lo2, weights=vals2)),
        ]
    base = min(lo, lo2)
    span = max(hi, hi2) - base
    part = np.bincount(dst - base, weights=vals, minlength=span)
    part += np.bincount(src - base, weights=vals2, minlength=span)
    return [(base, part)]


@st.composite
def _shards(draw):
    """``(x, gsrc, gdst, symmetric)``: a shard over ``n`` vertices whose
    source and destination ranges overlap or are disjoint, with values
    spread over many magnitudes so any reassociation shows."""
    n = draw(st.integers(1, 48))
    m = draw(st.integers(0, 40))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    if n > 1 and draw(st.booleans()):  # disjoint windows
        k = draw(st.integers(1, n - 1))
        src = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
        dst = draw(st.lists(st.integers(k, n - 1), min_size=m, max_size=m))
        if draw(st.booleans()):
            src, dst = dst, src
    else:
        src, dst = draw(ids), draw(ids)
        if m and draw(st.booleans()):  # both ends of the vertex range
            src[0], dst[-1] = 0, n - 1
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    return (
        x,
        np.asarray(src, dtype=np.uint32),
        np.asarray(dst, dtype=np.uint32),
        draw(st.booleans()),
    )


def _shard(n, pairs, symmetric):
    x = np.linspace(0.1, 7.3, n) ** 3
    arr = np.asarray(pairs, dtype=np.uint32).reshape(-1, 2)
    return x, arr[:, 0].copy(), arr[:, 1].copy(), symmetric


class TestScatterSums:
    @settings(max_examples=300, deadline=None)
    @given(shard=_shards())
    @example(shard=_shard(5, [], True))  # empty shard
    @example(shard=_shard(5, [(2, 3)], False))  # one edge
    @example(shard=_shard(5, [(2, 3)], True))
    @example(shard=_shard(6, [(0, 5), (0, 5), (5, 0), (0, 5)], True))
    @example(shard=_shard(6, [(0, 5), (0, 5), (3, 5)], False))
    @example(shard=_shard(9, [(0, 1), (1, 0), (7, 8), (8, 8)], True))
    def test_matches_bincount_bit_for_bit(self, shard):
        x, gsrc, gdst, symmetric = shard
        got = scatter_sums(x, gsrc, gdst, symmetric)
        want = _bincount_sums(x, gsrc, gdst, symmetric)
        assert [lo for lo, _ in got] == [lo for lo, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == np.float64
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("side", ["gather", "scatter"])
    @pytest.mark.parametrize("bad", [10, 2**31, 2**32 - 1])
    def test_corrupt_id_raises_index_error(self, symmetric, side, bad):
        """An endpoint past ``len(x)`` — or one that reads negative as
        ``int32`` — fails typed before the compiled loop runs."""
        x = np.ones(10)
        gsrc = np.array([1, 2, 3], dtype=np.uint32)
        gdst = np.array([4, 5, 6], dtype=np.uint32)
        (gsrc if side == "gather" else gdst)[1] = bad
        with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
            scatter_sums(x, gsrc, gdst, symmetric)

    def test_ones_stay_read_only(self):
        from repro.algorithms import pagerank

        x = np.arange(4.0)
        scatter_sums(x, np.arange(4, dtype=np.uint32),
                     np.zeros(4, dtype=np.uint32), False)
        assert pagerank._ONES.shape[0] >= 4
        assert not pagerank._ONES.flags.writeable


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("fused", [True, False])
def test_corrupt_local_id_fails_typed(directed, fused):
    """A local ID patched past ``n_vertices`` in the last tile row (10
    vertices, 4-vertex tiles) reaches the kernel unverified and raises
    ``IndexError`` — never a read or write outside the kernel's arrays."""
    from repro.format.edgelist import EdgeList
    from repro.format.tiles import TiledGraph

    el = EdgeList.from_pairs(
        [(0, 1), (1, 5), (2, 8), (8, 9), (4, 9)],
        n_vertices=10, directed=directed,
    )
    tg = TiledGraph.from_edge_list(el, tile_bits=2, group_q=2)
    last = tg.p - 1
    pos = tg.position_of(last, last)
    lo = int(tg.start_edge.start_edge[pos])
    assert tg.tile_view(pos).global_edges()[0].tolist() == [8]
    tg.payload[2 * lo] = 3  # local source 3 of row 2: vertex 11
    eng = GStoreEngine(
        tg,
        EngineConfig(
            memory_bytes=64 * 1024, segment_bytes=8 * 1024,
            fused=fused, verify_checksums=False,
        ),
    )
    with pytest.raises(IndexError, match="index 11 is out of bounds"):
        eng.run(PageRank())
