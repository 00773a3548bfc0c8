"""Property-based tests: storage-format invariants under random graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.format.csr import CSRGraph
from repro.format.degree import CompressedDegreeArray
from repro.format.edgelist import EdgeList
from repro.format.grouping import PhysicalGrouping
from repro.format.partition2d import Partitioned2D
from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import TiledGraph


@st.composite
def edge_lists(draw, directed=None, max_v=300, max_e=400):
    n_v = draw(st.integers(min_value=2, max_value=max_v))
    n_e = draw(st.integers(min_value=0, max_value=max_e))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if directed is None:
        directed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_v, n_e).astype(np.uint32)
    dst = rng.integers(0, n_v, n_e).astype(np.uint32)
    return EdgeList(src, dst, n_v, directed=directed, name="prop")


def _keys(el: EdgeList) -> np.ndarray:
    return np.sort(el.src.astype(np.uint64) * np.uint64(el.n_vertices) + el.dst)


class TestTileRoundtrip:
    @given(el=edge_lists(directed=False), tile_bits=st.integers(3, 9),
           q=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_undirected_tiles_reproduce_canonical_edges(self, el, tile_bits, q):
        tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=q)
        back = tg.to_edge_list()
        assert np.array_equal(_keys(back), _keys(el.canonicalized()))

    @given(el=edge_lists(directed=True), tile_bits=st.integers(3, 9))
    @settings(max_examples=40, deadline=None)
    def test_directed_tiles_reproduce_all_tuples(self, el, tile_bits):
        tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=2)
        back = tg.to_edge_list()
        assert np.array_equal(_keys(back), _keys(el))

    @given(el=edge_lists(directed=False), tile_bits=st.integers(3, 9))
    @settings(max_examples=30, deadline=None)
    def test_start_edge_consistent_with_payload(self, el, tile_bits):
        tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=2)
        assert tg.start_edge.n_edges == tg.n_edges
        assert int(tg.tile_edge_counts().sum()) == tg.n_edges
        # Byte extents tile the payload exactly.
        total = sum(
            tg.start_edge.byte_extent(p)[1] for p in range(tg.n_tiles)
        )
        assert total == tg.payload.nbytes


class TestCSRProperties:
    @given(el=edge_lists(directed=True))
    @settings(max_examples=40, deadline=None)
    def test_csr_preserves_degree_sequence(self, el):
        csr = CSRGraph.from_edge_list(el)
        assert np.array_equal(csr.out_degrees(), el.out_degrees())

    @given(el=edge_lists(directed=True))
    @settings(max_examples=40, deadline=None)
    def test_csr_adjacency_multiset(self, el):
        csr = CSRGraph.from_edge_list(el)
        for v in range(min(el.n_vertices, 10)):
            mine = sorted(csr.neighbors(v).tolist())
            expect = sorted(el.dst[el.src == v].tolist())
            assert mine == expect


class TestPartition2DProperties:
    @given(el=edge_lists(directed=True), parts=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partition_preserves_edges(self, el, parts):
        grid = Partitioned2D.from_edge_list(el, parts)
        back_src = []
        back_dst = []
        for _, _, s, d in grid.iter_partitions():
            back_src.append(s)
            back_dst.append(d)
        if back_src:
            back = EdgeList(
                np.concatenate(back_src), np.concatenate(back_dst), el.n_vertices
            )
            assert np.array_equal(_keys(back), _keys(el))
        else:
            assert el.n_edges == 0


class TestDegreeProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 500),
        hub_count=st.integers(0, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_compress_roundtrip(self, seed, n, hub_count):
        rng = np.random.default_rng(seed)
        deg = rng.integers(0, 1000, n)
        hubs = rng.integers(0, n, min(hub_count, n))
        deg[hubs] = rng.integers(40_000, 10**9, hubs.shape[0])
        c = CompressedDegreeArray.from_degrees(deg)
        assert np.array_equal(c.to_array(), deg)
        assert c.storage_bytes() <= 2 * n + 8 * n  # never absurd


class TestGroupingProperties:
    @given(p=st.integers(1, 70), q=st.integers(1, 20), sym=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_disk_order_is_a_permutation(self, p, q, sym):
        g = PhysicalGrouping(p=p, q=q, symmetric=sym)
        rows, cols = g.tile_coords
        assert rows.shape == cols.shape == (g.n_tiles,)
        assert np.unique(rows * p + cols).shape[0] == g.n_tiles
        assert rows.min() >= 0 and cols.max() < p
        if sym:
            assert (cols >= rows).all()
        assert np.array_equal(
            g.position_grid()[rows, cols], np.arange(g.n_tiles)
        )

    @given(p=st.integers(1, 70), q=st.integers(1, 20), sym=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_group_slices_partition_positions(self, p, q, sym):
        g = PhysicalGrouping(p=p, q=q, symmetric=sym)
        rows, cols = g.tile_coords
        bounds = g.group_bounds()
        assert bounds[0] == 0 and bounds[-1] == g.n_tiles
        assert (np.diff(bounds) > 0).all()  # no group is empty
        # A position's group is the bounds interval it falls in, and all
        # its tiles share one cell of the group grid.
        gid = (rows // q) * g.g + cols // q
        group = np.searchsorted(bounds, np.arange(g.n_tiles), side="right") - 1
        assert np.array_equal(gid[bounds[:-1]][group], gid)
        assert np.unique(gid[bounds[:-1]]).shape[0] == bounds.shape[0] - 1


class TestStartEdgeProperties:
    @given(
        counts=st.lists(st.integers(0, 50), min_size=1, max_size=40),
        tuple_bytes=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_extents_tile_the_file(self, counts, tuple_bytes):
        idx = StartEdgeIndex.from_counts(counts, tuple_bytes=tuple_bytes)
        pos = 0
        for k in range(idx.n_tiles):
            off, size = idx.byte_extent(k)
            assert off == pos
            pos += size
        assert pos == idx.n_edges * tuple_bytes
