"""Unit tests for the tile format (symmetry + SNB + grouping)."""

import numpy as np
import pytest

from repro.engine.selective import batch_extents
from repro.errors import FormatError
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph


def _edge_key(el: EdgeList) -> np.ndarray:
    return np.sort(
        el.src.astype(np.uint64) * np.uint64(el.n_vertices) + el.dst
    )


@pytest.fixture()
def paper_graph():
    """Figure 1(a)'s undirected example graph (8 vertices)."""
    pairs = [(0, 1), (0, 3), (1, 2), (0, 4), (1, 4), (2, 4), (4, 5), (5, 6), (5, 7)]
    return EdgeList.from_pairs(pairs, n_vertices=8, directed=False)


class TestPaperExample:
    def test_upper_triangle_tiles(self, paper_graph):
        # Figure 4(a): three tiles, each with three edges; tile[1,0] gone.
        tg = TiledGraph.from_edge_list(paper_graph, tile_bits=2, group_q=1)
        counts = {
            (int(tg.tile_rows[p]), int(tg.tile_cols[p])): tg.start_edge.edge_count(p)
            for p in range(tg.n_tiles)
        }
        assert counts == {(0, 0): 3, (0, 1): 3, (1, 1): 3}

    def test_snb_locals(self, paper_graph):
        # Figure 4(b): tile[1,1] stores (0,1),(1,2),(1,3) for (4,5),(5,6),(5,7).
        tg = TiledGraph.from_edge_list(paper_graph, tile_bits=2, group_q=1)
        pos = tg.position_of(1, 1)
        tv = tg.tile_view(pos)
        locals_ = sorted(zip(tv.lsrc.tolist(), tv.ldst.tolist()))
        assert locals_ == [(0, 1), (1, 2), (1, 3)]

    def test_globals_reconstructed(self, paper_graph):
        tg = TiledGraph.from_edge_list(paper_graph, tile_bits=2, group_q=1)
        pos = tg.position_of(1, 1)
        gsrc, gdst = tg.tile_view(pos).global_edges()
        assert sorted(zip(gsrc.tolist(), gdst.tolist())) == [
            (4, 5), (5, 6), (5, 7),
        ]

    def test_edge_4_5_through_the_codec(self, paper_graph):
        # §IV-B: tile[1,1] has offset (4,4); edge (4,5) is stored as (0,1)
        # and both decoders concatenate the tile ID back onto it.
        tg = TiledGraph.from_edge_list(paper_graph, tile_bits=2, group_q=1)
        pos = tg.position_of(1, 1)
        assert (int(tg.tile_rows[pos]), int(tg.tile_cols[pos])) == (1, 1)
        off, size = tg.start_edge.byte_extent(pos)
        stored = tg.payload.tobytes()[off : off + size]
        pairs = np.frombuffer(stored, dtype=tg.payload_dtype()).reshape(-1, 2)
        gsrc, gdst = tg.tile_view(pos).global_edges()
        k = list(zip(gsrc.tolist(), gdst.tolist())).index((4, 5))
        assert tuple(pairs[k].tolist()) == (0, 1)
        _, layout = batch_extents(np.array([pos]), tg)
        batch = tg.decode_extents(stored, layout)
        assert (int(batch.gsrc[k]), int(batch.gdst[k])) == (4, 5)


class TestRoundtrip:
    def test_undirected_roundtrip(self, small_undirected):
        tg = TiledGraph.from_edge_list(small_undirected, tile_bits=7, group_q=2)
        back = tg.to_edge_list()
        assert np.array_equal(
            _edge_key(back), _edge_key(small_undirected.canonicalized())
        )

    def test_directed_roundtrip(self, small_directed):
        tg = TiledGraph.from_edge_list(small_directed, tile_bits=7, group_q=2)
        back = tg.to_edge_list()
        assert np.array_equal(_edge_key(back), _edge_key(small_directed))

    def test_no_snb_roundtrip(self, small_undirected):
        tg = TiledGraph.from_edge_list(
            small_undirected, tile_bits=7, group_q=2, snb=False
        )
        back = tg.to_edge_list()
        assert np.array_equal(
            _edge_key(back), _edge_key(small_undirected.canonicalized())
        )

    def test_view_from_bytes_equals_tile_view(self, tiled_undirected):
        tg = tiled_undirected
        for pos in range(tg.n_tiles):
            if tg.start_edge.edge_count(pos) == 0:
                continue
            off, size = tg.start_edge.byte_extent(pos)
            raw = tg.payload.tobytes()[off : off + size]
            a = tg.tile_view(pos)
            b = tg.view_from_bytes(pos, raw)
            assert np.array_equal(a.lsrc, b.lsrc)
            assert np.array_equal(a.ldst, b.ldst)
            break


class TestSymmetryAndSizes:
    def test_symmetric_stores_half(self, small_undirected):
        sym = TiledGraph.from_edge_list(small_undirected, tile_bits=7, group_q=2)
        full = TiledGraph.from_edge_list(
            small_undirected, tile_bits=7, group_q=2, symmetric=False
        )
        assert full.n_edges == 2 * sym.n_edges

    def test_snb_shrinks_tuple_bytes(self, small_undirected):
        snb = TiledGraph.from_edge_list(small_undirected, tile_bits=7, group_q=2)
        raw = TiledGraph.from_edge_list(
            small_undirected, tile_bits=7, group_q=2, snb=False
        )
        assert raw.tuple_bytes == 8  # two full uint32 global IDs
        assert snb.tuple_bytes == 2  # 7-bit locals fit in uint8 each

    def test_storage_bytes(self, tiled_undirected):
        tg = tiled_undirected
        assert tg.storage_bytes() == tg.n_edges * tg.tuple_bytes
        assert tg.total_disk_bytes() > tg.storage_bytes()

    def test_symmetric_directed_rejected(self, small_directed):
        with pytest.raises(FormatError):
            TiledGraph.from_edge_list(
                small_directed, tile_bits=7, group_q=2, symmetric=True
            )


class TestGeometry:
    def test_row_range(self, tiled_undirected):
        tg = tiled_undirected
        span = 1 << tg.tile_bits
        lo, hi = tg.row_range(0)
        assert (lo, hi) == (0, span)
        lo, hi = tg.row_range(tg.p - 1)
        assert hi == tg.n_vertices

    def test_position_of_unstored_is_negative(self, tiled_undirected):
        tg = tiled_undirected
        if tg.p > 1:
            assert tg.position_of(tg.p - 1, 0) == -1

    def test_tile_edge_counts_sum(self, tiled_undirected):
        tg = tiled_undirected
        assert int(tg.tile_edge_counts().sum()) == tg.n_edges

    def test_group_edge_counts_sum(self, tiled_undirected):
        tg = tiled_undirected
        counts = tg.group_edge_counts()
        bounds = tg.grouping.group_bounds()
        assert counts.shape == (bounds.shape[0] - 1,)
        assert int(counts.sum()) == tg.n_edges
        per_tile = tg.tile_edge_counts()
        assert counts.tolist() == [
            int(per_tile[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])
        ]

    def test_degrees_match_edge_list(self, small_undirected, tiled_undirected):
        canon = small_undirected.canonicalized()
        assert np.array_equal(tiled_undirected.out_degrees, canon.degrees())


class TestPersistence:
    def test_save_load_resident(self, tmp_path, tiled_undirected):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        back = TiledGraph.load(d)
        assert back.n_edges == tiled_undirected.n_edges
        assert np.array_equal(back.payload, tiled_undirected.payload)
        assert back.info.symmetric == tiled_undirected.info.symmetric

    def test_load_external_mode(self, tmp_path, tiled_undirected):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        ext = TiledGraph.load(d, resident=False)
        assert ext.payload is None
        assert ext.payload_path is not None
        with pytest.raises(FormatError):
            ext.tile_view(0)

    def test_scan_reads_external_payload(self, tmp_path, tiled_undirected):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        ext = TiledGraph.load(d, resident=False)
        for slab_bytes in (4 << 20, 512):
            want = list(tiled_undirected.scan(slab_bytes))
            got = list(ext.scan(slab_bytes))
            assert len(got) == len(want)
            for (pos_a, batch_a), (pos_b, batch_b) in zip(got, want):
                assert np.array_equal(pos_a, pos_b)
                for field in ("gsrc", "gdst", "run_bounds", "run_edge_lo",
                              "cuts"):
                    assert np.array_equal(getattr(batch_a, field),
                                          getattr(batch_b, field))
        assert ext.payload is None
