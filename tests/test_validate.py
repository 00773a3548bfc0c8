"""Structural validation of tile graphs (the tile-format fsck)."""

import numpy as np

from repro.format.tiles import TiledGraph
from repro.format.validate import check_tiled_graph


class TestCleanGraphs:
    def test_undirected_passes(self, tiled_undirected):
        rep = check_tiled_graph(tiled_undirected)
        assert rep.ok, rep.errors
        assert rep.tiles_checked > 0
        assert rep.edges_checked == tiled_undirected.n_edges

    def test_directed_passes(self, tiled_directed):
        rep = check_tiled_graph(tiled_directed)
        assert rep.ok, rep.errors

    def test_ablation_variants_pass(self, small_undirected):
        for kw in [dict(snb=False), dict(snb=False, symmetric=False)]:
            tg = TiledGraph.from_edge_list(
                small_undirected, tile_bits=7, group_q=2, **kw
            )
            rep = check_tiled_graph(tg)
            assert rep.ok, rep.errors

    def test_shallow_mode_skips_payload(self, tiled_undirected):
        rep = check_tiled_graph(tiled_undirected, deep=False)
        assert rep.ok
        assert rep.tiles_checked == 0

    def test_report_renders(self, tiled_undirected):
        rep = check_tiled_graph(tiled_undirected)
        assert "OK" in str(rep)


class TestCorruptionDetected:
    def _copy(self, tg):
        import copy

        clone = copy.copy(tg)
        clone.payload = tg.payload.copy()
        return clone

    def test_corrupt_edge_total(self, tiled_undirected):
        bad = self._copy(tiled_undirected)
        bad.info = type(bad.info)(**{**bad.info.__dict__, "n_edges": 1})
        rep = check_tiled_graph(bad, deep=False)
        assert not rep.ok

    def test_corrupt_degrees(self, tiled_undirected):
        bad = self._copy(tiled_undirected)
        bad.out_degrees = bad.out_degrees.copy()
        bad.out_degrees[0] += 5
        rep = check_tiled_graph(bad, deep=False)
        assert not rep.ok
        assert any("degrees" in e or "expected" in e for e in rep.errors)

    def test_corrupt_payload_length(self, tiled_undirected):
        bad = self._copy(tiled_undirected)
        bad.payload = bad.payload[:-2]
        rep = check_tiled_graph(bad, deep=False)
        assert not rep.ok

    def test_diagonal_lower_triangle_edge(self, tiled_undirected):
        # Swap one diagonal tile's tuple to point below the diagonal.
        bad = self._copy(tiled_undirected)
        for pos in range(bad.n_tiles):
            i = int(bad.tile_rows[pos])
            j = int(bad.tile_cols[pos])
            if i == j and bad.start_edge.edge_count(pos) > 0:
                tv = bad.tile_view(pos)
                gsrc, gdst = tv.global_edges()
                strict = gsrc < gdst
                if strict.any():
                    k = int(np.nonzero(strict)[0][0])
                    lo = int(bad.start_edge.start_edge[pos])
                    a = bad.payload[2 * (lo + k)]
                    bad.payload[2 * (lo + k)] = bad.payload[2 * (lo + k) + 1]
                    bad.payload[2 * (lo + k) + 1] = a
                    rep = check_tiled_graph(bad)
                    assert not rep.ok
                    return
        raise AssertionError("fixture had no usable diagonal tile")

    def test_local_beyond_tile_span_names_its_tile(self, tiled_undirected):
        # A stored local past the tile's 2**tile_bits span (room for it:
        # seven-bit locals are stored as uint8) is reported once, on the
        # tile that holds it, and by no other tile.
        bad = self._copy(tiled_undirected)
        assert bad.snb and bad.payload.dtype == np.uint8
        pos = int(np.flatnonzero(bad.tile_edge_counts() > 0)[-1])
        lo = int(bad.start_edge.start_edge[pos])
        bad.payload[2 * lo + 1] = 1 << bad.info.tile_bits
        rep = check_tiled_graph(bad)
        span = [e for e in rep.errors if "local ID beyond tile span" in e]
        i, j = int(bad.tile_rows[pos]), int(bad.tile_cols[pos])
        assert span == [f"tile ({i},{j}): local ID beyond tile span"]
