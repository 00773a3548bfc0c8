"""Unit tests for selective tile fetching and request merging (§V-B)."""

import numpy as np

from repro.engine.selective import merge_requests, select_positions
from repro.format.startedge import StartEdgeIndex


class TestSelectPositions:
    def test_all_rows_active_selects_nonempty(self, tiled_undirected):
        tg = tiled_undirected
        rows = np.ones(tg.p, dtype=bool)
        pos = select_positions(tg, rows)
        counts = tg.tile_edge_counts()
        assert pos.tolist() == [
            p for p in range(tg.n_tiles) if counts[p] > 0
        ]

    def test_returns_int64_ndarray(self, tiled_undirected):
        # The fetch set stays an int64 array end to end — callers
        # fancy-index with it directly, no list round-trips.
        pos = select_positions(
            tiled_undirected, np.ones(tiled_undirected.p, dtype=bool)
        )
        assert isinstance(pos, np.ndarray)
        assert pos.dtype == np.int64

    def test_no_rows_active_selects_nothing(self, tiled_undirected):
        rows = np.zeros(tiled_undirected.p, dtype=bool)
        pos = select_positions(tiled_undirected, rows)
        assert isinstance(pos, np.ndarray)
        assert pos.size == 0

    def test_single_row_selection_undirected(self, tiled_undirected):
        tg = tiled_undirected
        rows = np.zeros(tg.p, dtype=bool)
        rows[0] = True
        pos = select_positions(tg, rows)
        for p in pos:
            assert tg.tile_rows[p] == 0 or tg.tile_cols[p] == 0

    def test_positions_in_disk_order(self, tiled_undirected):
        rows = np.ones(tiled_undirected.p, dtype=bool)
        pos = select_positions(tiled_undirected, rows)
        assert pos.tolist() == sorted(pos.tolist())

    def test_matches_dense_positions_when_all_active(self, tiled_undirected):
        from repro.engine.selective import dense_positions

        tg = tiled_undirected
        pos = select_positions(tg, np.ones(tg.p, dtype=bool))
        np.testing.assert_array_equal(pos, dense_positions(tg))


class TestMergeRequests:
    def _idx(self, counts):
        return StartEdgeIndex.from_counts(counts, tuple_bytes=4)

    def test_adjacent_tiles_merge(self):
        idx = self._idx([5, 5, 5])
        reqs = merge_requests([0, 1, 2], idx)
        assert len(reqs) == 1
        assert reqs[0].offset == 0
        assert reqs[0].size == 60
        assert reqs[0].tag == [0, 1, 2]

    def test_gap_breaks_run(self):
        idx = self._idx([5, 5, 5])
        reqs = merge_requests([0, 2], idx)
        assert len(reqs) == 2
        assert reqs[0].tag == [0]
        assert reqs[1].tag == [2]

    def test_empty_tile_gap_is_still_adjacent(self):
        # An unneeded *empty* tile between two needed ones occupies zero
        # bytes, so the byte extents remain adjacent and merge.
        idx = self._idx([5, 0, 5])
        reqs = merge_requests([0, 2], idx)
        assert len(reqs) == 1
        assert reqs[0].tag == [0, 2]

    def test_empty_input(self):
        idx = self._idx([1])
        assert merge_requests([], idx) == []
        assert merge_requests(np.empty(0, dtype=np.int64), idx) == []

    def test_accepts_ndarray_positions(self):
        # select_positions hands over an int64 array; tags come back as
        # plain python ints either way.
        idx = self._idx([5, 5, 5])
        reqs = merge_requests(np.array([0, 1, 2], dtype=np.int64), idx)
        assert len(reqs) == 1
        assert reqs[0].tag == [0, 1, 2]
        assert all(type(t) is int for t in reqs[0].tag)
