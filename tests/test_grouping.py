"""Unit tests for physical grouping geometry (§V-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.format.grouping import PhysicalGrouping


class TestGeometry:
    def test_group_count(self):
        g = PhysicalGrouping(p=8, q=4, symmetric=False)
        assert g.g == 2

    def test_ragged_group_count(self):
        g = PhysicalGrouping(p=10, q=4, symmetric=False)
        assert g.g == 3

    def test_tile_counts_full(self):
        g = PhysicalGrouping(p=4, q=2, symmetric=False)
        assert g.n_tiles == 16

    def test_tile_counts_upper(self):
        # Upper triangle of a 4x4 grid: 4+3+2+1 tiles.
        g = PhysicalGrouping(p=4, q=2, symmetric=True)
        assert g.n_tiles == 10

    def test_invalid(self):
        with pytest.raises(FormatError):
            PhysicalGrouping(p=0, q=1, symmetric=False)
        with pytest.raises(FormatError):
            PhysicalGrouping(p=4, q=0, symmetric=False)


def loop_groups(p, q, symmetric):
    """The oracle: physical groups by the nested loops the format is
    defined with (§V-A) — groups row-major over the group grid, tiles
    row-major inside a group, the lower triangle skipped when symmetric.
    Returns ``[((gi, gj), [(i, j), ...]), ...]`` in disk order."""
    g = -(-p // q)
    out = []
    for gi in range(g):
        for gj in range(g):
            if symmetric and gj < gi:
                continue
            tiles = []
            for i in range(gi * q, min((gi + 1) * q, p)):
                for j in range(gj * q, min((gj + 1) * q, p)):
                    if symmetric and j < i:
                        continue
                    tiles.append((i, j))
            out.append(((gi, gj), tiles))
    return out


def disk_order(g: PhysicalGrouping):
    rows, cols = g.tile_coords
    return list(zip(rows.tolist(), cols.tolist()))


class TestDiskOrder:
    def test_covers_all_tiles_once(self):
        g = PhysicalGrouping(p=6, q=2, symmetric=False)
        order = disk_order(g)
        assert len(order) == g.n_tiles
        assert len(set(order)) == g.n_tiles

    def test_symmetric_skips_lower_triangle(self):
        g = PhysicalGrouping(p=4, q=2, symmetric=True)
        assert all(j >= i for i, j in disk_order(g))

    def test_symmetric_groups_skip_lower(self):
        g = PhysicalGrouping(p=4, q=2, symmetric=True)
        rows, cols = g.tile_coords
        first = g.group_bounds()[:-1]
        groups = list(zip((rows[first] // 2).tolist(), (cols[first] // 2).tolist()))
        assert groups == [(0, 0), (0, 1), (1, 1)]

    def test_groups_are_contiguous_runs(self):
        # The defining property of physical grouping: each group occupies
        # one contiguous run of disk positions (one sequential read).
        g = PhysicalGrouping(p=8, q=2, symmetric=True)
        order = disk_order(g)
        bounds = g.group_bounds().tolist()
        groups = loop_groups(8, 2, True)
        assert len(bounds) == len(groups) + 1
        for (_, tiles), lo, hi in zip(groups, bounds, bounds[1:]):
            assert order[lo:hi] == tiles

    def test_q_one_equals_row_major(self):
        g1 = PhysicalGrouping(p=4, q=1, symmetric=False)
        gp = PhysicalGrouping(p=4, q=4, symmetric=False)
        assert disk_order(g1) == disk_order(gp)

    def test_coords_are_int64_and_shared_read_only(self):
        g = PhysicalGrouping(p=5, q=2, symmetric=True)
        rows, cols = g.tile_coords
        assert rows.dtype == cols.dtype == np.int64
        assert g.tile_coords[0] is rows  # derived once
        with pytest.raises(ValueError):
            rows[0] = 3

    @given(p=st.integers(1, 70), q=st.integers(1, 20), sym=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_arrays_equal_the_nested_loops(self, p, q, sym):
        g = PhysicalGrouping(p=p, q=q, symmetric=sym)
        groups = loop_groups(p, q, sym)
        order = [t for _, tiles in groups for t in tiles]
        assert disk_order(g) == order
        assert g.n_tiles == len(order)
        grid = np.full((p, p), -1, dtype=np.int64)
        for pos, (i, j) in enumerate(order):
            grid[i, j] = pos
        assert np.array_equal(g.position_grid(), grid)
        sizes = [len(tiles) for _, tiles in groups]
        assert g.group_bounds().tolist() == np.cumsum([0] + sizes).tolist()
        assert g.group_bounds().dtype == np.int64


class TestLookup:
    def test_group_of_tile(self):
        g = PhysicalGrouping(p=8, q=4, symmetric=False)
        assert g.group_of_tile(0, 0) == (0, 0)
        assert g.group_of_tile(3, 5) == (0, 1)
        assert g.group_of_tile(7, 7) == (1, 1)

    def test_group_of_tile_out_of_range(self):
        g = PhysicalGrouping(p=4, q=2, symmetric=False)
        with pytest.raises(FormatError):
            g.group_of_tile(4, 0)

    def test_position_grid(self):
        g = PhysicalGrouping(p=4, q=2, symmetric=True)
        grid = g.position_grid()
        assert grid.shape == (4, 4)
        assert grid[1, 0] == -1  # lower triangle unstored
        stored = grid[grid >= 0]
        assert sorted(stored.tolist()) == list(range(g.n_tiles))


class TestMetadataSizing:
    def test_metadata_bytes_per_group(self):
        g = PhysicalGrouping(p=16, q=4, symmetric=False)
        # 2 sides x (4 tiles x 256 vertices) x 4 bytes.
        assert g.metadata_bytes_per_group(tile_bits=8, meta_bytes=4) == 8192

    def test_paper_twitter_metadata(self):
        # §V-A: one Twitter tile's BFS metadata is 64KB (2 x 65536 x ...);
        # per-tile share: span 2**16 vertices at 1 byte -> 64KB one side.
        g = PhysicalGrouping(p=803, q=1, symmetric=False)
        assert g.metadata_bytes_per_group(tile_bits=16, meta_bytes=1) == 2 * 65536
