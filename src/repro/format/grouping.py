"""On-disk physical grouping of tiles (paper §V-A, Figures 6 and 7).

A graph with ``p**2`` tiles is grouped into ``g = ceil(p / q)`` physical
groups per side, each covering ``q x q`` tiles.  Tiles of one group are laid
out contiguously on disk so the whole group is one sequential read, and the
group's algorithmic metadata (the two ``q * 2**tile_bits`` vertex ranges it
touches) fits in the last-level cache.

Disk order: groups in row-major order; inside a group, tiles in row-major
order.  For a symmetric (upper-triangle) graph only tiles with ``j >= i``
exist, and only groups intersecting the upper triangle are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import FormatError
from repro.util.bitops import ceil_div


@dataclass(frozen=True)
class PhysicalGrouping:
    """Geometry of the tile grid and its physical groups.

    Parameters
    ----------
    p:
        Tiles per side of the full grid.
    q:
        Tiles per side of one physical group (paper: 256 for Twitter).
    symmetric:
        When True only upper-triangle tiles (``j >= i``) exist.
    """

    p: int
    q: int
    symmetric: bool

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise FormatError(f"p must be positive, got {self.p}")
        if self.q <= 0:
            raise FormatError(f"q must be positive, got {self.q}")

    @property
    def g(self) -> int:
        """Groups per side (paper: ``g = p / q``)."""
        return ceil_div(self.p, self.q)

    @property
    def n_tiles(self) -> int:
        """Number of stored tiles."""
        if self.symmetric:
            return self.p * (self.p + 1) // 2
        return self.p * self.p

    # ------------------------------------------------------------------ #
    # Disk order, as arrays
    # ------------------------------------------------------------------ #

    @cached_property
    def tile_coords(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(rows, cols)`` of every stored tile in disk order (read-only
        ``int64``, derived once); a tile's disk position is its index.

        Indexed ``(group row, group column, row in group, column in
        group)`` the grid's row-major flattening *is* the disk order; tiles
        past a ragged edge or below a symmetric diagonal drop out under
        one mask.
        """
        q = min(self.q, self.p)  # one group covers the grid either way
        side = np.arange(self.g * q, dtype=np.int64).reshape(self.g, q)
        i, j = np.broadcast_arrays(
            side[:, None, :, None], side[None, :, None, :]
        )
        inside = side < self.p
        keep = inside[:, None, :, None] & inside[None, :, None, :]
        if self.symmetric:
            keep &= j >= i
        rows, cols = i[keep], j[keep]
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    def position_grid(self) -> np.ndarray:
        """``(p, p)`` int64 array mapping tile coords to disk position.

        Unstored tiles (lower triangle of a symmetric graph) map to -1.
        """
        grid = np.full((self.p, self.p), -1, dtype=np.int64)
        grid[self.tile_coords] = np.arange(self.n_tiles, dtype=np.int64)
        return grid

    def group_bounds(self) -> np.ndarray:
        """First disk position of every physical group, then ``n_tiles``
        (``int64``): group ``k`` is positions ``[bounds[k], bounds[k + 1])``
        — disk order enumerates groups one after another, which is precisely
        what makes a physical group a single sequential read."""
        rows, cols = self.tile_coords
        cell = rows // self.q * self.g + cols // self.q
        return np.flatnonzero(np.diff(cell, prepend=-1, append=-1))

    def group_of_tile(self, i: int, j: int) -> tuple[int, int]:
        """Physical group containing tile ``(i, j)``."""
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise FormatError(f"tile ({i},{j}) outside {self.p}x{self.p} grid")
        return (i // self.q, j // self.q)

    def metadata_bytes_per_group(self, tile_bits: int, meta_bytes: int) -> int:
        """Working-set size of one group's algorithmic metadata.

        A group touches ``q * 2**tile_bits`` source vertices and the same
        number of destinations; with ``meta_bytes`` per vertex this is the
        quantity the paper sizes against the LLC (§V-A).
        """
        span = self.q * (1 << tile_bits)
        return 2 * span * meta_bytes

    def __repr__(self) -> str:
        sym = "upper" if self.symmetric else "full"
        return f"PhysicalGrouping(p={self.p}, q={self.q}, {sym}, g={self.g})"
