"""The start-edge index file (paper §IV-B, *Implementation*).

All tiles live in a single data file; a separate array records the starting
edge number of every tile in disk order ("This file serves similar purpose
as does the beg-pos for the CSR format").  Edge numbers convert to byte
offsets by multiplying with the SNB tuple size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError
from repro.types import OFFSET_DTYPE

_MAGIC = b"GSSE"


@dataclass
class StartEdgeIndex:
    """Cumulative edge offsets per stored tile, in disk order.

    ``start_edge`` has ``n_tiles + 1`` entries; tile at disk position ``k``
    holds edges ``[start_edge[k], start_edge[k + 1])``.  ``tuple_bytes`` is
    the on-disk size of one edge tuple (4 for the SNB format with 16-bit
    locals, 8 for the no-SNB ablation that stores global IDs).
    """

    start_edge: np.ndarray
    tuple_bytes: int

    def __post_init__(self) -> None:
        self.start_edge = np.ascontiguousarray(self.start_edge, dtype=OFFSET_DTYPE)
        if self.start_edge.ndim != 1 or self.start_edge.shape[0] < 1:
            raise FormatError("start_edge must be a non-empty 1-D array")
        if int(self.start_edge[0]) != 0:
            raise FormatError("start_edge must begin at 0")
        if np.any(np.diff(self.start_edge.astype(np.int64)) < 0):
            raise FormatError("start_edge must be non-decreasing")

    @classmethod
    def from_counts(cls, counts: np.ndarray, tuple_bytes: int) -> "StartEdgeIndex":
        """Build from per-tile edge counts in disk order (conversion pass 1)."""
        counts = np.asarray(counts, dtype=np.int64)
        start = np.zeros(counts.shape[0] + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=start[1:])
        return cls(start, tuple_bytes)

    @property
    def n_tiles(self) -> int:
        return int(self.start_edge.shape[0]) - 1

    @property
    def n_edges(self) -> int:
        return int(self.start_edge[-1])

    def edge_count(self, pos: int) -> int:
        """Edges stored in the tile at disk position ``pos``."""
        return int(self.start_edge[pos + 1] - self.start_edge[pos])

    def edge_counts(self) -> np.ndarray:
        """Per-tile edge counts for all tiles (Figure 5 input)."""
        return np.diff(self.start_edge.astype(np.int64))

    def tile_bytes(self, positions: np.ndarray) -> np.ndarray:
        """On-disk byte size of every tile in ``positions``, as ``int64``."""
        se = self.start_edge
        return (se[positions + 1] - se[positions]).astype(
            np.int64
        ) * self.tuple_bytes

    def byte_extent(self, pos: int) -> tuple[int, int]:
        """``(offset, size)`` in bytes of tile ``pos`` within the data file."""
        tb = self.tuple_bytes
        off = int(self.start_edge[pos]) * tb
        size = self.edge_count(pos) * tb
        return off, size

    def run_byte_extent(self, first: int, last: int) -> tuple[int, int]:
        """Byte extent of the contiguous run of tiles ``[first, last]``.

        Physical groups are contiguous runs of disk positions, so a whole
        group is one such extent — a single sequential read.
        """
        if not (0 <= first <= last < self.n_tiles):
            raise FormatError(f"bad tile run [{first}, {last}]")
        tb = self.tuple_bytes
        off = int(self.start_edge[first]) * tb
        size = int(self.start_edge[last + 1] - self.start_edge[first]) * tb
        return off, size

    def storage_bytes(self) -> int:
        """On-disk size of the start-edge file itself."""
        return self.start_edge.nbytes

    # ------------------------------------------------------------------ #

    def save(self, path: "str | os.PathLike") -> int:
        path = os.fspath(path)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(int(self.tuple_bytes).to_bytes(4, "little"))
            fh.write(int(self.start_edge.shape[0]).to_bytes(8, "little"))
            fh.write(self.start_edge.tobytes())
        return os.path.getsize(path)

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "StartEdgeIndex":
        path = os.fspath(path)
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise FormatError(f"{path}: not a start-edge file")
            tuple_bytes = int.from_bytes(fh.read(4), "little")
            n = int.from_bytes(fh.read(8), "little")
            raw = fh.read()
        if len(raw) != n * np.dtype(OFFSET_DTYPE).itemsize:
            raise FormatError(f"{path}: truncated start-edge array")
        arr = np.frombuffer(raw, dtype=OFFSET_DTYPE)
        return cls(arr.copy(), tuple_bytes)
