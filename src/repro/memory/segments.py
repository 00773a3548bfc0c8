"""Segments and the cache pool (paper §VI-A, copy-based memory management).

G-Store splits the streaming/caching memory into two fixed-size *segments*
(one loading from disk while the other is processed) plus a *cache pool*
holding tiles that proactive analysis predicts will be needed again.  The
pool here enforces the byte budget the way G-Store's memcpy-compacted pool
does — exactly sized tiles, no page-management overhead, no fragmentation —
but it never copies: tile payloads are zero-copy slices of the immutable
backing store, so what the pool has to *store* is which disk positions are
resident and how many bytes they account for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import MemoryBudgetError


@dataclass(frozen=True)
class MemoryBudget:
    """The streaming/caching memory split.

    ``total_bytes`` is the memory reserved for graph data (the paper's
    8 GB / 4 GB figure); two ``segment_bytes`` segments are carved out for
    the I/O/processing double buffer and the rest is the cache pool.
    """

    total_bytes: int
    segment_bytes: int

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise MemoryBudgetError("segment size must be positive")
        if self.total_bytes < 2 * self.segment_bytes:
            raise MemoryBudgetError(
                f"budget {self.total_bytes} too small for two "
                f"{self.segment_bytes}-byte segments"
            )

    @property
    def pool_bytes(self) -> int:
        """Capacity left for the cache pool after the two segments."""
        return self.total_bytes - 2 * self.segment_bytes


@dataclass
class TileBuffer:
    """A per-tile record of one tile: its disk position, grid coords, and
    payload buffer.  The engine never builds one — the pool accounts by
    position on every execution path; ``benchmarks/perf/layer_walk.py``
    still replays the call shape that did.

    ``data`` is typically a zero-copy ``memoryview`` over the tile store's
    backing buffer; holding it pins the underlying pages, which is exactly
    the cache-pool semantics (the bytes stay addressable without a copy).

    ``view`` optionally carries the decoded :class:`TileView` so tiles that
    stay pooled across iterations (rewind, §VI-D) are decoded exactly once;
    the decoded arrays are views over ``data``, so they cost no extra
    payload memory.
    """

    pos: int
    i: int
    j: int
    data: "bytes | memoryview"
    view: "object | None" = None

    @property
    def nbytes(self) -> int:
        return len(self.data)


class CachePool:
    """Byte-budgeted tile residency, accounted by disk position.

    The pool's unit of account is the tile *position*: residency is a
    boolean mask over disk positions plus a per-position size and one byte
    counter, so membership tests, admission, analysis and eviction are
    array operations over a whole batch — the engine creates no per-tile
    Python object, its rewind re-decodes resident tiles straight off the
    (immutable, zero-copy) backing store.

    A caller that does hold per-tile state — a :class:`TileBuffer` with
    its lazily decoded view — keeps it in a side table keyed by position
    (:meth:`attach`, :meth:`get`) that :meth:`evict` clears.

    Admission never evicts: a tile that would overflow the budget is
    refused and the SCR scheduler runs proactive analysis to reclaim
    space before retrying (§VI-C: "the cache analysis happens only when
    the cache pool is full").
    """

    def __init__(self, capacity_bytes: int, n_tiles: int = 0) -> None:
        self.capacity_bytes = capacity_bytes
        self._resident = np.zeros(n_tiles, dtype=bool)
        self._nbytes = np.zeros(n_tiles, dtype=np.int64)
        self._buffers: "dict[int, TileBuffer]" = {}
        self._used = 0
        self._count = 0
        #: Bumped by every change of residency: equal versions mean the
        #: same resident set.
        self.version = 0

    def reserve(self, n_tiles: int) -> None:
        """Grow the position space to cover ``[0, n_tiles)``."""
        have = self._resident.shape[0]
        if n_tiles > have:
            self._resident = np.concatenate(
                [self._resident, np.zeros(n_tiles - have, dtype=bool)]
            )
            self._nbytes = np.concatenate(
                [self._nbytes, np.zeros(n_tiles - have, dtype=np.int64)]
            )

    def __contains__(self, pos: int) -> bool:
        return 0 <= pos < self._resident.shape[0] and bool(self._resident[pos])

    def __len__(self) -> int:
        return self._count

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def resident(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``positions`` (all within the reserved
        position space) are in the pool."""
        return self._resident[positions]

    def position_array(self) -> np.ndarray:
        """Resident positions as an ``int64`` array, in disk order."""
        return self._resident.nonzero()[0]

    def positions(self) -> "list[int]":
        return self.position_array().tolist()

    def admit(self, positions: np.ndarray, sizes: np.ndarray) -> None:
        """Mark ``positions`` (distinct, none resident) resident.

        The caller has already decided they fit — the scheduler's
        admission arithmetic works on the whole batch at once — so this
        only records the decision.
        """
        if positions.size == 0:
            return
        self._resident[positions] = True
        self._nbytes[positions] = sizes
        self._used += int(sizes.sum())
        self._count += int(positions.size)
        self.version += 1

    def attach(self, buffers: "Iterable[TileBuffer]") -> None:
        """Keep the payload buffers of resident tiles in the side table
        (until eviction), for a later :meth:`get_many`."""
        for buf in buffers:
            self._buffers[buf.pos] = buf

    def add(self, buf: TileBuffer) -> bool:
        """Admit one tile with its payload buffer; returns False when it
        does not fit (a resident position is left as it is)."""
        pos = buf.pos
        if pos in self:
            return True
        if buf.nbytes > self.free_bytes:
            return False
        self.reserve(pos + 1)
        self.admit(
            np.array([pos], dtype=np.int64),
            np.array([buf.nbytes], dtype=np.int64),
        )
        self._buffers[pos] = buf
        return True

    def get(self, pos: int) -> "TileBuffer | None":
        """The payload buffer kept for ``pos``, if it was offered with
        one (residency alone does not imply a buffer)."""
        return self._buffers.get(pos)

    def get_many(self, positions) -> "list[TileBuffer]":
        """Payload buffers for ``positions`` (KeyError on a miss)."""
        buffers = self._buffers
        return [buffers[pos] for pos in positions]

    def evict(self, positions) -> int:
        """Remove tiles (non-residents are ignored); returns bytes freed."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return 0
        pos = pos[pos < self._resident.shape[0]]
        pos = pos[self._resident[pos]]
        freed = int(self._nbytes[pos].sum())
        self._resident[pos] = False
        self._used -= freed
        self._count -= int(pos.size)
        self.version += 1
        if self._buffers:
            for p in pos.tolist():
                self._buffers.pop(p, None)
        return freed

    def clear(self) -> None:
        self._resident[:] = False
        self._buffers.clear()
        self._used = 0
        self._count = 0
        self.version += 1
