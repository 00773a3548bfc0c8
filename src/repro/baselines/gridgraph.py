"""GridGraph baseline: 2-level hierarchical 2-D grid streaming (Zhu et al.).

GridGraph stores full 8-byte tuples in a 2-D grid of partitions, streams
them with selective scheduling (skipping partitions with no active source
range), and relies on the OS page cache — plain LRU — for reuse across
iterations.  Relative to G-Store it lacks the SNB tuple compression, the
symmetry saving, and the proactive caching policy, which is exactly the
comparison the paper's related-work section draws (§VIII).

The module is the layout (the partition grid) and its I/O model — the
partitions of every active source row, streamed through the page cache; the
programs are :class:`~repro.baselines.common.ComparatorEngine`'s, run over
the grid's row-major edge arrays.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineConfig, ComparatorEngine, Phase
from repro.cache.pagecache import LRUPageCache
from repro.format.edgelist import EdgeList
from repro.format.partition2d import Partitioned2D

PAGE_BYTES = 4096
_TUPLE_BYTES = 8


class GridGraphEngine(ComparatorEngine):
    """2-D grid streaming engine with OS-page-cache-style LRU."""

    name = "gridgraph"

    def __init__(
        self,
        edges: EdgeList,
        config: "BaselineConfig | None" = None,
        n_parts: int = 32,
    ):
        source = edges.symmetrized() if not edges.directed else edges
        self.grid = Partitioned2D.from_edge_list(source, n_parts)
        super().__init__(
            config, self.grid.name, edges.n_vertices, self.grid.src, self.grid.dst
        )
        self.cache = LRUPageCache(
            capacity_bytes=self.config.memory_bytes, page_bytes=PAGE_BYTES
        )

    def _iteration(
        self, active: np.ndarray, updates: int, both_ways: bool
    ) -> "tuple[list[Phase], int]":
        """Selective scheduling: stream the non-empty partitions of every row
        with an active source through the page cache, one extent each."""
        grid = self.grid
        rows = np.unique(np.nonzero(active)[0] // grid.span)
        k = (rows[:, None] * grid.n_parts + np.arange(grid.n_parts)).ravel()
        lo = grid.offsets[k] * _TUPLE_BYTES
        size = grid.offsets[k + 1] * _TUPLE_BYTES - lo
        stored = size > 0
        phase = Phase()
        extents = []
        for off, nbytes in zip(lo[stored].tolist(), size[stored].tolist()):
            hit, miss = self.cache.access_extent(off, nbytes)
            phase.bytes_from_cache += hit
            phase.bytes_read += miss
            if miss:
                extents.append((off, miss))
        if extents:
            phase.io_time = self.array.read_batch_time(extents)
        edges = int(size.sum()) // _TUPLE_BYTES
        phase.work = edges * (2 if both_ways else 1)
        return [phase], edges
