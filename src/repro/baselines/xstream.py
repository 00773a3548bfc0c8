"""X-Stream baseline: edge-centric scatter-gather-apply (Roy et al.).

X-Stream has no edge index, so *every* iteration streams the complete edge
list sequentially; updates generated in the scatter phase are written to
per-partition update files and read back in the gather phase.  This gives
perfectly sequential I/O but pays three streams per iteration (edges read,
updates written, updates read) and cannot skip inactive regions — the
structural reasons G-Store beats it by 12-32x (§VII-B).

``tuple_bytes`` is configurable (8 or 16) to reproduce the paper's
Figure 2(a): halving the tuple halves the edge-stream time.

The module is the layout (the traditional tuple list) and the cost of its
two streams; the programs are :class:`~repro.baselines.common.ComparatorEngine`'s.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.baselines.common import (
    BaselineConfig,
    ComparatorEngine,
    Phase,
    chunk_extents,
)
from repro.errors import AlgorithmError
from repro.format.edgelist import EdgeList

#: Bytes of one (destination, value) update record.
UPDATE_BYTES = 8


class XStreamEngine(ComparatorEngine):
    """Fully external edge-centric engine over the traditional tuple list."""

    name = "xstream"

    def __init__(
        self,
        edges: EdgeList,
        config: "BaselineConfig | None" = None,
        tuple_bytes: int = 8,
        n_partitions: int = 64,
        updates_to_disk: bool = True,
    ):
        if tuple_bytes not in (8, 16):
            raise AlgorithmError(
                f"X-Stream tuple size is 8 or 16 bytes, got {tuple_bytes}"
            )
        # The traditional representation: undirected graphs store both
        # orientations of every edge.
        self.edges = edges.symmetrized() if not edges.directed else edges
        super().__init__(
            config, self.edges.name, edges.n_vertices, self.edges.src, self.edges.dst
        )
        self.tuple_bytes = tuple_bytes
        #: Streaming partitions: updates are bucketed per destination
        #: partition so the gather phase touches one vertex-state window
        #: at a time (X-Stream's core design).  Each bucket is its own
        #: sequential stream on disk.
        self.n_partitions = max(1, n_partitions)
        #: When the per-partition update buffers fit in memory X-Stream
        #: keeps them there; Figure 2(a) isolates the edge-stream cost by
        #: running in that regime.
        self.updates_to_disk = updates_to_disk

    def _iteration(
        self, active: np.ndarray, updates: int, both_ways: bool
    ) -> "tuple[list[Phase], int]":
        """Scatter streams every edge and appends ``updates`` records to the
        buckets; gather streams them back, one bucket at a time."""
        n_edges = self.edges.n_edges
        edge_bytes = n_edges * self.tuple_bytes
        update_bytes = updates * UPDATE_BYTES if self.updates_to_disk else 0
        # Scatter scans every tuple once per direction and emits the updates.
        scatter = Phase(
            io_time=self.array.read_batch_time(
                chunk_extents(edge_bytes, self.config.segment_bytes)
            ),
            bytes_read=edge_bytes,
            bytes_written=update_bytes,
            work=(2 if both_ways else 1) * n_edges + updates,
        )
        gather = Phase(bytes_read=update_bytes, work=updates)
        if update_bytes:
            # One bucket per destination partition, each its own
            # sequential stream of segment-sized chunks.
            per_bucket = max(1, update_bytes // self.n_partitions)
            chunks = chunk_extents(per_bucket, self.config.segment_bytes)
            sizes = [size for _, size in chunks] * self.n_partitions
            scatter.io_time += self.array.write_batch_time(sizes)
            offsets = accumulate(sizes, initial=0)
            gather.io_time = self.array.read_batch_time(list(zip(offsets, sizes)))
        return [scatter, gather], n_edges
