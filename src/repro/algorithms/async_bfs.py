"""Asynchronous BFS (paper §II-B, citing Pearce et al. [26]).

Level-synchronous BFS needs one pass per level; the asynchronous variant
relaxes depths like a shortest-path computation — ``depth[dst] =
min(depth[dst], depth[src] + 1)`` — so a single pass over the tiles can
advance the frontier through *many* levels when the disk order happens to
follow the traversal.  The paper notes this "reduces the total number of
iterations needed", which for a semi-external engine means fewer full
sweeps of the graph.

The final depth array is identical to synchronous BFS (it is the same
fixpoint); only the iteration count differs.

The fused kernel is *live* (:attr:`~repro.algorithms.base.TileAlgorithm.
live_kernel`): shards commit in order, each seeing every earlier commit,
and the relaxation runs to a fixpoint within the resident shard.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.sssp import LiveRelaxation, state_alias
from repro.types import INF_DEPTH


class AsyncBFS(LiveRelaxation):
    """BFS by asynchronous depth relaxation (fewer, heavier iterations):
    ``int64`` depths (a clean +1 without overflow), every edge weighing 1,
    relaxed to each resident shard's fixpoint, its edges counted once
    however many passes that takes."""

    name = "bfs"  # same cost-model family as synchronous BFS
    dtype = np.int64
    unreached = np.int64(INF_DEPTH)
    weighted = False
    passes = -1
    edges_per_pass = False
    depth = state_alias("Per-vertex ``int64`` depth (``INF_DEPTH`` unreached).")

    def visited_count(self) -> int:
        return int(np.count_nonzero(self.state != np.int64(INF_DEPTH)))

    def result(self) -> np.ndarray:
        """Per-vertex depth as uint32, identical to synchronous BFS."""
        out = np.minimum(self.state, np.int64(INF_DEPTH))
        return out.astype(np.uint32)
