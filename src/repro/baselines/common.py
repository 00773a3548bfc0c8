"""What the comparators share: hardware, vertex programs and accounting.

A comparator is a storage layout plus an I/O model.  BFS, PageRank and
min-label CC are written once here, edge-centric over the model's own flat
``(src, dst)`` arrays — so each keeps its storage order and therefore its
float sums — and tell the model what an iteration touched; the model
answers only with the I/O phases that cost (:meth:`ComparatorEngine._iteration`).

The programs are deliberately *not* G-Store's tile kernels: they are the
independent reference those kernels are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.stats import IterationStats, RunStats
from repro.runtime.cost import CostModel
from repro.storage.device import DeviceProfile
from repro.storage.raid import Raid0Array
from repro.types import DEFAULT_STRIPE_BYTES, INF_DEPTH
from repro.util.timer import SimClock, WallTimer


@dataclass
class BaselineConfig:
    """Configuration shared by the baseline engines.

    Defaults mirror :class:`repro.engine.config.EngineConfig` so that a
    comparison varies only the engine, never the hardware.
    """

    memory_bytes: int = 64 * 1024 * 1024
    segment_bytes: int = 4 * 1024 * 1024
    n_ssds: int = 1
    device_profile: DeviceProfile = field(default_factory=DeviceProfile)
    stripe_bytes: int = DEFAULT_STRIPE_BYTES
    cost_model: CostModel = field(default_factory=CostModel)
    overlap: bool = True


def chunk_extents(total_bytes: int, chunk_bytes: int) -> "list[tuple[int, int]]":
    """Split a sequential stream of ``total_bytes`` into chunk extents."""
    out = []
    pos = 0
    while pos < total_bytes:
        size = min(chunk_bytes, total_bytes - pos)
        out.append((pos, size))
        pos += size
    return out


def phase_time(io_time: float, compute_time: float, overlap: bool) -> float:
    """Elapsed time of one phase whose I/O and compute may overlap."""
    return max(io_time, compute_time) if overlap else io_time + compute_time


def pagerank_new_rank(
    acc: np.ndarray, rank: np.ndarray, dangling: np.ndarray, damping: float
) -> np.ndarray:
    """The shared PageRank update step (identical across engines)."""
    n = rank.shape[0]
    dangling_mass = float(rank[dangling].sum())
    return (1.0 - damping) / n + damping * (acc + dangling_mass / n)


@dataclass
class Phase:
    """One I/O phase of an iteration, as a model charges it: the bytes it
    moved, how long the array took, and the edge work done beside it."""

    io_time: float = 0.0
    bytes_read: int = 0
    bytes_from_cache: int = 0
    bytes_written: int = 0
    work: int = 0


class ComparatorEngine:
    """The three vertex programs over a model's flat edge arrays.

    A subclass builds its layout, passes the ``(src, dst)`` arrays in its
    own storage order, and implements :meth:`_iteration`.
    """

    name = ""

    def __init__(
        self,
        config: "BaselineConfig | None",
        graph_name: str,
        n_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
    ):
        self.config = config or BaselineConfig()
        self.graph_name = graph_name
        self.n_vertices = n_vertices
        self._src = src
        self._dst = dst
        self.clock = SimClock()
        self.array = Raid0Array.from_config(self.config)

    def _iteration(
        self, active: np.ndarray, updates: int, both_ways: bool
    ) -> "tuple[list[Phase], int]":
        """What one iteration costs this model: ``(phases, edges processed)``.

        ``active`` is the per-vertex mask the iteration reads from (the BFS
        frontier, CC's previously changed vertices, everyone for PageRank),
        ``updates`` the update records an edge-centric scatter emits, and
        ``both_ways`` whether values travel against the edge direction too
        (CC).
        """
        raise NotImplementedError

    def _account(
        self,
        stats: RunStats,
        active: np.ndarray,
        updates: int,
        both_ways: bool = False,
    ) -> None:
        """Charge the next iteration of ``stats`` to the model and the clock."""
        cfg = self.config
        phases, edges = self._iteration(active, updates, both_ways)
        it = IterationStats(iteration=len(stats.iterations), edges_processed=edges)
        for ph in phases:
            compute = cfg.cost_model.compute_time(stats.algorithm, ph.work)
            it.io_time += ph.io_time
            it.compute_time += compute
            it.bytes_read += ph.bytes_read
            it.bytes_from_cache += ph.bytes_from_cache
            it.elapsed += phase_time(ph.io_time, compute, cfg.overlap)
            stats.bytes_written += ph.bytes_written
        stats.add_iteration(it)
        self.clock.advance(it.elapsed)

    def run_bfs(self, root: int = 0) -> "tuple[np.ndarray, RunStats]":
        """Level-synchronous BFS; returns (depth array, stats)."""
        src, dst = self._src, self._dst
        stats = RunStats(engine=self.name, algorithm="bfs", graph=self.graph_name)
        with WallTimer() as wall:
            depth = np.full(self.n_vertices, INF_DEPTH, dtype=np.uint32)
            depth[root] = 0
            level = 0
            while True:
                frontier = depth == np.uint32(level)
                cand = frontier[src] & (depth[dst] == INF_DEPTH)
                updates = int(np.count_nonzero(cand))
                self._account(stats, frontier, updates)
                if updates == 0:
                    break
                depth[dst[cand]] = np.uint32(level + 1)
                level += 1
        stats.wall_seconds = wall.elapsed
        return depth, stats

    def run_pagerank(
        self,
        damping: float = 0.85,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
    ) -> "tuple[np.ndarray, RunStats]":
        """Power-iteration PageRank; returns (rank array, stats)."""
        src, dst = self._src, self._dst
        stats = RunStats(engine=self.name, algorithm="pagerank", graph=self.graph_name)
        with WallTimer() as wall:
            n = self.n_vertices
            deg = np.bincount(src, minlength=n).astype(np.float64)
            dangling = deg == 0
            inv_deg = 1.0 / np.where(dangling, 1.0, deg)
            rank = np.full(n, 1.0 / n, dtype=np.float64)
            everyone = np.ones(n, dtype=bool)
            for _ in range(max_iterations):
                acc = np.bincount(dst, weights=(rank * inv_deg)[src], minlength=n)
                # Every edge carries one update in PageRank's scatter.
                self._account(stats, everyone, src.shape[0])
                new_rank = pagerank_new_rank(acc, rank, dangling, damping)
                delta = float(np.abs(new_rank - rank).sum())
                rank = new_rank
                if delta < tolerance:
                    break
        stats.wall_seconds = wall.elapsed
        return rank, stats

    def run_cc(self, max_iterations: int = 1000) -> "tuple[np.ndarray, RunStats]":
        """Min-label connected components; returns (labels, stats)."""
        src, dst = self._src, self._dst
        stats = RunStats(engine=self.name, algorithm="cc", graph=self.graph_name)
        with WallTimer() as wall:
            comp = np.arange(self.n_vertices, dtype=np.int64)
            active = np.ones(self.n_vertices, dtype=bool)
            for _ in range(max_iterations):
                prev = comp.copy()
                # WCC ignores direction: propagate the min label both ways.
                np.minimum.at(comp, dst, comp[src])
                np.minimum.at(comp, src, comp[dst])
                while True:
                    nxt = comp[comp]
                    if np.array_equal(nxt, comp):
                        break
                    comp = nxt
                changed = comp != prev
                # An update per edge with an endpoint whose label moved.
                updates = int(np.count_nonzero(changed[src] | changed[dst]))
                self._account(stats, active, updates, both_ways=True)
                if not changed.any():
                    break
                active = changed
        stats.wall_seconds = wall.elapsed
        return comp, stats
