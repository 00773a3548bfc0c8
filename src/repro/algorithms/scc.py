"""Strongly connected components via FW-BW-Trim (Fleischer et al. [10]).

The paper singles SCC out (§IV-A) as the algorithm class that forces CSR
engines to store *both* in-edges and out-edges.  G-Store's tiles carry
both directions in one copy, so the forward sweep follows the stored
orientation and the backward sweep follows it in reverse — the
:class:`~repro.algorithms.reachability.Reachability` building block.

Algorithm (FW-BW with trimming):

1. *Trim* — vertices with zero in- or out-degree within the remaining
   subgraph are singleton SCCs; peel them iteratively.
2. Pick a pivot; compute its forward set F and backward set B (two
   reachability runs restricted to the remaining subgraph).
3. ``F ∩ B`` is the pivot's SCC; recurse on ``F \\ B``, ``B \\ F``, and the
   remainder — three disjoint sets that cannot share an SCC.

The driver runs one engine once per reachability sweep and once per trim
pass, so every byte of graph traffic flows through the same storage
substrate as the headline algorithms — and a graph whose payload is not
resident decomposes like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import TileAlgorithm
from repro.algorithms.pagerank import scatter_add
from repro.algorithms.reachability import Reachability
from repro.engine.stats import RunStats
from repro.errors import AlgorithmError
from repro.format.tiles import TiledGraph


class SubgraphDegrees(TileAlgorithm):
    """One sweep counting, for every vertex, its in- and out-neighbours
    inside the ``active`` subset — the trim step's test.  PageRank's
    scatter-add of a 0/1 vector, both directions in one pass over the
    batch's payload, straight into the degree arrays (float sums of ones
    are exact far beyond any degree, so the order of the adds cannot
    show)."""

    name = "degrees"
    one_shard = True
    reads_ids = False

    def __init__(self, active: np.ndarray) -> None:
        super().__init__()
        self._x = active.astype(np.float64)

    def _setup(self) -> None:
        n = self._graph().n_vertices
        self.in_deg = np.zeros(n, dtype=np.float64)
        self.out_deg = np.zeros(n, dtype=np.float64)
        # The sweep reads the rows of the active subset and, its one
        # iteration marking nothing, caches nothing.
        self._start_frontier(self._x > 0)

    def kernel_partial(self, tiles):
        return tiles

    def apply_partial(self, tiles) -> int:
        scatter_add(self.in_deg, self._x, tiles, self.out_deg, self._held)
        return tiles.n_edges

    def end_iteration(self, iteration: int) -> bool:
        return False

    def result(self) -> "tuple[np.ndarray, np.ndarray]":
        return self.in_deg, self.out_deg


@dataclass
class SCCResult:
    """Outcome of an SCC decomposition."""

    labels: np.ndarray
    n_components: int
    pivot_rounds: int
    trimmed: int
    reachability_stats: "list[RunStats]" = field(default_factory=list)
    #: One engine run per trim pass (the active-subgraph degree sweeps).
    trim_stats: "list[RunStats]" = field(default_factory=list)

    def component_sizes(self) -> np.ndarray:
        return np.bincount(self.labels)


class SCCDriver:
    """Forward-backward SCC decomposition over a directed tiled graph."""

    def __init__(self, engine):
        """Every trim pass and reachability sweep is one run on ``engine``
        (a :class:`~repro.engine.gstore.GStoreEngine`, each run a fresh
        cache pool); the caller owns and closes it."""
        if not engine.graph.info.directed:
            raise AlgorithmError("SCC is defined for directed graphs")
        self.engine = engine
        self.graph: TiledGraph = engine.graph

    # ------------------------------------------------------------------ #

    def _trim(
        self, active: np.ndarray, labels: np.ndarray, next_label: int,
        trim_stats: "list[RunStats]",
    ) -> tuple[int, int]:
        """Iteratively peel trivial SCCs (zero in- or out-degree); each
        pass is one engine sweep over the active subgraph."""
        trimmed = 0
        while active.any():
            degrees = SubgraphDegrees(active)
            trim_stats.append(self.engine.run(degrees))
            in_deg, out_deg = degrees.result()
            trivial = active & ((in_deg == 0) | (out_deg == 0))
            if not trivial.any():
                break
            ids = np.nonzero(trivial)[0]
            labels[ids] = next_label + np.arange(ids.shape[0])
            next_label += int(ids.shape[0])
            active[ids] = False
            trimmed += int(ids.shape[0])
        return next_label, trimmed

    def _reach(self, pivot: int, active: np.ndarray, forward: bool):
        algo = Reachability(
            seeds=[pivot], forward=forward, allowed=active.copy()
        )
        stats = self.engine.run(algo)
        return algo.reached(), stats

    # ------------------------------------------------------------------ #

    def run(self, trim: bool = True) -> SCCResult:
        g = self.graph
        n = g.n_vertices
        labels = np.full(n, -1, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        next_label = 0
        trimmed_total = 0
        pivot_rounds = 0
        all_stats: "list[RunStats]" = []
        trim_stats: "list[RunStats]" = []

        worklist: "list[np.ndarray]" = [active]
        while worklist:
            subset = worklist.pop()
            subset = subset & (labels < 0)
            if not subset.any():
                continue
            if trim:
                next_label, t = self._trim(
                    subset, labels, next_label, trim_stats
                )
                trimmed_total += t
                if not subset.any():
                    continue
            pivot = int(np.nonzero(subset)[0][0])
            fwd, s1 = self._reach(pivot, subset, forward=True)
            bwd, s2 = self._reach(pivot, subset, forward=False)
            all_stats.extend([s1, s2])
            pivot_rounds += 1

            scc = fwd & bwd & subset
            ids = np.nonzero(scc)[0]
            labels[ids] = next_label
            next_label += 1

            rest_f = subset & fwd & ~scc
            rest_b = subset & bwd & ~scc
            rest = subset & ~fwd & ~bwd
            for part in (rest_f, rest_b, rest):
                if part.any():
                    worklist.append(part)

        # Normalise labels to 0..k-1 in first-seen order.
        _, norm = np.unique(labels, return_inverse=True)
        return SCCResult(
            labels=norm.astype(np.int64),
            n_components=int(np.unique(norm).shape[0]),
            pivot_rounds=pivot_rounds,
            trimmed=trimmed_total,
            reachability_stats=all_stats,
            trim_stats=trim_stats,
        )
