"""In-memory execution over tiles (no storage substrate, wall-clock only).

The paper positions Galois/Ligra-style in-memory engines as complementary
(§VIII: "G-Store can take advantage of such algorithmic techniques"); this
engine runs the same tile algorithms directly over a resident payload.
Only the tests use it, as ground truth for the semi-external engine:
identical kernels, no I/O.  (The in-memory experiments do not: Figure
2(b) times its own partitioned PageRank loop, and Figures 11/12 replay
the grouped tile order through the LLC model.)

Tiles are visited in physical-group disk order, the cache-friendly one
(Figure 11).
"""

from __future__ import annotations

from repro.algorithms.base import TileAlgorithm
from repro.engine.selective import select_positions
from repro.engine.stats import IterationStats, RunStats
from repro.errors import AlgorithmError
from repro.format.tiles import TiledGraph
from repro.runtime.threads import execute_batch
from repro.util.timer import WallTimer


class InMemoryEngine:
    """Run tile algorithms over a resident :class:`TiledGraph`.

    ``fused`` selects the kernel dispatch granularity exactly like
    :class:`~repro.engine.config.EngineConfig` does for the semi-external
    engine (see :meth:`~repro.algorithms.base.TileAlgorithm.apply_partial`
    for the exact-vs-reassociation contract between the two); kernels run
    on the calling thread.
    """

    name = "inmemory"

    def __init__(
        self,
        graph: TiledGraph,
        max_iterations: int = 100_000,
        fused: bool = True,
    ):
        if graph.payload is None:
            raise AlgorithmError(
                "InMemoryEngine needs a resident payload; load with "
                "resident=True or use GStoreEngine for semi-external runs"
            )
        self.graph = graph
        self.max_iterations = int(max_iterations)
        self.fused = bool(fused)

    def run(self, algorithm: TileAlgorithm) -> RunStats:
        """Execute to convergence; only wall-clock time is meaningful."""
        g = self.graph
        stats = RunStats(
            engine=self.name, algorithm=algorithm.name, graph=g.info.name
        )
        with WallTimer() as wall:
            algorithm.setup(g)
            iteration = 0
            while iteration < self.max_iterations:
                algorithm.begin_iteration(iteration)
                it = IterationStats(iteration=iteration)
                with WallTimer() as t:
                    views = [
                        g.tile_view(pos)
                        for pos in select_positions(
                            g,
                            algorithm.rows_active(),
                            algorithm.cols_active(),
                            algorithm.tile_mask(g.tile_rows, g.tile_cols),
                        )
                    ]
                    it.edges_processed += execute_batch(
                        algorithm, views, fused=self.fused
                    )
                it.compute_time = t.elapsed
                it.elapsed = t.elapsed
                stats.add_iteration(it)
                if not algorithm.end_iteration(iteration):
                    break
                iteration += 1
            else:
                raise AlgorithmError(
                    f"{algorithm.name} did not converge within "
                    f"{self.max_iterations} iterations"
                )
        stats.wall_seconds = wall.elapsed
        stats.sim_elapsed = stats.compute_time  # no I/O component
        stats.metadata_bytes = algorithm.metadata_bytes()
        return stats
