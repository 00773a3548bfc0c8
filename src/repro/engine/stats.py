"""Run statistics collected by every engine (G-Store and the baselines).

``sim_elapsed`` is the pipelined simulated time (the number every speedup
figure uses); ``wall_seconds`` is the real Python time (what the repo
benchmark, ``benchmarks/perf``, records).  Byte counters separate disk
reads from cache hits so the SCR experiments can attribute their wins.

The G-Store engine additionally reports the overlap story in *both*
clocks: ``extra["pipeline"]`` carries the simulated
:class:`~repro.runtime.pipeline.PipelineTotals` and
``extra["pipeline_wall"]`` the real-clock
:class:`~repro.runtime.pipeline.WallOverlap` numbers (how long the engine
thread actually stalled on fetch+decode vs computed), so the Figure-15
I/O-bound fraction exists simulated and measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.humanize import fmt_bytes, fmt_count, fmt_time


@dataclass
class IterationStats:
    """Per-iteration accounting."""

    iteration: int
    io_time: float = 0.0
    compute_time: float = 0.0
    elapsed: float = 0.0
    bytes_read: int = 0
    bytes_from_cache: int = 0
    tiles_fetched: int = 0
    tiles_from_cache: int = 0
    edges_processed: int = 0
    #: Bytes selective scheduling did *not* move this iteration: the byte
    #: total of non-empty tiles the frontier metadata ruled out (§V-B).
    #: ``bytes_read + bytes_from_cache + bytes_skipped`` is the dense
    #: demand — what a fetch-everything iteration would have touched.
    bytes_skipped: int = 0
    #: Non-empty tiles selective scheduling skipped this iteration.
    tiles_skipped: int = 0


@dataclass
class RunStats:
    """Whole-run accounting for one algorithm execution."""

    engine: str = "gstore"
    algorithm: str = ""
    graph: str = ""
    iterations: "list[IterationStats]" = field(default_factory=list)
    sim_elapsed: float = 0.0
    io_time: float = 0.0
    compute_time: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_from_cache: int = 0
    tiles_fetched: int = 0
    tiles_from_cache: int = 0
    edges_processed: int = 0
    bytes_skipped: int = 0
    tiles_skipped: int = 0
    wall_seconds: float = 0.0
    metadata_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def add_iteration(self, it: IterationStats) -> None:
        self.iterations.append(it)
        self.io_time += it.io_time
        self.compute_time += it.compute_time
        self.sim_elapsed += it.elapsed
        self.bytes_read += it.bytes_read
        self.bytes_from_cache += it.bytes_from_cache
        self.tiles_fetched += it.tiles_fetched
        self.tiles_from_cache += it.tiles_from_cache
        self.edges_processed += it.edges_processed
        self.bytes_skipped += it.bytes_skipped
        self.tiles_skipped += it.tiles_skipped

    def mteps(self) -> float:
        """Million traversed edges per second on the simulated timeline
        (the paper's BFS throughput metric, §VII-A)."""
        if self.sim_elapsed <= 0:
            return 0.0
        return self.edges_processed / self.sim_elapsed / 1e6

    def cache_hit_fraction(self) -> float:
        total = self.bytes_read + self.bytes_from_cache
        return self.bytes_from_cache / total if total else 0.0

    def bytes_skipped_fraction(self) -> float:
        """Fraction of the dense demand that selective scheduling never
        moved — ``skipped / (read + cached + skipped)``, the "bytes saved
        per iteration" metric summed over the run."""
        dense = self.bytes_read + self.bytes_from_cache + self.bytes_skipped
        return self.bytes_skipped / dense if dense else 0.0

    def wall_io_stall_fraction(self) -> "float | None":
        """Fraction of the run's *wall* time the engine thread spent
        stalled waiting on fetch+decode (None when the engine did not
        record wall overlap — e.g. the baselines)."""
        wall = self.extra.get("pipeline_wall")
        if not wall:
            return None
        return wall.get("io_bound_fraction", 0.0)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"{self.engine}/{self.algorithm} on {self.graph or '<graph>'}: "
            f"{self.n_iterations} iterations, sim {fmt_time(self.sim_elapsed)} "
            f"(io {fmt_time(self.io_time)}, compute {fmt_time(self.compute_time)}), "
            f"wall {fmt_time(self.wall_seconds)}",
            f"  I/O: {fmt_bytes(self.bytes_read)} read"
            + (
                f" + {fmt_bytes(self.bytes_written)} written"
                if self.bytes_written
                else ""
            )
            + f", cache supplied {fmt_bytes(self.bytes_from_cache)} "
            f"({self.cache_hit_fraction():.0%} of demand)",
            f"  work: {fmt_count(self.edges_processed)} edges processed "
            f"({self.mteps():.1f} MTEPS), tiles {self.tiles_fetched} fetched / "
            f"{self.tiles_from_cache} cached",
        ]
        if self.tiles_skipped:
            lines.append(
                f"  selective: skipped {self.tiles_skipped} tiles / "
                f"{fmt_bytes(self.bytes_skipped)} "
                f"({self.bytes_skipped_fraction():.0%} of dense demand)"
            )
        wall = self.extra.get("pipeline_wall")
        if wall and wall.get("batches"):
            lines.append(
                f"  overlap (wall): fetch+decode {fmt_time(wall['io_busy'])} "
                f"({wall['prefetched']}/{wall['batches']} batches prefetched), "
                f"stalled {fmt_time(wall['io_stall'])} "
                f"({wall['io_bound_fraction']:.0%} of wall time)"
            )
        faults = self.extra.get("faults")
        if faults:
            c = faults.get("counters", {})
            line = (
                f"  faults: {faults.get('injected', 0)} injected, "
                f"{c.get('retry.attempts', 0)} retries "
                f"({c.get('retry.recovered', 0)} recovered)"
            )
            backoff = c.get("retry.backoff_time_sim", 0.0)
            if backoff:
                line += f", backoff {fmt_time(backoff)}"
            if self.extra.get("execution", {}).get("degraded"):
                line += ", degraded to serial I/O"
            lines.append(line)
        return "\n".join(lines)
