"""Overlapped I/O / compute timeline (the *slide* of slide-cache-rewind).

G-Store fetches one memory segment while processing the previously fetched
one (§VI-B).  The timeline models a two-stage pipeline: each step carries an
I/O duration and a compute duration that run concurrently, so the step costs
``max(io, compute)``; the pipeline drains with one trailing compute.

Totals track how long each side idled, which the engine reports as
"I/O bound" vs "CPU bound" — the quantity behind the Figure 15 crossover.
Each side's busy time is the run's ``io_time`` / ``compute_time``
(:class:`~repro.engine.stats.RunStats`).

Two clocks run side by side: :class:`PipelineTimeline` accounts the
*simulated* overlap (device model + cost model), while
:class:`WallOverlap` records the *real* one — wall seconds the prefetch
pipeline spent fetching/decoding versus computing versus stalled — so the
Figure-15 I/O-bound fraction exists in both clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.timer import SimClock


@dataclass
class PipelineTotals:
    elapsed: float = 0.0
    io_stall: float = 0.0  # time compute waited on I/O
    compute_stall: float = 0.0  # time I/O waited on compute
    steps: int = 0

    @property
    def io_bound_fraction(self) -> float:
        return self.io_stall / self.elapsed if self.elapsed else 0.0


@dataclass
class PipelineTimeline:
    """Accumulates pipelined steps onto a simulated clock.

    ``overlap=False`` degrades to strictly serial I/O-then-compute, the
    ablation baseline for the SCR experiments.

    With a :class:`~repro.obs.trace.Tracer` attached, every step also
    emits *simulated* spans on the ``sim:io`` / ``sim:compute`` lanes:
    steps happen in plan order on the engine thread, so the simulated
    trace is deterministic — identical at every prefetch depth.
    """

    clock: SimClock = field(default_factory=SimClock)
    overlap: bool = True
    totals: PipelineTotals = field(default_factory=PipelineTotals)
    #: Optional :class:`~repro.obs.trace.Tracer`; ``None`` disables the
    #: simulated span emission entirely.
    tracer: "object | None" = None

    def step(self, io_time: float, compute_time: float) -> float:
        """One pipeline step; returns the step's wall (simulated) duration."""
        if io_time < 0 or compute_time < 0:
            raise ValueError("durations must be non-negative")
        tr = self.tracer
        if tr is not None and tr.enabled:
            t0 = self.totals.elapsed
            comp_t0 = t0 if self.overlap else t0 + io_time
            if io_time > 0:
                tr.sim_span("io", t0, io_time, track="sim:io", cat="sim")
            if compute_time > 0:
                tr.sim_span(
                    "compute", comp_t0, compute_time,
                    track="sim:compute", cat="sim",
                )
        if self.overlap:
            dt = max(io_time, compute_time)
            self.totals.io_stall += max(0.0, io_time - compute_time)
            self.totals.compute_stall += max(0.0, compute_time - io_time)
        else:
            dt = io_time + compute_time
            self.totals.io_stall += io_time
            self.totals.compute_stall += compute_time
        self.totals.elapsed += dt
        self.totals.steps += 1
        self.clock.advance(dt)
        return dt

    def compute_only(self, compute_time: float) -> float:
        """A step with no I/O (processing cached data during *rewind*)."""
        return self.step(0.0, compute_time)

    def io_only(self, io_time: float) -> float:
        """A step with no compute (the pipeline-fill fetch of an iteration)."""
        return self.step(io_time, 0.0)


@dataclass
class WallOverlap:
    """Real-clock overlap accounting for one engine run.

    ``io_busy`` sums the wall seconds prefetch jobs spent fetching and
    decoding batches (on the prefetch thread when ``prefetch_depth >= 1``,
    inline on the engine thread at depth 0); ``compute_busy`` sums the
    engine thread's kernel time; ``io_stall`` is the wall time the engine
    thread actually *waited* for a batch to be ready.  On the serial path
    every fetch is a stall by definition, so the depth-0 run is the honest
    baseline the overlap ratio is measured against.
    """

    io_busy: float = 0.0
    compute_busy: float = 0.0
    io_stall: float = 0.0
    batches: int = 0
    prefetched: int = 0  # batches prepared off the engine thread
    elapsed: float = 0.0  # run wall seconds, filled at run end

    @property
    def io_bound_fraction(self) -> float:
        """Fraction of the run's wall time spent stalled on I/O + decode
        (the wall-clock counterpart of
        :attr:`PipelineTotals.io_bound_fraction`)."""
        return self.io_stall / self.elapsed if self.elapsed else 0.0

    def record_fetch(
        self, busy: float, stall: float, prefetched: bool
    ) -> None:
        """Account one batch: its preparation time and the engine-thread
        wall time that preparation actually blocked."""
        self.io_busy += busy
        self.io_stall += stall
        self.batches += 1
        if prefetched:
            self.prefetched += 1

    def as_dict(self) -> dict:
        return {
            "io_busy": self.io_busy,
            "compute_busy": self.compute_busy,
            "io_stall": self.io_stall,
            "batches": self.batches,
            "prefetched": self.prefetched,
            "elapsed": self.elapsed,
            "io_bound_fraction": self.io_bound_fraction,
        }
