"""Per-run execution context: the state that makes the engine re-entrant.

Historically every piece of a run's mutable state — the simulated clock,
the AIO context, the tracer and its counter registry, the wall-overlap
accounting, the rewind memo — lived as attributes on
:class:`~repro.engine.gstore.GStoreEngine`, so two concurrent ``run()``
calls on one engine would corrupt each other's clocks and statistics.
The serving layer (docs/SERVING.md) multiplexes many small traversals
over one shared read-only engine, which forces the split this module
provides: a :class:`RunContext` owns everything one run mutates, while
the engine keeps only what is genuinely shared and immutable during a
run (the graph, the tile store, the configuration, the worker pools).

Two kinds of context exist:

* the **engine context** — built by the engine itself when ``run()`` is
  called without one.  It aliases the engine's own singletons
  (``engine.clock``, ``engine.tracer``, ``engine.aio``), so the classic
  batch path behaves exactly as before, including the prefetch thread
  and the kernel thread pool.
* a **private context** — built by
  :meth:`~repro.engine.gstore.GStoreEngine.query_context`.  It carries a
  fresh :class:`~repro.util.timer.SimClock`, a fresh
  :class:`~repro.storage.aio.AIOContext` over the *shared* store, and
  (when tracing) a private :class:`~repro.obs.trace.Tracer` with its own
  :class:`~repro.obs.counters.MetricsRegistry` — the per-query stats
  isolation contract: concurrent queries never write to a shared
  registry, so no counter or clock can be corrupted across queries.
  A private run is exactly one thread — no worker pool, no prefetch
  thread; fetch, decode and kernels inline on the caller's — and
  private runs take turns: the engine's lane (:mod:`repro.runtime.lane`)
  admits one at a time in arrival order, because two interpreter-bound
  runs side by side only trade the GIL.

A private context also carries the cooperative cancellation state for
the serving layer's per-query deadlines: the engine calls
:meth:`RunContext.check_cancelled` at every iteration boundary — and
:meth:`RunContext.wait_slice` while the run waits for the lane — and a
missed deadline raises the typed
:class:`~repro.errors.DeadlineError` without leaving threads or
undelivered batches behind.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeadlineError
from repro.format.tiles import DecodedBatch
from repro.obs.trace import NULL_TRACER
from repro.runtime.pipeline import WallOverlap
from repro.storage.aio import AIOContext
from repro.storage.raid import Raid0Array
from repro.util.timer import SimClock

#: How often a queued run looks at its cancel event (seconds).
_CANCEL_POLL = 0.02


@dataclass
class RunContext:
    """Everything one engine run mutates, bundled.

    The engine threads an instance of this through every per-run code
    path (iteration driver, batch preparation, rewind decode, kernel
    dispatch), so concurrent runs with distinct contexts never touch the
    same mutable state — the re-entrancy contract of the serving layer.
    """

    #: Simulated clock this run charges I/O service time to.
    clock: SimClock
    #: Span tracer + counter registry for this run (``NULL_TRACER`` when
    #: tracing is off — then counters are swallowed at zero cost).
    tracer: object
    #: AIO context binding the shared store to this run's clock/tracer.
    aio: AIOContext
    #: Real-clock overlap accounting for this run.
    wall_overlap: WallOverlap = field(default_factory=WallOverlap)
    #: True for per-query contexts from ``query_context()``: the run must
    #: not touch engine-level mutable state and executes on one thread.
    private: bool = False
    #: Absolute ``time.monotonic()`` deadline; ``None`` = no deadline.
    deadline: "float | None" = None
    #: Optional external cancellation flag, checked with the deadline.
    cancel_event: "threading.Event | None" = None
    #: Set by the engine's degrade step when the prefetch pipeline died:
    #: the run prepares its remaining batches at depth 0, serially on the
    #: engine thread.
    degraded: bool = False
    # Memoized rewind batch: all-active algorithms rewind the same tile
    # set every iteration, so it is decoded once.
    rewind_key: "np.ndarray | None" = None
    rewind_merged: "DecodedBatch | None" = None
    #: Seconds this run waited its turn in the engine lane before it
    #: started (private contexts; not part of ``RunStats.wall_seconds``).
    lane_wait: float = 0.0

    def check_cancelled(self) -> None:
        """Raise :class:`DeadlineError` if this run should stop.

        Called by the engine at iteration boundaries (the cooperative
        cancellation points — no thread is interrupted mid-kernel, no
        prefetcher is live when it fires).
        """
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise DeadlineError("query cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineError(
                "query deadline exceeded",
                context={"deadline_monotonic": self.deadline},
            )

    @property
    def remaining(self) -> "float | None":
        """Seconds until the deadline (``None`` when no deadline is set)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def wait_slice(self) -> "float | None":
        """:meth:`check_cancelled`, then how long a blocking wait may last
        before this must be asked again: until the deadline, in
        ``_CANCEL_POLL`` steps while there is a cancel event to watch
        (``None``: indefinitely).  What the engine lane's queue calls."""
        self.check_cancelled()
        remaining = self.remaining
        if self.cancel_event is None:
            return remaining
        return _CANCEL_POLL if remaining is None else min(_CANCEL_POLL, remaining)


def wire_device_counters(array: Raid0Array, registry) -> None:
    """Point every simulated device of ``array`` at ``registry``."""
    for dev in array.devices:
        dev.counters = registry


def make_private_context(
    engine,
    *,
    trace: bool = False,
    deadline: "float | None" = None,
    cancel_event: "threading.Event | None" = None,
) -> RunContext:
    """Build a private (re-entrant) context over ``engine``'s graph.

    Shares the engine's immutable substrate — the tile store's mmap, the
    decoded-graph metadata, the configuration — but owns a fresh clock,
    a fresh simulated device array, and (when ``trace``) a private
    tracer/registry.  ``deadline`` is *relative* seconds from now.
    """
    from repro.errors import AlgorithmError
    from repro.obs import Tracer

    if engine.config.faults is not None:
        raise AlgorithmError(
            "private run contexts do not support fault injection: fault "
            "ordinals are assigned in global plan order on the engine's "
            "shared AIO context"
        )
    clock = SimClock()
    tracer = Tracer(clock=clock) if trace else NULL_TRACER
    array = Raid0Array.from_config(engine.config)
    if tracer.enabled:
        wire_device_counters(array, tracer.registry)
    aio = AIOContext(
        store=engine.store,
        array=array,
        clock=clock,
        mode=engine.config.io_mode,
        realize_io=engine.config.realize_io,
        tracer=tracer,
    )
    abs_deadline = None if deadline is None else time.monotonic() + deadline
    return RunContext(
        clock=clock,
        tracer=tracer,
        aio=aio,
        private=True,
        deadline=abs_deadline,
        cancel_event=cancel_event,
    )
