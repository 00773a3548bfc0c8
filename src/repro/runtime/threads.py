"""Dynamic row-parallel kernel dispatch (paper §VI-B).

G-Store assigns different tile rows to different OpenMP threads with
dynamic scheduling because row sizes are wildly skewed.  The NumPy kernels
here already execute each tile's edges data-parallel inside vectorised
operations; :func:`execute_batch` adds row-level concurrency on top: the
read-only partial phase of a decoded batch's shards is mapped over a
thread pool's work queue (NumPy and the compiled tier release the GIL in
their inner loops, so skewed shards balance the way OpenMP
``schedule(dynamic)`` does) and committed serially in shard order.  The
pool is a plain :class:`~concurrent.futures.ThreadPoolExecutor` the
engine owns — like G-Store's OpenMP threads, it shares the engine's one
address space, and it is the only parallel compute a run has.  Its size
is not a setting: a kernel that wins on it declares so
(:attr:`~repro.algorithms.base.TileAlgorithm.pooled`), and the engine
sizes the pool by :func:`kernel_threads`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat

from repro.types import SHARDS_PER_BATCH


#: Thread-name prefix of the engine's kernel pool, so tests can assert
#: clean shutdown via ``threading.enumerate()``.
WORKER_THREAD_PREFIX = "repro-worker"


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` respects cgroup/affinity limits (CI
    containers routinely advertise 64 ``cpu_count`` cores while pinning
    the job to 2), falling back to ``os.cpu_count`` where affinity is not
    a concept (macOS, Windows).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def kernel_threads() -> int:
    """Threads of the engine's kernel pool: one per CPU this process may
    run on, up to :data:`~repro.types.SHARDS_PER_BATCH` — a batch has no
    more shards than that, so further threads would have nothing to do.
    1 means no pool: the kernels run on the engine thread."""
    return min(available_cpus(), SHARDS_PER_BATCH)


def execute_batch(
    algorithm,
    batch,
    pool: "ThreadPoolExecutor | None" = None,
    layers=None,
) -> int:
    """Run one decoded batch (:class:`~repro.format.tiles.DecodedBatch`)
    through an algorithm's kernel, once per shard of its
    :meth:`~repro.algorithms.base.TileAlgorithm.shard_cuts`; returns the
    number of edges examined.  The one walk of a batch's shards.

    Handed a ``pool`` (the engine hands one only to a
    :attr:`~repro.algorithms.base.TileAlgorithm.pooled` kernel), a
    snapshot kernel's read-only partials are mapped over the pool's work
    queue and then committed serially in shard order; otherwise each
    shard's partial is computed and committed before the next shard's.
    The shards are the same either way, so results are bit-identical with
    or without a pool of any size — a deterministic merge with OpenMP
    ``schedule(dynamic)`` balance (§VI-B).  A live kernel
    (``algorithm.live_kernel``) needs each shard's commit before the next
    shard's partial, so it takes the serial walk whatever it is handed.
    A kernel that reads global IDs has the batch widened here, on the
    calling thread, before the pool's threads read them.

    ``layers``, a run's :class:`~repro.engine.stats.LayerClock`, is lapped
    on the calling thread after every partial (``kernel``) and commit
    (``apply``).
    """
    lap = layers.lap if layers is not None else _no_lap
    cuts = algorithm.shard_cuts(batch).tolist()
    starts, ends = cuts[:-1], cuts[1:]
    if pool is not None and not algorithm.live_kernel and len(starts) > 1:
        if algorithm.reads_ids:
            batch.widen()
        partials = list(pool.map(
            algorithm.shard_partial, repeat(batch), starts, ends
        ))
        lap("kernel")
        edges = sum(algorithm.apply_partial(p) for p in partials)
        lap("apply")
        return edges
    edges = 0
    for a, b in zip(starts, ends):
        partial = algorithm.shard_partial(batch, a, b)
        lap("kernel")
        edges += algorithm.apply_partial(partial)
        del partial  # before the next shard's partial is built
        lap("apply")
    return edges


def _no_lap(row: str) -> None:
    pass
