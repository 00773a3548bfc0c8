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
) -> int:
    """Run one decoded batch (:class:`~repro.format.tiles.DecodedBatch`)
    through an algorithm's kernel, once per shard
    (:meth:`TileAlgorithm.process_batch`).

    Handed a ``pool`` and a snapshot kernel, the read-only partial phase
    is cut by the algorithm's :meth:`shard_cuts` and mapped over the
    pool's work queue, and the partials are committed serially in shard
    order.  Because the shard structure is worker-independent and the
    serial :meth:`process_batch` walks the *same* shards, results are
    bit-identical with or without a pool of any size — a deterministic
    merge with OpenMP ``schedule(dynamic)`` balance (§VI-B).  Live kernels
    (``algorithm.live_kernel``) need each shard's commit before the next
    shard's partial, so they take the serial sweep whatever they are
    handed.
    """
    if pool is not None and not algorithm.live_kernel:
        cuts = algorithm.shard_cuts(batch).tolist()
        if len(cuts) > 2:
            partials = list(pool.map(
                algorithm.shard_partial, repeat(batch), cuts[:-1], cuts[1:]
            ))
            return sum(algorithm.apply_partial(p) for p in partials)
    return algorithm.process_batch(batch)
