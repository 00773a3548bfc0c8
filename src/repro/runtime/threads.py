"""Dynamic row-parallel kernel dispatch (paper §VI-B).

G-Store assigns different tile rows to different OpenMP threads with
dynamic scheduling because row sizes are wildly skewed.  The NumPy kernels
here already execute each tile's edges data-parallel inside vectorised
operations; :func:`execute_batch` adds row-level concurrency on top: the
read-only partial phase of a fused batch is mapped over a thread pool's
work queue (NumPy releases the GIL in its inner loops, so skewed shards
balance the way OpenMP ``schedule(dynamic)`` does) and committed serially
in shard order.  The pool is a plain
:class:`~concurrent.futures.ThreadPoolExecutor` the engine owns; this
module also resolves how many workers it gets.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from repro.algorithms import native
from repro.runtime.shard import resolve_shards

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


def resolve_workers(workers: "int | str") -> int:
    """Resolve a worker-count setting to a concrete worker count.

    ``"auto"`` is the cores this process is *allowed* to run on
    (:func:`available_cpus`) — on a single-core box or a pinned CI
    container that resolves to 1, which routes execution through the
    serial path instead of paying pool overhead for no parallelism (the
    ``fused+parallel`` regression BENCH_kernels.json showed with one
    CPU).  Integers pass through unchanged (must be >= 1).
    """
    if workers == "auto":
        return available_cpus()
    w = int(workers)
    if w < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return w


def execution_fingerprint(
    workers: "int | str" = "auto",
    shards: "int | None" = None,
) -> "dict[str, object]":
    """Resolved execution environment for benchmark machine blocks.

    Every ``BENCH_*.json`` records this so a result can be interpreted
    without guessing what ``"auto"`` meant on the runner that produced it,
    nor which kernel tier ran: ``native_kernels`` is ``"loaded"`` when the
    compiled kernels and decode (:mod:`repro.algorithms.native`) ran,
    else the reason the NumPy bodies did.
    """
    return {
        "cpus_logical": os.cpu_count(),
        "cpus_available": available_cpus(),
        "workers_resolved": resolve_workers(workers),
        "shards_resolved": resolve_shards(shards),
        "native_kernels": native.status,
    }


def execute_batch(
    algorithm,
    views,
    pool: "ThreadPoolExecutor | None" = None,
) -> int:
    """Run one batch of tile views through an algorithm's kernel, once per
    shard (:meth:`TileAlgorithm.process_batch`).

    Handed a ``pool`` and a snapshot kernel, the read-only partial phase
    is sharded by the algorithm's :meth:`shard_views` and mapped over the
    pool's work queue, and the partials are committed serially in shard
    order.  Because the shard structure is worker-independent and the
    serial :meth:`process_batch` walks the *same* shards, results are
    bit-identical with or without a pool of any size — a deterministic
    merge with OpenMP ``schedule(dynamic)`` balance (§VI-B).  Live kernels
    (``algorithm.live_kernel``) need each shard's commit before the next
    shard's partial, so they take the serial sweep whatever they are
    handed.
    """
    if not views:
        return 0
    if pool is not None and not algorithm.live_kernel and len(views) > 1:
        shards = algorithm.shard_views(views)
        if len(shards) > 1:
            partials = list(pool.map(algorithm.batch_partial, shards))
            return sum(algorithm.apply_partial(p) for p in partials)
    return algorithm.process_batch(views)
