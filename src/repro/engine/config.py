"""Engine configuration (the knobs of the paper's experiments).

Every optimisation the paper ablates is a field here:

* ``memory_bytes`` / ``segment_bytes`` — the streaming/caching split
  (Figures 13 and 14 vary these; paper defaults: 8 GB memory, 256 MB
  segments).
* ``cache_policy`` — SCR vs the two-segment base policy (Figure 13).
* ``n_ssds`` — RAID-0 width (Figure 15).
* ``io_mode`` — batched AIO vs synchronous POSIX reads (§V-B).
* ``overlap`` — pipeline I/O with compute (the *slide*) or serialise,
  on the *simulated* clock.
* ``selective`` — frontier-driven tile skipping (§V-B) vs the dense
  fetch-every-tile baseline; same results, fewer bytes moved.
* ``prefetch_depth`` — the *real* (wall-clock) prefetch pipeline: how many
  segment batches a background worker fetches + decodes ahead of compute
  (0 = strictly serial fetch-then-compute, the ablation baseline).  Unset,
  the engine runs the thread only when reads block (``realize_io``): over
  page-cached reads it has nothing to overlap and costs a GIL hand-off
  per batch.
* ``workers`` / ``shards`` — parallelism: ``workers`` shards the fused
  kernels' partial phase over a thread pool inside one process;
  ``shards`` partitions the slide plan over worker processes that each
  stream their own lane of the tile grid (true multicore).

``trace`` is not an ablation but the observability switch: it turns on
the ``repro.obs`` span tracer and counters registry for the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.faults.plan import FaultPlan
from repro.memory.scr import CachePolicy
from repro.runtime.cost import CostModel
from repro.storage.aio import IOMode
from repro.storage.device import DeviceProfile
from repro.types import DEFAULT_STRIPE_BYTES


@dataclass
class EngineConfig:
    """Configuration of a :class:`~repro.engine.gstore.GStoreEngine` run."""

    #: Memory reserved for streaming + caching graph data (scaled-down
    #: default; the paper uses 8 GB).
    memory_bytes: int = 64 * 1024 * 1024
    #: Size of each of the two streaming segments (paper: 256 MB).
    segment_bytes: int = 4 * 1024 * 1024
    #: Caching policy: SCR (default) or the Figure 13 base policy.
    cache_policy: CachePolicy = CachePolicy.SCR
    #: Number of SSDs in the RAID-0 array.
    n_ssds: int = 1
    #: Per-device performance profile.
    device_profile: DeviceProfile = field(default_factory=DeviceProfile)
    #: RAID-0 stripe size (paper: 64 KB).
    stripe_bytes: int = DEFAULT_STRIPE_BYTES
    #: Batched AIO vs synchronous POSIX request issue.
    io_mode: IOMode = IOMode.AIO
    #: Overlap I/O with compute (the *slide*); False serialises them.
    overlap: bool = True
    #: Compute-time model for the pipelined timeline.
    cost_model: CostModel = field(default_factory=CostModel)
    #: Kernel dispatch granularity: one vectorised pass per shard of a
    #: fetched segment; False dispatches the same kernel once per tile.
    fused: bool = True
    #: Worker threads for row-parallel batch execution (§VI-B dynamic row
    #: scheduling).  1 keeps execution single-threaded; ``"auto"`` clamps
    #: the default to the machine's core count (falling back to serial on a
    #: single-core box); results are bit-identical at any worker count.
    workers: "int | str" = 1
    #: Shard-parallel execution: partition each iteration's slide plan
    #: over this many persistent engine worker *processes* — each owning
    #: its own tile-store mapping, simulated device lane, and fused
    #: fetch→decode→kernel chain — with the coordinator scattering frozen
    #: kernel state per iteration and committing gathered partials in
    #: plan order (docs/ARCHITECTURE.md "Sharded execution").  1 is the
    #: single-coordinator engine; ``None`` resolves from the
    #: ``REPRO_SHARDS`` environment variable, default 1.  Results and
    #: simulated statistics are bit-identical at any shard count; runs
    #: that cannot shard (per-tile mode, fault injection, checksum
    #: verification, live kernels, or spawn/shm unavailable) fall back to
    #: the single-process path.
    #: Results and simulated statistics stay bit-identical across worker
    #: deaths because the supervisor replays lost lanes (bounded by
    #: ``ShardRuntime.RESPAWN_BUDGET``; docs/RELIABILITY.md).
    shards: "int | None" = None
    #: Activity-aware tile skipping (§V-B): each iteration fetches only
    #: the tiles the algorithm's frontier metadata says it must touch
    #: (``rows_active()``/``cols_active()``/``tile_mask()``).  False is
    #: the dense ablation baseline — every non-empty tile is fetched every
    #: iteration and proactive caching sees an all-active next iteration.
    #: Results are bit-identical either way; only bytes moved differ
    #: (tracked per iteration as ``bytes_skipped``/``tiles_skipped``).
    selective: bool = True
    #: Real prefetch pipeline depth: batches ``k+1..k+depth`` are fetched
    #: and decoded by a background worker while batch ``k`` computes on the
    #: engine thread.  0 disables the pipeline entirely (the serial
    #: fetch-then-compute ablation baseline); results are bit-identical at
    #: every depth.  ``None`` resolves from what the store does: depth
    #: ``BLOCKING_IO_DEPTH`` (2) under ``realize_io``, where the producer
    #: sleeps with the GIL released, else 0 — a page-cached fetch is a
    #: buffer slice with nothing to overlap (docs/PERFORMANCE.md "The
    #: prefetch thread runs only when reads block").
    prefetch_depth: "int | None" = None
    #: Sleep each batch's simulated I/O service time in real time, so the
    #: wall clock behaves like the modeled device (used by the
    #: pipeline-overlap benchmark to demonstrate real overlap).
    realize_io: bool = False
    #: Record an execution trace (``repro.obs``): spans on both the wall
    #: and the simulated clock, plus the counters registry.  Off by
    #: default — the disabled path is a no-op fast path (≤2 % overhead).
    #: Export via ``engine.tracer`` or ``python -m repro trace``.
    trace: bool = False
    #: Safety valve on iteration count (algorithms have their own limits).
    max_iterations: int = 100_000
    #: Deterministic fault-injection plan (docs/RELIABILITY.md).  ``None``
    #: (the default) leaves the storage substrate untouched — the clean
    #: path is bit-identical to an engine without the fault plane.
    faults: "FaultPlan | None" = None
    #: Verify each fetched tile extent against its CRC32C at decode time.
    #: ``None`` auto-enables verification exactly when ``faults`` is set,
    #: so clean runs never pay the checksum cost (one array-kernel call
    #: per fetched batch; docs/RELIABILITY.md).
    verify_checksums: "bool | None" = None

    def __post_init__(self) -> None:
        if self.memory_bytes < 2 * self.segment_bytes:
            raise StorageError(
                f"memory_bytes={self.memory_bytes} cannot hold two "
                f"{self.segment_bytes}-byte segments"
            )
        if self.n_ssds < 1:
            raise StorageError("need at least one SSD")
        if self.workers != "auto" and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise StorageError(
                f"workers must be a positive int or 'auto', got {self.workers!r}"
            )
        if self.shards is not None and (
            not isinstance(self.shards, int) or self.shards < 1
        ):
            raise StorageError(
                f"shards must be a positive int or None "
                f"(REPRO_SHARDS default), got {self.shards!r}"
            )
        if self.prefetch_depth is not None and self.prefetch_depth < 0:
            raise StorageError("prefetch_depth must be >= 0 or None")
