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

The kernel thread pool (§VI-B) is not a field: a kernel that wins on it
declares so (``TileAlgorithm.pooled``) and the engine sizes it.

``trace`` is not an ablation but the observability switch: it turns on
the ``repro.obs`` span tracer and counters registry for the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from repro.errors import StorageError
from repro.faults.plan import FaultPlan
from repro.memory.scr import CachePolicy
from repro.runtime.cost import CostModel
from repro.storage.aio import IOMode
from repro.storage.device import DeviceProfile
from repro.types import DEFAULT_STRIPE_BYTES


#: Fields that count something (bytes, devices, batches, iterations):
#: ``__post_init__`` rejects anything but an integer (NumPy's included),
#: ``bool`` and ``float`` too, before a fractional value can reach
#: ``range()`` or a ``Semaphore``.
_INT_FIELDS = (
    "memory_bytes", "segment_bytes", "n_ssds", "stripe_bytes",
    "prefetch_depth", "max_iterations",
)


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
    #: wall clock behaves like the modeled device (``tools/wall_smoke.py``
    #: gate 1 uses it to show the prefetch overlap is real).
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

    @property
    def fused(self) -> bool:
        """Constant: every kernel is dispatched once per shard of a batch.
        Read by nothing in ``src/``; kept only because
        ``benchmarks/perf/layer_walk.py`` reads it."""
        return True

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and name == "prefetch_depth":
                continue
            # ``bool`` is an ``int`` subclass; ``True`` is no byte count.
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise StorageError(
                    f"{name} must be an int, got {value!r}"
                )
        if self.memory_bytes < 2 * self.segment_bytes:
            raise StorageError(
                f"memory_bytes={self.memory_bytes} cannot hold two "
                f"{self.segment_bytes}-byte segments"
            )
        if self.n_ssds < 1:
            raise StorageError("need at least one SSD")
        if self.prefetch_depth is not None and self.prefetch_depth < 0:
            raise StorageError("prefetch_depth must be >= 0 or None")
