"""The shard scatter's shared-memory data plane.

The shard coordinator (:mod:`repro.runtime.shard`) scatters each
iteration's frozen kernel state through a :class:`ShmArena` as ``(shm
name, offset, dtype, shape)`` descriptors, and shard workers map them
back as zero-copy read-only NumPy views (:func:`attach_view`) — payload
bytes never cross a queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterable

import numpy as np

from repro.obs.counters import NULL_METRIC

#: Names of shared-memory segments created by :class:`ShmArena` and not
#: yet unlinked — the leak-hygiene oracle tests assert against after
#: ``close()`` and after injected worker crashes.
LIVE_SHM_SEGMENTS: "set[str]" = set()


@dataclass(frozen=True)
class ShmDescriptor:
    """Address of one NumPy array inside a shared-memory segment.

    This is the shard scatter's *data-placement contract*: payloads
    cross the process boundary as ``(shm name, offset, dtype, shape)``
    quadruples, and the worker maps them back as zero-copy array views —
    the bytes themselves are never pickled.
    """

    shm: str
    offset: int
    dtype: str
    shape: "tuple[int, ...]"

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for d in self.shape:
            n *= d
        return n


class ShmArena:
    """Bump allocator over one POSIX shared-memory segment.

    The shard coordinator copies each iteration's frozen vertex-state
    arrays into the arena exactly once; shard workers map them back as
    read-only NumPy views with zero copies and zero pickling.  The arena
    is reused scatter after scatter — :meth:`reserve` resets the bump
    pointer and grows the segment when a scatter needs more room (only
    ever between iterations, when no worker holds descriptors into it).

    Lifecycle: one arena per shard runtime, unlinked by ``close()``.  Segment
    names are tracked in :data:`LIVE_SHM_SEGMENTS` so tests can assert
    nothing leaks, even after a worker crash.
    """

    #: Allocation alignment — cache-line sized so independently-written
    #: arrays never share a line across the process boundary.
    ALIGN = 64

    def __init__(self, capacity: int = 1 << 20, registry=None):
        self._registry = registry
        self._shm = None
        self._offset = 0
        self._initial = max(int(capacity), self.ALIGN)
        self._closed = False

    # -- properties ----------------------------------------------------- #

    @property
    def name(self) -> "str | None":
        return self._shm.name if self._shm is not None else None

    @property
    def capacity(self) -> int:
        return self._shm.size if self._shm is not None else 0

    @property
    def used(self) -> int:
        return self._offset

    # -- metrics -------------------------------------------------------- #

    def _counter(self, name: str):
        # `is not None`, not truthiness: an empty MetricsRegistry has
        # __len__() == 0 and would silently drop the first metrics.
        if self._registry is not None:
            return self._registry.counter(name)
        return NULL_METRIC

    def _gauge(self, name: str):
        if self._registry is not None:
            return self._registry.gauge(name)
        return NULL_METRIC

    # -- allocation ----------------------------------------------------- #

    @staticmethod
    def layout_bytes(arrays: "Iterable[np.ndarray]") -> int:
        """Arena bytes a sequence of :meth:`put` calls will consume."""
        a = ShmArena.ALIGN
        return sum((arr.nbytes + a - 1) // a * a for arr in arrays)

    def ensure(self, nbytes: int) -> None:
        """Guarantee capacity ``nbytes`` for the next :meth:`reserve`.

        May replace the backing segment (new name), so callers must only
        grow the arena *between* batches — never while worker processes
        hold descriptors into it.  Growth doubles, so a run performs
        O(log max-batch) segment replacements total.
        """
        if self._closed:
            raise RuntimeError("shared-memory arena is closed")
        nbytes = max(int(nbytes), self._initial)
        if self._shm is not None and nbytes <= self._shm.size:
            return
        cap = max(nbytes, 2 * self.capacity)
        self._release_segment()
        seg = shared_memory.SharedMemory(create=True, size=cap)
        LIVE_SHM_SEGMENTS.add(seg.name)
        self._shm = seg
        self._offset = 0
        self._counter("shm.segments").add(1)
        self._gauge("shm.capacity_bytes").set(seg.size)

    def reserve(self, nbytes: int) -> None:
        """Start a new batch: reset the bump pointer, growing if needed."""
        self.ensure(nbytes)
        self._offset = 0

    def put(self, arr: np.ndarray) -> ShmDescriptor:
        """Copy one array into the arena; returns its descriptor.

        The only copy the coordinator ever makes of a payload — the
        worker side maps the descriptor as a view.  Raises if the current
        batch overflows its :meth:`reserve` (a caller bug: the reserve
        must cover :meth:`layout_bytes` of everything it will put).
        """
        arr = np.ascontiguousarray(arr)
        if self._shm is None:
            raise RuntimeError("ShmArena.put before reserve()")
        start = (self._offset + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        end = start + arr.nbytes
        if end > self._shm.size:
            raise RuntimeError(
                f"arena overflow: need {end} bytes, reserved {self._shm.size}"
            )
        view = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=self._shm.buf, offset=start
        )
        view[...] = arr
        self._offset = end
        self._counter("shm.bytes_written").add(arr.nbytes)
        return ShmDescriptor(
            shm=self._shm.name,
            offset=start,
            dtype=arr.dtype.str,
            shape=tuple(arr.shape),
        )

    # -- lifecycle ------------------------------------------------------ #

    def _release_segment(self) -> None:
        if self._shm is None:
            return
        name = self._shm.name
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        LIVE_SHM_SEGMENTS.discard(name)
        self._shm = None
        self._offset = 0

    def close(self) -> None:
        """Unlink the backing segment (idempotent)."""
        self._release_segment()
        self._closed = True

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self._release_segment()
        except Exception:
            pass


def attach_view(desc: ShmDescriptor, cache: "dict[str, object]") -> np.ndarray:
    """Map a descriptor as a read-only array view (worker side, zero-copy).

    ``cache`` memoises segment attachments by name: a worker attaches to
    the engine's arena once per segment generation, not once per shard.
    Stale attachments (the engine grew the arena under a new name) stay
    mapped — on POSIX an unlinked segment lives until the last close — and
    are dropped opportunistically once no views reference them.
    """
    seg = cache.get(desc.shm)
    if seg is None:
        if len(cache) >= 8:
            # Opportunistic eviction of stale generations; a segment whose
            # buffer still has exported views refuses to close — keep it.
            for name in list(cache):
                if name == desc.shm:
                    continue
                try:
                    cache[name].close()
                except BufferError:
                    continue
                del cache[name]
                break
        # Note on the resource tracker: spawn children inherit the parent's
        # tracker process, and registration is an idempotent set-add — so
        # the attach-time re-register is harmless and the engine's unlink
        # performs the single deregistration.  No worker-side unregister
        # (that would race the engine's and spam KeyError tracebacks).
        seg = shared_memory.SharedMemory(name=desc.shm)
        cache[desc.shm] = seg
    view = np.ndarray(
        desc.shape,
        dtype=np.dtype(desc.dtype),
        buffer=seg.buf,
        offset=desc.offset,
    )
    view.flags.writeable = False
    return view
