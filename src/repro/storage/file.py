"""Byte-level access to the single tile data file (paper §IV-B: "We store
all the tiles in a single file").

``TileStore`` serves extent reads either from a real file on disk or from
an in-memory buffer (useful in tests and when a benchmark has already built
the graph in memory).  Reads are zero-copy: the in-memory mode keeps a
``memoryview`` over the caller's buffer and returns sliced views of it, and
the on-disk mode memory-maps the payload file so extents are views over the
page cache.  ``numpy.frombuffer`` over a returned view therefore decodes
tiles without any intermediate ``bytes`` copy; timing is the AIO context's
job.  The mapping is wrapped once, at first use, in one read-only view
(and one ``uint8`` array over it): :meth:`TileStore.read` slices the view
and :meth:`TileStore.gather` the array, so neither builds a wrapper of the
whole store per call.
"""

from __future__ import annotations

import mmap
import os
import threading

import numpy as np

from repro.errors import StorageError

_EMPTY = memoryview(b"")


class TileStore:
    """Random-access zero-copy reads over the tile payload."""

    def __init__(self, path: "str | None" = None, data: "bytes | bytearray | memoryview | np.ndarray | None" = None):
        if (path is None) == (data is None):
            raise StorageError("pass exactly one of path / data")
        self._path = os.fspath(path) if path is not None else None
        self._fh = None
        self._mm: "mmap.mmap | None" = None
        self._array: "np.ndarray | None" = None
        # Reads may come from the engine thread, the prefetch thread, and
        # pool workers concurrently; only the lazy mmap/file-handle setup
        # and the seek+read fallback need serialising (slicing views of an
        # established mapping is thread-safe).
        self._lock = threading.Lock()
        if data is not None:
            if isinstance(data, np.ndarray):
                view = memoryview(np.ascontiguousarray(data)).cast("B")
            else:
                view = memoryview(data).cast("B")
            self._data: "memoryview | None" = view
            self._size = view.nbytes
        else:
            self._data = None
            self._size = os.path.getsize(self._path)

    @classmethod
    def from_tiled_graph(cls, tg) -> "TileStore":
        """Build a store over a :class:`TiledGraph`'s payload (memory or disk)."""
        if tg.payload is not None:
            return cls(data=tg.payload)
        if tg.payload_path is not None:
            return cls(path=tg.payload_path)
        raise StorageError("TiledGraph has neither resident payload nor a path")

    @property
    def size(self) -> int:
        return self._size

    def _map(self) -> "memoryview | None":
        """The one read-only view of the whole store — the caller's buffer,
        or the backing file memory-mapped at first use; None when mapping
        is unavailable."""
        if self._data is None:
            if self._size == 0:
                return None  # cannot mmap an empty file
            with self._lock:
                if self._data is None:
                    with open(self._path, "rb") as fh:
                        try:
                            self._mm = mmap.mmap(
                                fh.fileno(), 0, access=mmap.ACCESS_READ
                            )
                        except (ValueError, OSError):
                            return None
                    self._data = memoryview(self._mm)
        return self._data

    def _bytes(self) -> "np.ndarray | None":
        """The whole store as one ``uint8`` array over :meth:`_map`'s view
        (built once); None when mapping is unavailable."""
        if self._array is None:
            view = self._map()
            if view is None:
                return None
            self._array = np.frombuffer(view, dtype=np.uint8)
        return self._array

    def _outside(self, offset: int, size: int) -> StorageError:
        return StorageError(
            f"extent ({offset}, {size}) outside store of {self._size} bytes",
            context={
                "offset": offset,
                "size": size,
                "store_bytes": self._size,
                "path": self._path,
            },
        )

    def gather(self, offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The bytes of extents ``(offsets[k], sizes[k])``, laid end to end
        in one contiguous ``uint8`` array: a zero-copy slice of the store
        for one extent, otherwise one concatenation of slices.  Extents
        outside the store raise :class:`StorageError` (one vector test for
        the batch, naming the first offender)."""
        arr = self._bytes()
        if len(offsets) == 1:
            a, n = int(offsets[0]), int(sizes[0])
            if a < 0 or n < 0 or a + n > self._size:
                raise self._outside(a, n)
            if arr is not None:
                return arr[a : a + n]
            return np.frombuffer(self.read(a, n), dtype=np.uint8)
        ends = offsets + sizes
        if len(ends) and (
            (offsets | sizes).min() < 0 or ends.max() > self._size
        ):
            bad = (offsets < 0) | (sizes < 0) | (ends > self._size)
            k = int(np.argmax(bad))
            raise self._outside(int(offsets[k]), int(sizes[k]))
        if arr is None:  # no mapping (empty store, or mmap refused)
            parts = [
                np.frombuffer(self.read(a, b - a), dtype=np.uint8)
                for a, b in zip(offsets.tolist(), ends.tolist())
            ]
        else:
            parts = [arr[a:b] for a, b in zip(offsets.tolist(), ends.tolist())]
        return np.concatenate(parts) if parts else np.empty(0, np.uint8)

    def read(self, offset: int, size: int) -> memoryview:
        """pread-style extent read returning a zero-copy view."""
        if offset < 0 or size < 0 or offset + size > self._size:
            raise self._outside(offset, size)
        if size == 0:
            return _EMPTY
        mapped = self._map()
        if mapped is not None:
            return mapped[offset : offset + size]
        # Degenerate fallback (mmap refused): plain pread, one copy.  The
        # shared handle's seek+read must not interleave across threads.
        with self._lock:
            if self._fh is None:
                self._fh = open(self._path, "rb")
            self._fh.seek(offset)
            out = self._fh.read(size)
        if len(out) != size:
            raise StorageError(
                f"short read at {offset} (+{size})",
                context={
                    "offset": offset,
                    "size": size,
                    "got": len(out),
                    "path": self._path,
                },
                retryable=True,
            )
        return memoryview(out)

    def close(self) -> None:
        """Release the file handle and the mapping (a store over a
        caller's buffer holds neither)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._mm is not None:
            self._array = None
            view, self._data = self._data, None
            try:
                view.release()
            except BufferError:
                pass  # exported to an array still alive: GC releases it
            try:
                self._mm.close()
            except BufferError:
                # Views of the mapping are still live; the map is released
                # when they are garbage-collected.
                pass
            self._mm = None

    def __enter__(self) -> "TileStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
