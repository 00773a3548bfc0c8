"""Edge-list graph representation (paper Figure 1b).

An :class:`EdgeList` is the universal interchange format of this library:
generators produce it, every on-disk format converts from it, and the
X-Stream baseline streams it directly.  Edges are held as two parallel
``uint32`` NumPy arrays for vectorised processing.

Size accounting follows the paper: an edge tuple costs twice the global
vertex size, so 8 bytes below 2**32 vertices and 16 bytes above (§IV-B,
Table II).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FormatError
from repro.types import VERTEX_DTYPE, vertex_bytes_needed

_MAGIC = b"GSEL"
_VERSION = 1


def sort_unique_keys(
    key: np.ndarray, weights: "np.ndarray | None" = None
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Sort integer edge keys ascending and drop duplicates — one sort.

    ``key`` is consumed: unweighted keys are value-sorted in place (no
    permutation array, no gathers).  Weights have to follow their keys, so
    a weighted input pays for a stable argsort instead, and of equal keys
    the first in input order keeps its weight.
    """
    if weights is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = weights[order]
    if key.size:
        first = np.empty(key.shape, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        if weights is not None:
            weights = weights[first]
    return key, weights


def endpoint_error(
    src: np.ndarray, dst: np.ndarray, n_vertices: int
) -> "FormatError | None":
    """The error naming the first edge, in input order, with an endpoint
    not below ``n_vertices`` (its source when both are), or ``None``."""
    bad = (src >= n_vertices) | (dst >= n_vertices)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    s, d = int(src[k]), int(dst[k])
    v = s if s >= n_vertices else d
    return FormatError(
        f"endpoint {v} is not below n_vertices {n_vertices}",
        context={"edge": k, "src": s, "dst": d},
    )


def _pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a << 32 | b``: sorts like the pair ``(a, b)``."""
    return (a.astype(np.uint64) << np.uint64(32)) | b


def _unpack_pair_key(key: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    return (
        (key >> np.uint64(32)).astype(VERTEX_DTYPE),
        key.astype(VERTEX_DTYPE),  # the cast keeps the low 32 bits
    )


@dataclass
class EdgeList:
    """A graph as a flat collection of ``(src, dst)`` tuples.

    Attributes
    ----------
    src, dst:
        Parallel ``uint32`` arrays; entry ``k`` is the edge ``src[k] ->
        dst[k]``.
    n_vertices:
        Number of vertices; all IDs must be below this.
    directed:
        Whether tuples carry direction.  An *undirected* edge list stores
        each edge once in arbitrary orientation; use :meth:`symmetrized`
        to obtain the traditional both-directions tuple list that systems
        like X-Stream consume.
    name:
        Optional dataset label used in reports.
    weights:
        Optional per-edge float32 weights, parallel to ``src``/``dst``.
    """

    src: np.ndarray
    dst: np.ndarray
    n_vertices: int
    directed: bool = True
    name: str = ""
    weights: "np.ndarray | None" = None
    _degree_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=VERTEX_DTYPE)
        self.dst = np.ascontiguousarray(self.dst, dtype=VERTEX_DTYPE)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise FormatError(
                f"src/dst must be equal-length 1-D arrays, got shapes "
                f"{self.src.shape} and {self.dst.shape}"
            )
        if self.n_vertices <= 0:
            raise FormatError(f"n_vertices must be positive, got {self.n_vertices}")
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
            if self.weights.shape != self.src.shape:
                raise FormatError(
                    f"weights must parallel the edges: {self.weights.shape} "
                    f"vs {self.src.shape}"
                )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pairs(
        cls,
        pairs: "list[tuple[int, int]] | np.ndarray",
        n_vertices: int | None = None,
        directed: bool = True,
        name: str = "",
    ) -> "EdgeList":
        """Build from an iterable of ``(u, v)`` pairs or an ``(m, 2)`` array."""
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise FormatError(f"expected (m, 2) pair array, got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise FormatError("vertex IDs must be non-negative")
        if n_vertices is None:
            n_vertices = int(arr.max()) + 1 if arr.size else 1
        return cls(
            arr[:, 0].astype(VERTEX_DTYPE),
            arr[:, 1].astype(VERTEX_DTYPE),
            n_vertices,
            directed=directed,
            name=name,
        )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def n_edges(self) -> int:
        """Number of stored tuples (each undirected edge counted once)."""
        return int(self.src.shape[0])

    def validate(self) -> None:
        """Check that all endpoint IDs fall inside ``[0, n_vertices)``."""
        if self.n_edges == 0:
            return
        hi = max(int(self.src.max()), int(self.dst.max()))
        if hi >= self.n_vertices:
            raise FormatError(
                f"vertex ID {hi} out of range for n_vertices={self.n_vertices}"
            )

    def storage_bytes(self, vertex_bytes: int | None = None) -> int:
        """Bytes of the traditional tuple representation of *this* list.

        Note: for an undirected graph the traditional edge list stores each
        edge twice; combine with :meth:`symmetrized` (or multiply by two) to
        reproduce the paper's Table II numbers.
        """
        if vertex_bytes is None:
            vertex_bytes = vertex_bytes_needed(self.n_vertices)
        return 2 * vertex_bytes * self.n_edges

    def check_ids(self) -> None:
        """Raise :class:`FormatError` naming the first endpoint not below
        ``n_vertices`` (see :func:`endpoint_error`)."""
        if self.src.size and max(self.src.max(), self.dst.max()) >= self.n_vertices:
            raise endpoint_error(self.src, self.dst, self.n_vertices)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def canonicalized(self, drop_self_loops: bool = True) -> "EdgeList":
        """Return the upper-triangle canonical form: ``src <= dst``, deduped.

        This is the symmetry saving of §IV-A: an undirected graph keeps only
        the upper triangle of its adjacency matrix.  Self-loops are dropped
        by default (they carry no information for the paper's algorithms).
        """
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        w = self.weights
        if drop_self_loops:
            keep = lo != hi
            lo, hi = lo[keep], hi[keep]
            if w is not None:
                w = w[keep]
        key, w = sort_unique_keys(_pair_key(lo, hi), w)
        return EdgeList(
            *_unpack_pair_key(key),
            self.n_vertices,
            directed=False,
            name=self.name,
            weights=w,
        )

    def symmetrized(self) -> "EdgeList":
        """Return the both-directions tuple list (each edge stored twice).

        This is how traditional engines materialise an undirected graph
        (§IV-A: "an edge (v1, v2) is stored twice").
        """
        canon = self.canonicalized()
        src = np.concatenate([canon.src, canon.dst])
        dst = np.concatenate([canon.dst, canon.src])
        w = canon.weights
        return EdgeList(
            src,
            dst,
            self.n_vertices,
            directed=True,
            name=self.name,
            weights=None if w is None else np.concatenate([w, w]),
        )

    def deduped(self) -> "EdgeList":
        """Remove duplicate tuples (keeping direction)."""
        key, w = sort_unique_keys(_pair_key(self.src, self.dst), self.weights)
        return EdgeList(
            *_unpack_pair_key(key),
            self.n_vertices,
            directed=self.directed,
            name=self.name,
            weights=w,
        )

    def without_self_loops(self) -> "EdgeList":
        keep = self.src != self.dst
        return EdgeList(
            self.src[keep],
            self.dst[keep],
            self.n_vertices,
            directed=self.directed,
            name=self.name,
            weights=None if self.weights is None else self.weights[keep],
        )

    # ------------------------------------------------------------------ #
    # Degrees
    # ------------------------------------------------------------------ #

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (uses the stored orientation)."""
        if "out" not in self._degree_cache:
            self._degree_cache["out"] = np.bincount(
                self.src, minlength=self.n_vertices
            ).astype(np.uint32)
        return self._degree_cache["out"]

    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex (uses the stored orientation)."""
        if "in" not in self._degree_cache:
            self._degree_cache["in"] = np.bincount(
                self.dst, minlength=self.n_vertices
            ).astype(np.uint32)
        return self._degree_cache["in"]

    def degrees(self) -> np.ndarray:
        """Undirected degree per vertex: endpoints counted on both sides.

        For PageRank on undirected graphs (stored as the upper half) the
        contribution divisor is this full degree, not the stored out-degree.
        """
        if "both" not in self._degree_cache:
            self._degree_cache["both"] = (
                np.bincount(self.src, minlength=self.n_vertices)
                + np.bincount(self.dst, minlength=self.n_vertices)
            ).astype(np.uint32)
        return self._degree_cache["both"]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: "str | os.PathLike") -> int:
        """Write the binary tuple file; returns bytes written.

        Layout: 4-byte magic, 4-byte version, uint64 n_vertices, uint64
        n_edges, uint8 directed flag, then interleaved uint32 pairs — the
        same raw format that X-Stream-style systems stream sequentially.
        """
        path = os.fspath(path)
        inter = np.empty(2 * self.n_edges, dtype=VERTEX_DTYPE)
        inter[0::2] = self.src
        inter[1::2] = self.dst
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(int(_VERSION).to_bytes(4, "little"))
            fh.write(int(self.n_vertices).to_bytes(8, "little"))
            fh.write(int(self.n_edges).to_bytes(8, "little"))
            flags = int(bool(self.directed)) | (
                2 if self.weights is not None else 0
            )
            fh.write(flags.to_bytes(1, "little"))
            fh.write(inter.tobytes())
            if self.weights is not None:
                fh.write(self.weights.tobytes())
        return os.path.getsize(path)

    @classmethod
    def load(cls, path: "str | os.PathLike", name: str = "") -> "EdgeList":
        """Read a file produced by :meth:`save`."""
        path = os.fspath(path)
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            version = int.from_bytes(fh.read(4), "little")
            if version != _VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            n_vertices = int.from_bytes(fh.read(8), "little")
            n_edges = int.from_bytes(fh.read(8), "little")
            flags = int.from_bytes(fh.read(1), "little")
            directed = bool(flags & 1)
            has_weights = bool(flags & 2)
            inter = np.frombuffer(
                fh.read(2 * n_edges * VERTEX_DTYPE().itemsize), dtype=VERTEX_DTYPE
            )
            weights = None
            if has_weights:
                weights = np.frombuffer(fh.read(4 * n_edges), dtype=np.float32)
        if inter.shape[0] != 2 * n_edges:
            raise FormatError(
                f"{path}: expected {2 * n_edges} vertex IDs, found {inter.shape[0]}"
            )
        return cls(
            inter[0::2].copy(),
            inter[1::2].copy(),
            n_vertices,
            directed,
            name=name,
            weights=None if weights is None else weights.copy(),
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"EdgeList({kind}{label}, |V|={self.n_vertices}, |E|={self.n_edges})"
        )
