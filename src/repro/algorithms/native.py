"""The compiled kernel tier: min-relaxations, BFS and reachability
discovery, the scatter-add, the SNB decode, and the write path's tile
encoder and checksums, in C.

SSSP's and AsyncBFS's relaxations with their commits (:func:`rounds`),
CC's min-commit (:func:`min_commit`), BFS's and Reachability's discovery
passes (:func:`discover_bfs`, :func:`discover_reach`) and BFS's commit
(:func:`commit_level`), the commit of PageRank, SpMV and SCC's degrees
(:func:`scatter_add`), PageRank's end-of-iteration vertex pass
(:func:`pagerank_end`), the widening of SNB tile payloads into global IDs
(:func:`widen`, behind ``TileEdges.widen``, for the kernels that still
read them), the tile encoders' bucket passes — the counting sort by
position of directed inputs (:func:`by_position`), and the symmetric
encoder's bucketing and unpack (:func:`bucket_upper`,
:func:`unpack_buckets`, around NumPy's sort of each bucket in
``TiledGraph.from_edge_list``) — and the per-tile CRC32C
(:func:`crc32c_extents`, behind ``repro.faults.crc``: SSE4.2's ``crc32``
instruction where the CPU has it, else slicing-by-8 tables built when the
library loads) each run as one loop of one C file.

``_relax.c`` (beside this module) is compiled once with ``gcc`` into a
per-user cache, ``~/.cache/repro/native/<sha256>.so`` keyed by source,
flags and platform, and loaded with cffi in ABI mode (``FFI.dlopen``: no
setuptools, no Python headers; every call releases the GIL).  The tier is
chosen here, at import, and nowhere else: :data:`lib` is the loaded
library, or ``None`` with :data:`status` naming why (cffi or ``gcc``
missing, the build failing), and then every caller runs its NumPy body —
which the tests also keep as the oracle of the C one.  The answers are
the NumPy bodies' element for element and in the same order, so results
and simulated statistics do not depend on the tier.

Every kernel that reads edges takes them as the slide holds them, in tile
form (:class:`~repro.format.tiles.TileEdges`: the stored locals, per-tile
counts and bases), and adds each tile's bases as it reads.  Each checks
the whole batch first — that the counts cover the payload, and every
widened endpoint against the state's length (batch-wide, tile by tile
only where that fails) — so a corrupt endpoint raises NumPy's own
``IndexError`` and bad counts a ``ValueError``, before anything is
written.  A commit checks its indices and its row array first too.  A
run's state, row arrays and a slide plan's layouts reach C through its
:class:`Held` buffers, converted once.  The write-path kernels check
their whole input first too — endpoints against ``n_vertices`` (a
:class:`~repro.errors.FormatError` naming the first bad one), tile
positions against the tile count, checksum extents against the buffer —
and raise typed before their first write.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import FormatError
from repro.format.edgelist import endpoint_error
from repro.types import VERTEX_DTYPE

SOURCE = Path(__file__).with_name("_relax.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11", "-Wall", "-Wextra", "-Wshadow",
         "-Werror")

#: The tile-form arguments of every edge kernel (:func:`_tile_args`).
_TILES = ("const void *, int, int64_t, const int64_t *, const uint32_t *, "
          "const uint32_t *, int64_t")

CDEF = "".join(
    f"""
int min_commit_{x}({t} *, int64_t, const int64_t *, const {t} *, int64_t,
                  uint8_t *, int, int64_t);
int64_t rounds_{x}({t} *, int64_t, {_TILES}, int, const float *,
                   const double *, uint8_t *, int, int64_t, int64_t,
                   uint8_t *);
"""
    for x, t in (("f64", "double"), ("i64", "int64_t"))
) + f"""
int64_t discover_bfs(const uint32_t *, int64_t, {_TILES}, int, uint32_t,
                     int64_t *);
int64_t discover_reach(const uint8_t *, const uint8_t *, const uint8_t *,
                       int64_t, {_TILES}, int, int, int64_t *);
int64_t commit_level(uint32_t *, int64_t, const int64_t *, int64_t, uint32_t,
                     uint8_t *, int, int64_t);
int scatter_add(double *, double *, int64_t, const double *, {_TILES});
void pagerank_end(double *, double *, const double *, int64_t, double, double,
                  double);
int widen({_TILES}, uint32_t *, uint32_t *);
int by_position(const uint32_t *, const uint32_t *, int64_t, int64_t,
                const int64_t *, int64_t, int64_t, int, int, int,
                const float *, uint32_t *, int64_t *, void *, float *);
int64_t bucket_upper(const uint32_t *, const uint32_t *, int64_t, int64_t,
                     const int64_t *, int64_t, int64_t, int, int, int64_t,
                     const float *, void *, uint8_t *, float *, void *,
                     float *, int64_t *);
int64_t unpack_buckets(const void *, int64_t, const int64_t *, int64_t, int,
                       int, const int64_t *, const int64_t *, int64_t,
                       int64_t, int, int, const float *, int64_t, void *,
                       int64_t *, uint32_t *, float *);
int crc32c_sse42(void);
int crc32c_extents(const uint8_t *, int64_t, const int64_t *,
                   const int64_t *, int64_t, uint32_t *, int);
"""


def library_path(cache: Path) -> Path:
    """The cached library for this source, these flags and this platform."""
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(FLAGS).encode(),
                 platform.platform().encode()):
        key.update(part)
        key.update(b"\0")
    return cache / f"{key.hexdigest()}.so"


def build(so: Path) -> None:
    """Compile :data:`SOURCE` to ``so``, with the sha256 of the library
    appended (the loader ignores trailing bytes; :func:`intact` checks
    them).  Written under a temporary name in the same directory and then
    ``os.replace``d into place, so a concurrent loader finds either no
    file or a whole one."""
    so.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=so.parent, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["gcc", *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        with open(tmp, "r+b") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def intact(so: Path) -> bool:
    """Whether ``so`` is a whole library :func:`build` wrote.  Checked
    before ``dlopen``: a truncated library can map and then fault (SIGBUS)
    on the missing pages rather than fail to load."""
    try:
        data = so.read_bytes()
    except OSError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def load(cache: "Path | None" = None):
    """Build if needed and load the kernels from ``cache`` (default
    ``~/.cache/repro/native``, created mode 0700): ``(lib, ffi, status)``,
    with ``lib``/``ffi`` ``None`` and ``status`` the reason when they
    cannot be had, else ``status == "loaded"``.  A cached library that is
    missing or not :func:`intact` is (re)built, which needs ``gcc``."""
    try:
        import cffi
    except ImportError as exc:
        return None, None, f"cffi not importable ({exc})"
    if cache is None:
        cache = Path.home() / ".cache" / "repro" / "native"
    so = library_path(cache)
    try:
        if not intact(so):
            if shutil.which("gcc") is None:
                return None, None, "gcc not on PATH"
            build(so)
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        return ffi.dlopen(str(so)), ffi, "loaded"
    except subprocess.CalledProcessError as exc:
        err = exc.stderr.decode(errors="replace").strip().splitlines()
        # The first error names the line (a warning is one under FLAGS).
        err = [line for line in err if "error:" in line] or err
        return None, None, f"gcc failed: {err[0] if err else exc}"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, None, f"build or load failed: {exc}"


#: The loaded kernels, or ``None``: then callers run their NumPy bodies.
#: Tests set it to ``None`` to force the NumPy tier.
lib, ffi, status = load()


# ---------------------------------------------------------------------- #
# Wrappers (call only while ``lib`` is loaded)
# ---------------------------------------------------------------------- #


def _out_of_bounds(n: int, *arrays: np.ndarray) -> IndexError:
    """NumPy's error for the first index outside ``[0, n)``, searching the
    arrays in order (as ``state[gsrc]`` then ``state[gdst]`` would)."""
    for a in arrays:
        bad = np.flatnonzero((a < 0) | (a >= n))
        if bad.size:
            return IndexError(
                f"index {a[bad[0]]} is out of bounds for axis 0 with size {n}"
            )
    return IndexError(f"index out of bounds for axis 0 with size {n}")


class Held:
    """The C buffers of arrays that outlive many compiled calls — a run's
    vertex state and row arrays, a slide plan's layouts and the
    shard pieces cut from them — each converted, its dtype and contiguity
    checked, on its first call only.  An identity cache: an entry keeps
    its array alive, so an ``id`` is never reused under it, and the cache
    starts over past :attr:`LIMIT` arrays, which bounds what it keeps
    alive (1 024 entries held a run's old plans and cost 0.35 MiB of
    ``sssp_pertile``'s peak RSS).  Each algorithm's ``setup`` makes one,
    so it lives for a run; it also keeps the scratch :func:`rounds`
    marks vertices in.  Every per-call check (a shape against the state's
    length, the C loop's bounds checks) runs whatever it holds."""

    LIMIT = 64
    __slots__ = ("_bufs", "_marks")

    def __init__(self) -> None:
        self._bufs: "dict[int, tuple]" = {}
        self._marks = None

    def buffer(self, ctype: str, a: np.ndarray, dtype, writable: bool = False):
        """``a``'s buffer as ``ctype``, ``a`` being a contiguous ``dtype``
        array; ``None`` when it is not one."""
        hit = self._bufs.get(id(a))
        if hit is not None and hit[0] is a and hit[1] == ctype and (
            hit[2] or not writable
        ):
            return hit[3]
        if a.dtype != dtype or not a.flags.c_contiguous:
            return None
        buf = ffi.from_buffer(ctype, a, require_writable=writable)
        if len(self._bufs) >= self.LIMIT:
            self._bufs.clear()
        self._bufs[id(a)] = (a, ctype, writable, buf)
        return buf

    def marks(self, n: int):
        """An ``n``-byte scratch of zeros, kept: :func:`rounds` marks the
        vertices a commit listed there and clears them again."""
        marks = self._marks
        if marks is None or len(marks) != n:
            self._marks = marks = ffi.new("uint8_t[]", n)
        return marks



def _input(held, ctype: str, a: np.ndarray, dtype):
    """The read-only buffer of ``a`` as a contiguous ``dtype`` array,
    through ``held`` when it is one already, else from a converted copy."""
    buf = held.buffer(ctype, a, dtype)
    if buf is None:
        buf = ffi.from_buffer(ctype, np.ascontiguousarray(a, dtype))
    return buf


def _output(held, ctype: str, a: np.ndarray, dtype, n: int, what: str):
    """The writable buffer of a contiguous ``dtype`` array of length
    ``n``; ``ValueError`` naming ``what`` for anything else."""
    buf = held.buffer(ctype, a, dtype, writable=True)
    if buf is None or a.shape != (n,):
        raise ValueError(
            f"{what} must be {n} contiguous {np.dtype(dtype)}, got "
            f"{a.dtype}{a.shape}"
        )
    return buf


#: Per state dtype: the C suffix, the state's C array type.
_KINDS = {
    np.dtype(np.float64): ("f64", "double[]"),
    np.dtype(np.int64): ("i64", "int64_t[]"),
}


def _buf(ctype: str, a: "np.ndarray | None"):
    return ffi.NULL if a is None else ffi.from_buffer(ctype, a)


def _rows(rows: "np.ndarray | None", n: int, tile_bits: int, held: Held):
    """``(buffer, length)`` of a writable ``bool`` row array holding the
    row ``v >> tile_bits`` of every vertex ``v < n`` (``(NULL, 0)`` for
    ``None``); ``ValueError`` for one too short."""
    if rows is None:
        return ffi.NULL, 0
    buf = held.buffer("uint8_t[]", rows, np.bool_, writable=True)
    if buf is None or rows.ndim != 1 or not 0 <= tile_bits < 64 or (
        n > 0 and (n - 1) >> tile_bits >= rows.shape[0]
    ):
        raise ValueError(
            f"rows must hold the {((max(n, 1) - 1) >> tile_bits) + 1} rows "
            f"of {n} vertices at tile_bits {tile_bits} as contiguous bools, "
            f"got {rows.dtype}{rows.shape}"
        )
    return buf, rows.shape[0]


def _weights(w: "np.ndarray | None", m: int):
    """The ``(w32, w64)`` buffers of stored weights ``w`` (``NULL`` both
    for the endpoint hash)."""
    if w is None:
        return ffi.NULL, ffi.NULL
    if w.shape[0] != m:
        raise ValueError("weights and endpoints differ in length")
    if w.dtype == np.float32:
        return _buf("float[]", np.ascontiguousarray(w)), ffi.NULL
    return ffi.NULL, _buf("double[]", np.ascontiguousarray(w, np.float64))


def _tile_form(pairs, counts, sb, db):
    """The width of a tile-form batch's unsigned locals, checked against
    its counts and bases."""
    bits = 8 * pairs.itemsize
    k = counts.shape[0]
    if pairs.dtype.kind != "u" or bits not in (8, 16, 32):
        raise ValueError(f"no SNB decode of {pairs.dtype} pairs")
    if pairs.ndim != 1 or pairs.shape[0] % 2 or sb.shape != (k,) or db.shape != (k,):
        raise ValueError("payload, counts and bases do not match")
    return bits


def _tile_args(tiles, held: Held) -> tuple:
    """The C arguments ``(pairs, bits, m, counts, sb, db, k)`` of a batch
    in tile form (:class:`~repro.format.tiles.TileEdges`): the payload as
    it is, the counts and bases through ``held`` (a slide plan's layout
    and its shard pieces are converted once)."""
    pairs, counts = tiles.pairs, tiles.counts
    bits = _tile_form(pairs, counts, tiles.src_base, tiles.dst_base)
    return (
        ffi.from_buffer(f"uint{bits}_t[]", np.ascontiguousarray(pairs)), bits,
        pairs.shape[0] // 2, _input(held, "int64_t[]", counts, np.int64),
        _input(held, "uint32_t[]", tiles.src_base, VERTEX_DTYPE),
        _input(held, "uint32_t[]", tiles.dst_base, VERTEX_DTYPE),
        counts.shape[0],
    )


def _tile_error(rc: int, n: int, tiles) -> Exception:
    """The typed error of an edge kernel's return code: ``ValueError``
    for counts that do not cover the payload (-2) or rows too short (-3),
    ``MemoryError`` (-4), else NumPy's ``IndexError`` for the first
    widened endpoint not below ``n``."""
    if rc == -2:
        return ValueError(
            f"tile edge counts do not cover the payload's "
            f"{tiles.pairs.shape[0] // 2} edges"
        )
    if rc == -3:
        return ValueError("rows do not hold every vertex's row")
    if rc == -4:
        return MemoryError("no room for a relaxation round's candidates")
    return _out_of_bounds(n, *widen(tiles))


def min_commit(
    a: np.ndarray, idx: np.ndarray, vals: np.ndarray,
    rows: "np.ndarray | None" = None, tile_bits: int = 0,
    held: "Held | None" = None,
) -> None:
    """``np.minimum.at(a, idx, vals)`` for ``float64`` or ``int64`` ``a``,
    marking ``rows[v >> tile_bits]`` when ``rows`` is given for every
    ``v`` whose value strictly fell — ``rows[idx[vals < a[idx]] >>
    tile_bits] = True`` against ``a`` as it was, duplicates included.
    Every index and the rows' shape are checked before the first write.
    ``held`` keeps the buffers of the run's arrays."""
    held = Held() if held is None else held
    k = idx.shape[0]
    if vals.shape[0] != k:
        raise ValueError("indices and values differ in length")
    x, ctype = _KINDS[a.dtype]
    n = a.shape[0]
    row_buf, n_rows = _rows(rows, n, tile_bits, held)
    if k == 0:
        return
    rc = getattr(lib, f"min_commit_{x}")(
        _output(held, ctype, a, a.dtype, n, "state"), n,
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(idx, np.int64)),
        ffi.from_buffer(ctype, np.ascontiguousarray(vals, a.dtype)), k,
        row_buf, tile_bits, n_rows,
    )
    if rc:
        raise _out_of_bounds(n, idx)


def rounds(state, tiles, symmetric: bool, n_rounds: int, w=None,
           rows=None, tile_bits: int = 0, held=None) -> int:
    """The live relaxation of a batch in tile form: relax its edges
    against ``state`` as it stands and commit the strictly improving
    candidates — ``np.minimum.at``, marking ``rows[idx >> tile_bits]``
    (each candidate lowers its vertex, so :func:`min_commit`'s marks are
    every candidate's) — pass after pass, until a pass
    finds nothing or ``n_rounds`` passes have run (``n_rounds < 0``: until
    the batch's fixpoint).  Returns the passes run.  ``float64`` state is
    SSSP's (``state[s] + w``; ``w`` the stored ``float32``/``float64``
    weights in edge order, or ``None``: then the endpoint hash of the
    widened endpoints, computed in the loop); ``int64`` state is
    AsyncBFS's (``state[s] + 1``, ``w`` stays ``None``).  Forward
    candidates are in edge order, then the mirrored ones on symmetric
    storage.

    Every pass after the first relaxes only the edges with an endpoint
    the commit before it listed (marked in a ``len(state)``-byte scratch
    ``held`` keeps, which one pass does without): an edge of two
    endpoints that commit left alone can offer nothing new, so each pass
    finds the full pass's candidates in its order.  ``IndexError`` on a widened endpoint not below
    ``len(state)`` and ``ValueError`` on counts that do not cover the
    payload or rows too short, before anything is written."""
    held = Held() if held is None else held
    x, ctype = _KINDS[state.dtype]
    n = state.shape[0]
    args = _tile_args(tiles, held)
    row_buf, n_rows = _rows(rows, n, tile_bits, held)
    passes = getattr(lib, f"rounds_{x}")(
        _output(held, ctype, state, state.dtype, n, "state"), n, *args,
        bool(symmetric), *_weights(w, args[2]), row_buf, tile_bits, n_rows,
        n_rounds, ffi.NULL if n_rounds == 1 else held.marks(n),
    )
    if passes < 0:
        raise _tile_error(passes, n, tiles)
    return passes


def _bools(a: np.ndarray, n: int, held: Held):
    """The read-only buffer of a ``bool`` vertex mask of length ``n``."""
    if a.dtype != np.bool_ or a.shape != (n,):
        raise ValueError(f"mask must be {n} bools, got {a.dtype}{a.shape}")
    return _input(held, "uint8_t[]", a, np.bool_)


def discover_bfs(depth, tiles, symmetric: bool, level: int,
                 held=None) -> np.ndarray:
    """BFS's discovery pass over a batch in tile form against ``uint32``
    ``depth`` (read-only): the targets of edges from a vertex at ``level``
    to an unvisited one, forward ones in edge order, then the mirrored
    ones on symmetric storage, as ``int64``.  Errors as
    :func:`rounds`."""
    held = Held() if held is None else held
    if depth.dtype != np.uint32:
        raise ValueError(f"depth must be uint32, got {depth.dtype}")
    n = depth.shape[0]
    args = _tile_args(tiles, held)
    m = args[2]
    out = np.empty(2 * m if symmetric else m, np.int64)
    k = lib.discover_bfs(
        _input(held, "uint32_t[]", depth, np.uint32), n, *args,
        bool(symmetric), int(level), ffi.from_buffer("int64_t[]", out),
    )
    if k < 0:
        raise _tile_error(k, n, tiles)
    return out[:k]


def discover_reach(frontier, allowed, visited, tiles, symmetric: bool,
                   backward: bool = False, held=None) -> np.ndarray:
    """Reachability's discovery pass over a batch in tile form against its
    ``bool`` masks (read-only): the targets of edges from a ``frontier``
    vertex to one ``allowed`` and not ``visited`` — each edge taken as
    ``(dst, src)`` when ``backward`` — forward ones in edge order, then
    the mirrored ones on symmetric storage, as ``int64``.  Errors as
    :func:`rounds`."""
    held = Held() if held is None else held
    n = frontier.shape[0]
    masks = [_bools(a, n, held) for a in (frontier, allowed, visited)]
    args = _tile_args(tiles, held)
    m = args[2]
    out = np.empty(2 * m if symmetric else m, np.int64)
    k = lib.discover_reach(
        *masks, n, *args, bool(symmetric), bool(backward),
        ffi.from_buffer("int64_t[]", out),
    )
    if k < 0:
        raise _tile_error(k, n, tiles)
    return out[:k]


def commit_level(depth, idx, level: int, rows=None, tile_bits: int = 0,
                 held=None) -> int:
    """BFS's commit: ``depth[idx] = level`` on ``uint32`` ``depth``,
    marking ``rows[idx >> tile_bits]`` when ``rows`` is given; returns how
    many vertices were not at ``level`` before — each counted once,
    however often ``idx`` lists it.  Every index and the rows' shape are
    checked before the first write."""
    held = Held() if held is None else held
    n = depth.shape[0]
    row_buf, n_rows = _rows(rows, n, tile_bits, held)
    k = lib.commit_level(
        _output(held, "uint32_t[]", depth, np.uint32, n, "depth"), n,
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(idx, np.int64)),
        idx.shape[0], int(level), row_buf, tile_bits, n_rows,
    )
    if k < 0:
        raise _out_of_bounds(n, idx)
    return k


def scatter_add(fwd, x, tiles, bwd=None, held=None) -> None:
    """The scatter kernels' commit straight from a batch in tile form
    (:class:`~repro.format.tiles.TileEdges`): edge by edge,
    ``fwd[t] += x[s]``, each followed, when ``bwd`` is given, by
    ``bwd[s] += x[t]`` — ``bwd`` may be ``fwd`` itself (symmetric
    storage's mirrored add).  ``fwd``, ``bwd`` and ``x`` are contiguous
    ``float64`` of one length ``n``.  Everything is checked before the
    first add, so the accumulators are untouched on a ``ValueError``
    (counts that do not cover the payload) or an ``IndexError`` (a
    widened endpoint not below ``n``).  ``held`` (a :class:`Held`) keeps
    the buffers of the state and the counts and bases across calls."""
    held = Held() if held is None else held
    n = fwd.shape[0]
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    args = _tile_args(tiles, held)
    acc = _output(held, "double[]", fwd, np.float64, n, "accumulator")
    rc = lib.scatter_add(
        acc, ffi.NULL if bwd is None else
        acc if bwd is fwd else
        _output(held, "double[]", bwd, np.float64, n, "accumulator"), n,
        _input(held, "double[]", x, np.float64), *args,
    )
    if rc:
        raise _tile_error(rc, n, tiles)


def pagerank_end(acc, old, teleport, dangling_mass: float, damping: float,
                 held=None) -> None:
    """PageRank's end-of-iteration vertex pass in one loop: ``acc`` becomes
    the new ranks, ``(1 - d)/n + d·(acc + dangling/n)`` (with a
    ``teleport`` distribution ``t``: ``(1 - d)·t + d·(acc + dangling·t)``),
    and ``old``, the old ranks, becomes ``|new - old|`` — each element by
    the operations of NumPy's out-of-place formula, in its order.  All
    three are contiguous ``float64`` of one length, ``acc`` and ``old``
    distinct; checked before the first write.  ``held`` as for
    :func:`scatter_add`."""
    held = Held() if held is None else held
    n = acc.shape[0]
    if old is acc:
        raise ValueError("the new and old ranks must be distinct arrays")
    new_buf = _output(held, "double[]", acc, np.float64, n, "accumulator")
    old_buf = _output(held, "double[]", old, np.float64, n, "accumulator")
    if teleport is None:
        t_buf, a, c = ffi.NULL, dangling_mass / n, (1.0 - damping) / n
    else:
        if teleport.shape != (n,):
            raise ValueError(
                f"teleport must have shape ({n},), got {teleport.shape}"
            )
        t_buf = _input(held, "double[]", teleport, np.float64)
        a, c = dangling_mass, 1.0 - damping
    lib.pagerank_end(new_buf, old_buf, t_buf, n, a, damping, c)


def widen(tiles) -> "tuple[np.ndarray, np.ndarray]":
    """The SNB decode in one pass: a batch in tile form
    (:class:`~repro.format.tiles.TileEdges`) to two contiguous
    ``VERTEX_DTYPE`` arrays of global IDs, tile ``j``'s bases added to its
    locals with ``uint32`` wraparound.  ``ValueError`` unless the counts
    cover the payload exactly."""
    args = _tile_args(tiles, Held())
    m = args[2]
    gsrc = np.empty(m, VERTEX_DTYPE)
    gdst = np.empty(m, VERTEX_DTYPE)
    if lib.widen(*args, ffi.from_buffer("uint32_t[]", gsrc),
                 ffi.from_buffer("uint32_t[]", gdst)):
        raise ValueError(
            f"tile edge counts do not cover the payload's {m} edges"
        )
    return gsrc, gdst


def _edges(src, dst, pos_grid, weights):
    """The encoders' contiguous inputs: ``VERTEX_DTYPE`` endpoints, the
    ``int64`` grid and the ``float32`` weights (or ``None``)."""
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
    grid = np.ascontiguousarray(pos_grid, dtype=np.int64)
    m = src.shape[0]
    if dst.shape != (m,) or grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError("endpoints differ in length or the grid is not square")
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float32)
        if weights.shape != (m,):
            raise ValueError("weights and endpoints differ in length")
    return src, dst, grid, weights


def _payload_bits(dtype, snb: bool, tile_bits: int) -> int:
    """The width of a payload of ``dtype`` IDs, which must hold them."""
    dtype = np.dtype(dtype)
    bits = 8 * dtype.itemsize
    if dtype.kind != "u" or bits not in (8, 16, 32) or (
        bits < tile_bits if snb else bits != 32
    ):
        raise ValueError(
            f"no {'SNB' if snb else 'global'} payload of {dtype} at "
            f"tile_bits {tile_bits}"
        )
    return bits


def _encode_error(src, dst, n_vertices: int, grid, n_tiles: int,
                  tile_bits: int) -> FormatError:
    """What an encoder's -1 was: the first endpoint not below
    ``n_vertices`` (named), else a grid that does not fit the graph."""
    return endpoint_error(src, dst, n_vertices) or FormatError(
        f"a {grid.shape[0]}-row position grid of {n_tiles} tiles does not "
        f"cover {n_vertices} vertices at tile_bits {tile_bits}"
    )


def by_position(src, dst, n_vertices: int, pos_grid, n_tiles: int,
                tile_bits: int, dtype, snb: bool, weights=None):
    """The encoder of directed inputs and the ``symmetric=False``
    ablation: a stable counting sort of the edges by disk position
    ``pos_grid[src >> tile_bits, dst >> tile_bits]``, two passes and no
    permutation.  Returns ``(start, payload, weights)`` — the ``int64``
    start-edge offsets of the ``n_tiles`` tiles, the interleaved ``dtype``
    payload (in-tile IDs, or global ones when ``snb`` is false) and the
    ``float32`` weights in disk order (``None`` when unweighted), the
    input's order kept inside every tile.  :class:`FormatError`, before
    anything is written, naming the first endpoint not below
    ``n_vertices``, or for a grid entry outside the tiles."""
    src, dst, grid, weights = _edges(src, dst, pos_grid, weights)
    bits = _payload_bits(dtype, snb, tile_bits)
    m = src.shape[0]
    start = np.empty(max(n_tiles, 0) + 1, np.int64)
    payload = np.empty(2 * m, dtype)
    w_out = None if weights is None else np.empty(m, np.float32)
    rc = lib.by_position(
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        m, n_vertices, ffi.from_buffer("int64_t[]", grid), grid.shape[0],
        n_tiles, tile_bits, bool(snb), bits, _buf("float[]", weights),
        ffi.from_buffer("uint32_t[]", np.empty(m, np.uint32)),
        ffi.from_buffer("int64_t[]", start), ffi.from_buffer(payload),
        _buf("float[]", w_out),
    )
    if rc:
        raise _encode_error(src, dst, n_vertices, grid, n_tiles, tile_bits)
    return start, payload, w_out


def key_buckets(n_tiles: int, tile_bits: int) -> "tuple[int, int]":
    """The symmetric encoder's bucket rule, ``(shift, n_buckets)``: a key
    ``pos << 2·tile_bits | lsrc << tile_bits | ldst`` of ``n_tiles`` tiles'
    keys is in bucket ``key >> shift``, ``shift = max(32, bits(largest
    key) − 8)``, so there are at most 256 buckets (``uint8`` ids).  The
    word a bucket holds of a key, its low ``shift`` bits, is ``uint32`` at
    ``shift`` 32 and ``uint64`` above (:func:`word_dtype`)."""
    if not 1 <= tile_bits <= 32 or n_tiles < 1:
        raise ValueError(
            f"no keys of {n_tiles} tiles at tile_bits {tile_bits}"
        )
    top = (n_tiles - 1) << 2 * tile_bits | (1 << 2 * tile_bits) - 1
    shift = max(32, top.bit_length() - 8)
    return shift, (top >> shift) + 1


def word_dtype(shift: int) -> np.dtype:
    """The dtype of a bucket's words at ``shift`` (:func:`key_buckets`)."""
    return np.dtype(np.uint32 if shift == 32 else np.uint64)


def bucket_upper(src, dst, n_vertices: int, pos_grid, n_tiles: int,
                 tile_bits: int, weights=None):
    """The symmetric encoder's bucket passes: every non-loop edge's key
    ``pos << 2·tile_bits | lsrc << tile_bits | ldst`` (``lsrc``/``ldst``
    the in-tile IDs of its smaller and larger endpoint, ``pos =
    pos_grid[lo >> tile_bits, hi >> tile_bits]``), bucketed by
    :func:`key_buckets`.  Returns ``(words, offsets, shift, weights)``:
    bucket ``b`` is ``words[offsets[b]:offsets[b + 1]]``, its keys' low
    ``shift`` bits in input order, and the kept edges' ``float32``
    weights run alongside (``None`` when unweighted).  Errors as
    :func:`by_position`."""
    src, dst, grid, weights = _edges(src, dst, pos_grid, weights)
    shift, nb = key_buckets(n_tiles, tile_bits)
    word = word_dtype(shift)
    m = src.shape[0]
    words = np.empty(m, word)
    offsets = np.empty(nb + 1, np.int64)
    w_out = None if weights is None else np.empty(m, np.float32)
    k = lib.bucket_upper(
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        m, n_vertices, ffi.from_buffer("int64_t[]", grid), grid.shape[0],
        n_tiles, tile_bits, shift, nb, _buf("float[]", weights),
        ffi.from_buffer(np.empty(m, word)),
        ffi.from_buffer("uint8_t[]", np.empty(m, np.uint8)),
        _buf("float[]", None if weights is None else np.empty(m, np.float32)),
        ffi.from_buffer(words), _buf("float[]", w_out),
        ffi.from_buffer("int64_t[]", offsets),
    )
    if k < 0:
        raise _encode_error(src, dst, n_vertices, grid, n_tiles, tile_bits)
    return words[:k], offsets, shift, None if w_out is None else w_out[:k]


def unpack_buckets(words, offsets, shift: int, tile_rows, tile_cols,
                   tile_bits: int, n_vertices: int, dtype, snb: bool,
                   weights=None):
    """The symmetric encoder's unpack: the buckets of
    :func:`bucket_upper`, each sorted, to ``(start, payload, degrees,
    weights)`` — the ``int64`` start-edge offsets of the
    ``len(tile_rows)`` tiles, the interleaved ``dtype`` payload (in-tile
    IDs, or global ones when ``snb`` is false), each vertex's ``uint32``
    count of stored edge endpoints, and the weights of the stored edges
    (``None`` when unweighted) — a repeated key stored once, with the
    weight of its first.  A check pass counts the distinct keys, and the
    write pass fills outputs of exactly that size.  ``ValueError``, before
    anything is allocated, unless the words ascend within their buckets
    and name tiles and vertices of the graph."""
    bits = _payload_bits(dtype, snb, tile_bits)
    word = word_dtype(shift)
    if words.dtype != word:
        raise ValueError(
            f"words must be {word} at shift {shift}, got {words.dtype}"
        )
    words = np.ascontiguousarray(words)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    rows = np.ascontiguousarray(tile_rows, dtype=np.int64)
    cols = np.ascontiguousarray(tile_cols, dtype=np.int64)
    n_tiles, k = rows.shape[0], words.shape[0]
    if cols.shape != (n_tiles,) or offsets.ndim != 1 or offsets.shape[0] < 2:
        raise ValueError(
            "tile rows and columns differ in length, or there is no bucket"
        )
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float32)
        if weights.shape != (k,):
            raise ValueError("weights and words differ in length")
    args = (
        ffi.from_buffer(words), k, ffi.from_buffer("int64_t[]", offsets),
        offsets.shape[0] - 1, shift, tile_bits,
        ffi.from_buffer("int64_t[]", rows), ffi.from_buffer("int64_t[]", cols),
        n_tiles, n_vertices, bool(snb), bits, _buf("float[]", weights),
    )
    d = lib.unpack_buckets(*args, 0, ffi.NULL, ffi.NULL, ffi.NULL, ffi.NULL)
    if d < 0:
        raise ValueError(
            "words do not ascend in their buckets or name a tile or vertex "
            "outside the graph"
        )
    payload = np.empty(2 * d, dtype)
    start = np.empty(n_tiles + 1, np.int64)
    deg = np.zeros(n_vertices, np.uint32)
    w_out = None if weights is None else np.empty(d, np.float32)
    if lib.unpack_buckets(
        *args, d, ffi.from_buffer(payload),
        ffi.from_buffer("int64_t[]", start),
        ffi.from_buffer("uint32_t[]", deg), _buf("float[]", w_out),
    ) != d:
        raise ValueError("the buckets changed between the unpack's passes")
    return start, payload, deg, w_out


#: The CRC32C bodies of :func:`crc32c_extents` by name: ``"best"`` is
#: SSE4.2 where the CPU has it, else slicing-by-8.
CRC_BODIES = {"best": 0, "slicing-by-8": 1, "sse4.2": 2}


def crc32c_bodies() -> "list[str]":
    """The CRC32C bodies this CPU can run (SSE4.2 only where it has it)."""
    return ["slicing-by-8"] + (["sse4.2"] if lib.crc32c_sse42() else [])


def crc32c_extents(buf, offsets, sizes, body: str = "best") -> np.ndarray:
    """CRC32C of every byte extent ``buf[offsets[k] : offsets[k] +
    sizes[k]]`` of a C-contiguous buffer, as ``uint32`` (what
    :func:`repro.faults.crc.crc32c_extents` returns).  ``ValueError``,
    before any checksum is computed, for an extent outside the buffer."""
    data = np.frombuffer(buf, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape or offsets.ndim != 1:
        raise ValueError("offsets and sizes must be equal-length 1-D arrays")
    n = offsets.shape[0]
    out = np.empty(n, dtype=np.uint32)
    if not n:
        return out
    rc = lib.crc32c_extents(
        ffi.from_buffer("uint8_t[]", data), data.shape[0],
        ffi.from_buffer("int64_t[]", offsets), ffi.from_buffer("int64_t[]", sizes),
        n, ffi.from_buffer("uint32_t[]", out), CRC_BODIES[body],
    )
    if rc == -2:
        raise ValueError("this CPU has no SSE4.2 crc32 instruction")
    if rc:
        raise ValueError(f"extent outside the {data.shape[0]}-byte buffer")
    return out
