"""The compiled kernel tier: min-relaxations, BFS and reachability
discovery, the scatter-add, the SNB decode, and the write path's tile
encoder and checksums, in C.

SSSP's and AsyncBFS's relaxations and the min-commits of SSSP, AsyncBFS
and CC (:func:`candidates`, :func:`rounds`, :func:`min_commit`), BFS's and
Reachability's discovery passes (:func:`discover_bfs`,
:func:`discover_reach`), the commit of PageRank, SpMV and SCC's degrees
straight from a batch's SNB payload (:func:`scatter_add`), PageRank's
end-of-iteration vertex pass (:func:`pagerank_end`), the widening
of SNB tile payloads into global IDs (:func:`widen`, behind
``TileEdges.widen``, for the kernels that read them), the symmetric tile
encoder's key build and unpack (:func:`upper_keys`, :func:`unpack_keys`,
around the NumPy sort in ``TiledGraph.from_edge_list``) and the per-tile
CRC32C (:func:`crc32c_extents`, behind ``repro.faults.crc``: SSE4.2's
``crc32`` instruction where the CPU has it, else slicing-by-8 tables
built when the library loads) each run as one loop of one C file.

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

The wrappers below take what the NumPy bodies take.  Endpoints reach C as
contiguous ``VERTEX_DTYPE`` — the decoder's arrays pass through, any other
integer array is range-checked and converted once — and every entry point
checks each endpoint or index against the state's length before it
touches memory there, so a corrupt endpoint raises NumPy's own
``IndexError`` instead of reading out of bounds; the decode and the
scatter check that the tiles' edge counts cover the payload before their
first write.  The
write-path kernels check their whole input first too — endpoints against
``n_vertices`` (a :class:`~repro.errors.FormatError` naming the first bad
one), tile positions against the tile count, checksum extents against the
buffer — and raise typed before their first write.
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
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c11")

CDEF = "".join(
    f"""
int min_commit_{x}({t} *, int64_t, const int64_t *, const {t} *, int64_t,
                  uint8_t *);
int64_t candidates_{x}(const {t} *, int64_t, const uint32_t *,
                       const uint32_t *, int64_t, int, const float *,
                       const double *, float *, int64_t *, {t} *);
int rounds_{x}({t} *, int64_t, const uint32_t *, const uint32_t *, int64_t,
               int, const float *, const double *, const int64_t *,
               const {t} *, int64_t, uint8_t *, int64_t);
"""
    for x, t in (("f64", "double"), ("i64", "int64_t"))
) + """
int64_t discover_bfs(const uint32_t *, int64_t, const uint32_t *,
                     const uint32_t *, int64_t, int, uint32_t, int64_t *);
int64_t discover_reach(const uint8_t *, const uint8_t *, const uint8_t *,
                       int64_t, const uint32_t *, const uint32_t *, int64_t,
                       int, int64_t *);
int scatter_add(double *, double *, int64_t, const double *, const void *,
                int, int64_t, const int64_t *, const uint32_t *,
                const uint32_t *, int64_t);
void pagerank_end(double *, double *, const double *, int64_t, double, double,
                  double);
""" + "".join(
    f"""
int widen_{x}(const {t} *, int64_t, const int64_t *, const uint32_t *,
              const uint32_t *, int64_t, uint32_t *, uint32_t *);
"""
    for x, t in (("u8", "uint8_t"), ("u16", "uint16_t"), ("u32", "uint32_t"))
) + """
int64_t upper_keys(const uint32_t *, const uint32_t *, int64_t, int64_t,
                   const int64_t *, int64_t, int64_t, int, const float *,
                   uint64_t *, float *);
""" + "".join(
    f"""
int unpack_{x}(const uint64_t *, int64_t, int, const int64_t *,
               const int64_t *, int64_t, int64_t, int, {t} *, int64_t *,
               uint32_t *);
"""
    for x, t in (("u8", "uint8_t"), ("u16", "uint16_t"), ("u32", "uint32_t"))
) + """
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
        return None, None, f"gcc failed: {err[-1] if err else exc}"
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


def _vertex_ids(n: int, gsrc: np.ndarray, gdst: np.ndarray):
    """The endpoints as contiguous ``VERTEX_DTYPE``: passed through when
    they already are, else range-checked against ``n`` and converted once
    (a negative ID is out of range here, not wrapped)."""
    if gsrc.shape != gdst.shape:
        raise ValueError("endpoint arrays differ in length")
    if gsrc.dtype == gdst.dtype == VERTEX_DTYPE and (
        gsrc.flags.c_contiguous and gdst.flags.c_contiguous
    ):
        return gsrc, gdst
    for a in (gsrc, gdst):
        if a.size and (a.min() < 0 or a.max() >= n):
            raise _out_of_bounds(n, gsrc, gdst)
    return (np.ascontiguousarray(gsrc, dtype=VERTEX_DTYPE),
            np.ascontiguousarray(gdst, dtype=VERTEX_DTYPE))


#: Per state dtype: the C suffix, the state's C array type.
_KINDS = {
    np.dtype(np.float64): ("f64", "double[]"),
    np.dtype(np.int64): ("i64", "int64_t[]"),
}


def _buf(ctype: str, a: "np.ndarray | None"):
    return ffi.NULL if a is None else ffi.from_buffer(ctype, a)


def _flags(flags: "np.ndarray | None", n: int):
    """The writable buffer of a ``bool`` flag array over all ``n`` vertices
    (``NULL`` for ``None``)."""
    if flags is None:
        return ffi.NULL
    if flags.dtype != np.bool_ or flags.shape != (n,):
        raise ValueError(f"flags must be {n} bools, got {flags.dtype}{flags.shape}")
    return ffi.from_buffer("uint8_t[]", flags, require_writable=True)


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


def min_commit(
    a: np.ndarray, idx: np.ndarray, vals: np.ndarray,
    flags: "np.ndarray | None" = None,
) -> None:
    """``np.minimum.at(a, idx, vals)``, then ``flags[idx] = True`` when
    ``flags`` is given, for ``float64`` or ``int64`` ``a``."""
    k = idx.shape[0]
    if vals.shape[0] != k:
        raise ValueError("indices and values differ in length")
    if k == 0:
        return
    x, ctype = _KINDS[a.dtype]
    n = a.shape[0]
    rc = getattr(lib, f"min_commit_{x}")(
        ffi.from_buffer(ctype, a, require_writable=True), n,
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(idx, np.int64)),
        ffi.from_buffer(ctype, np.ascontiguousarray(vals, a.dtype)), k,
        _flags(flags, n),
    )
    if rc:
        raise _out_of_bounds(n, idx)


def candidates(state, gsrc, gdst, symmetric: bool, w=None):
    """One relaxation pass against ``state`` (read-only): the partial
    ``(idx, vals, gsrc, gdst, w)`` of strictly improving candidates,
    forward ones in edge order, then the mirrored ones on symmetric
    storage.  ``float64`` state is SSSP's (``state[s] + w``; ``w`` the
    stored ``float32``/``float64`` weights, or ``None``: then the endpoint
    hash is derived in the pass and returned as ``float32``); ``int64``
    state is AsyncBFS's (``state[s] + 1``, ``w`` stays ``None``)."""
    x, ctype = _KINDS[state.dtype]
    n = state.shape[0]
    src, dst = _vertex_ids(n, gsrc, gdst)
    m = src.shape[0]
    w_out = None
    if w is None and x == "f64":
        w = w_out = np.empty(m, np.float32)
        w32 = w64 = ffi.NULL
    else:
        w32, w64 = _weights(w, m)
    cap = 2 * m if symmetric else m
    idx = np.empty(cap, np.int64)
    vals = np.empty(cap, state.dtype)
    k = getattr(lib, f"candidates_{x}")(
        ffi.from_buffer(ctype, np.ascontiguousarray(state)), n,
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        m, bool(symmetric), w32, w64, _buf("float[]", w_out),
        ffi.from_buffer("int64_t[]", idx), ffi.from_buffer(ctype, vals),
    )
    if k < 0:
        raise _out_of_bounds(n, src, dst)
    return idx[:k], vals[:k], src, dst, w


def rounds(state, gsrc, gdst, symmetric: bool, idx, vals, changed,
           n_rounds: int, w=None) -> None:
    """Commit the candidates ``(idx, vals)`` into ``state`` (flagging
    ``changed``), then relax the shard against the committed state and
    commit again, ``n_rounds`` times or — ``n_rounds < 0`` — until no
    candidate is left.  Types as in :func:`candidates`."""
    x, ctype = _KINDS[state.dtype]
    n = state.shape[0]
    src, dst = _vertex_ids(n, gsrc, gdst)
    k = idx.shape[0]
    if vals.shape[0] != k:
        raise ValueError("indices and values differ in length")
    rc = getattr(lib, f"rounds_{x}")(
        ffi.from_buffer(ctype, state, require_writable=True), n,
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        src.shape[0], bool(symmetric), *_weights(w, src.shape[0]),
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(idx, np.int64)),
        ffi.from_buffer(ctype, np.ascontiguousarray(vals, state.dtype)), k,
        _flags(changed, n), n_rounds,
    )
    if rc == -2:
        raise MemoryError("no room for a relaxation round's candidates")
    if rc:
        raise _out_of_bounds(n, idx, src, dst)


def _bools(a: np.ndarray, n: int):
    """The read-only buffer of a ``bool`` vertex mask of length ``n``."""
    if a.dtype != np.bool_ or a.shape != (n,):
        raise ValueError(f"mask must be {n} bools, got {a.dtype}{a.shape}")
    return ffi.from_buffer("uint8_t[]", np.ascontiguousarray(a))


def discover_bfs(depth, gsrc, gdst, symmetric: bool, level: int) -> np.ndarray:
    """BFS's discovery pass against ``uint32`` ``depth`` (read-only): the
    targets of edges from a vertex at ``level`` to an unvisited one, forward
    ones in edge order, then the mirrored ones on symmetric storage, as
    ``int64``."""
    if depth.dtype != np.uint32:
        raise ValueError(f"depth must be uint32, got {depth.dtype}")
    n = depth.shape[0]
    src, dst = _vertex_ids(n, gsrc, gdst)
    m = src.shape[0]
    out = np.empty(2 * m if symmetric else m, np.int64)
    k = lib.discover_bfs(
        ffi.from_buffer("uint32_t[]", np.ascontiguousarray(depth)), n,
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        m, bool(symmetric), int(level), ffi.from_buffer("int64_t[]", out),
    )
    if k < 0:
        raise _out_of_bounds(n, src, dst)
    return out[:k]


def discover_reach(frontier, allowed, visited, gsrc, gdst,
                   symmetric: bool) -> np.ndarray:
    """Reachability's discovery pass against its ``bool`` masks
    (read-only): the targets of edges from a ``frontier`` vertex to one
    ``allowed`` and not ``visited``, forward ones in edge order, then the
    mirrored ones on symmetric storage, as ``int64``.  A backward sweep
    swaps ``gsrc`` and ``gdst``."""
    n = frontier.shape[0]
    masks = [_bools(a, n) for a in (frontier, allowed, visited)]
    src, dst = _vertex_ids(n, gsrc, gdst)
    m = src.shape[0]
    out = np.empty(2 * m if symmetric else m, np.int64)
    k = lib.discover_reach(
        *masks, n,
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        m, bool(symmetric), ffi.from_buffer("int64_t[]", out),
    )
    if k < 0:
        raise _out_of_bounds(n, src, dst)
    return out[:k]


class Held:
    """The C buffers of arrays that outlive many compiled calls — a run's
    vertex state, a slide plan's layout — each converted, its dtype and
    contiguity checked, on its first call only.  An identity cache: an
    entry keeps its array alive, so an ``id`` is never reused under it,
    and the cache starts over past :attr:`LIMIT` arrays (a slide plan's
    layouts and the state of a run fit).  Each algorithm's ``setup`` makes
    one, so it lives for a run.  Every per-call check (a shape against
    the state's length, the C loop's bounds checks) runs whatever it
    holds."""

    LIMIT = 64
    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: "dict[int, tuple]" = {}

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


def _input(held, ctype: str, a: np.ndarray, dtype):
    """The read-only buffer of ``a`` as a contiguous ``dtype`` array,
    through ``held`` when it is one already, else from a converted copy."""
    buf = held.buffer(ctype, a, dtype)
    if buf is None:
        buf = ffi.from_buffer(ctype, np.ascontiguousarray(a, dtype))
    return buf


def _accumulator(acc: np.ndarray, n: int, held: Held):
    """The writable buffer of a contiguous ``float64`` array of length
    ``n``."""
    buf = held.buffer("double[]", acc, np.float64, writable=True)
    if buf is None or acc.shape != (n,):
        raise ValueError(
            f"accumulator must be {n} contiguous float64, got {acc.dtype}{acc.shape}"
        )
    return buf


def _tile_form(pairs, counts, sb, db):
    """The width of a tile-form batch's unsigned locals, checked against
    its counts and bases."""
    bits = 8 * pairs.itemsize
    k = counts.shape[0]
    if pairs.dtype.kind != "u" or bits not in (8, 16, 32):
        raise ValueError(f"no SNB decode of {pairs.dtype} pairs")
    if pairs.shape[0] % 2 or sb.shape != (k,) or db.shape != (k,):
        raise ValueError("payload, counts and bases do not match")
    return bits


def scatter_add(fwd, x, pairs, counts, sb, db, bwd=None, held=None) -> None:
    """The scatter kernels' commit straight from a batch in tile form:
    the interleaved unsigned local ``(src, dst)`` pairs of tiles holding
    ``counts`` edges each, each endpoint widened as :func:`widen` widens
    it (tile ``j``'s bases ``sb[j]``/``db[j]`` added with ``uint32``
    wraparound).  Edge by edge, ``fwd[t] += x[s]``, each followed, when
    ``bwd`` is given, by ``bwd[s] += x[t]`` — ``bwd`` may be ``fwd``
    itself (symmetric storage's mirrored add).  ``fwd``, ``bwd`` and ``x``
    are contiguous ``float64`` of one length ``n``.  Everything is checked
    before the first add, so the accumulators are untouched on a
    ``ValueError`` (counts that do not cover the payload) or an
    ``IndexError`` (a widened endpoint not below ``n``).  ``held`` (a
    :class:`Held`) keeps the buffers of the state and the counts and
    bases across calls."""
    held = Held() if held is None else held
    n = fwd.shape[0]
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    bits = _tile_form(pairs, counts, sb, db)
    m = pairs.shape[0] // 2
    acc = _accumulator(fwd, n, held)
    rc = lib.scatter_add(
        acc, ffi.NULL if bwd is None else
        acc if bwd is fwd else _accumulator(bwd, n, held), n,
        _input(held, "double[]", x, np.float64),
        ffi.from_buffer(f"uint{bits}_t[]", np.ascontiguousarray(pairs)), bits,
        m, _input(held, "int64_t[]", counts, np.int64),
        _input(held, "uint32_t[]", sb, VERTEX_DTYPE),
        _input(held, "uint32_t[]", db, VERTEX_DTYPE),
        counts.shape[0],
    )
    if rc == -2:
        raise ValueError(
            f"tile edge counts do not cover the payload's {m} edges"
        )
    if rc:
        raise _out_of_bounds(n, *widen(pairs, counts, sb, db))


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
    new_buf = _accumulator(acc, n, held)
    old_buf = _accumulator(old, n, held)
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


def widen(pairs: np.ndarray, counts: np.ndarray, sb: np.ndarray,
          db: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The SNB decode in one pass: the interleaved unsigned local ``(src,
    dst)`` pairs (``uint8``, ``uint16`` or ``uint32``) of tiles holding
    ``counts`` edges each, to two contiguous ``VERTEX_DTYPE`` arrays of
    global IDs, tile ``j``'s bases ``sb[j]``/``db[j]`` added with
    ``uint32`` wraparound.  ``ValueError`` unless the counts cover the
    payload exactly."""
    bits = _tile_form(pairs, counts, sb, db)
    k = counts.shape[0]
    m = pairs.shape[0] // 2
    gsrc = np.empty(m, VERTEX_DTYPE)
    gdst = np.empty(m, VERTEX_DTYPE)
    rc = getattr(lib, f"widen_u{bits}")(
        ffi.from_buffer(f"uint{bits}_t[]", np.ascontiguousarray(pairs)), m,
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(counts, np.int64)),
        ffi.from_buffer("uint32_t[]", np.ascontiguousarray(sb, VERTEX_DTYPE)),
        ffi.from_buffer("uint32_t[]", np.ascontiguousarray(db, VERTEX_DTYPE)),
        k, ffi.from_buffer("uint32_t[]", gsrc),
        ffi.from_buffer("uint32_t[]", gdst),
    )
    if rc:
        raise ValueError(
            f"tile edge counts do not cover the payload's {m} edges"
        )
    return gsrc, gdst


def upper_keys(src, dst, n_vertices: int, pos_grid, n_tiles: int,
               tile_bits: int, weights=None):
    """The symmetric tile encoder's key build: one ``uint64`` key ``pos <<
    2·tile_bits | lsrc << tile_bits | ldst`` per non-loop edge in input
    order (``pos = pos_grid[lo >> tile_bits, hi >> tile_bits]``), and the
    kept edges' ``float32`` weights (``None`` when unweighted), as
    ``TiledGraph``'s NumPy body builds them.  :class:`FormatError` naming
    the first endpoint not below ``n_vertices``."""
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
    key = np.empty(m, np.uint64)
    w_out = None if weights is None else np.empty(m, np.float32)
    k = lib.upper_keys(
        ffi.from_buffer("uint32_t[]", src), ffi.from_buffer("uint32_t[]", dst),
        m, n_vertices, ffi.from_buffer("int64_t[]", grid), grid.shape[0],
        n_tiles, tile_bits, _buf("float[]", weights),
        ffi.from_buffer("uint64_t[]", key), _buf("float[]", w_out),
    )
    if k < 0:
        raise endpoint_error(src, dst, n_vertices) or FormatError(
            f"a {grid.shape[0]}-row position grid of {n_tiles} tiles does "
            f"not cover {n_vertices} vertices at tile_bits {tile_bits}"
        )
    return key[:k], None if w_out is None else w_out[:k]


def unpack_keys(key, tile_rows, tile_cols, tile_bits: int, n_vertices: int,
                dtype, snb: bool):
    """The symmetric tile encoder's unpack: ascending distinct keys of
    :func:`upper_keys` to ``(start, payload, degrees)`` — the ``int64``
    start-edge offsets of the ``len(tile_rows)`` tiles, the interleaved
    ``dtype`` payload (in-tile IDs, or global ones when ``snb`` is false)
    and each vertex's ``uint32`` count of stored edge endpoints.
    ``ValueError`` unless the keys ascend and name tiles and vertices of
    the graph."""
    dtype = np.dtype(dtype)
    bits = 8 * dtype.itemsize
    if dtype.kind != "u" or bits not in (8, 16, 32) or not (snb or bits == 32):
        raise ValueError(f"no {'SNB' if snb else 'global'} payload of {dtype}")
    key = np.ascontiguousarray(key, dtype=np.uint64)
    rows = np.ascontiguousarray(tile_rows, dtype=np.int64)
    cols = np.ascontiguousarray(tile_cols, dtype=np.int64)
    n_tiles = rows.shape[0]
    if cols.shape != (n_tiles,):
        raise ValueError("tile rows and columns differ in length")
    k = key.shape[0]
    payload = np.empty(2 * k, dtype)
    start = np.empty(n_tiles + 1, np.int64)
    deg = np.zeros(n_vertices, np.uint32)
    rc = getattr(lib, f"unpack_u{bits}")(
        ffi.from_buffer("uint64_t[]", key), k, tile_bits,
        ffi.from_buffer("int64_t[]", rows), ffi.from_buffer("int64_t[]", cols),
        n_tiles, n_vertices, bool(snb), ffi.from_buffer(f"uint{bits}_t[]", payload),
        ffi.from_buffer("int64_t[]", start), ffi.from_buffer("uint32_t[]", deg),
    )
    if rc:
        raise ValueError(
            "keys do not ascend or name a tile or vertex outside the graph"
        )
    return start, payload, deg


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
