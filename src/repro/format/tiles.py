"""The G-Store tile format (paper §IV): symmetry + SNB over a 2-D grid.

A :class:`TiledGraph` partitions the adjacency matrix into tiles of
``2**tile_bits`` vertices per side.  For an undirected graph only the upper
triangle is stored (§IV-A); every edge tuple keeps only the in-tile local
IDs (§IV-B).  All tiles live in one payload laid out in physical-group disk
order (§V-A) and indexed by the start-edge array.

Two ablation switches reproduce Figure 10's "Base / Symmetry /
Symmetry+SNB" configurations:

* ``symmetric=False`` stores both orientations of every undirected edge
  (the traditional 2-D partitioned representation);
* ``snb=False`` stores full-width global vertex IDs (8 bytes per tuple).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ChecksumError, FormatError
from repro.faults.crc import crc32c, crc32c_extents
from repro.format.edgelist import EdgeList, sort_unique_keys
from repro.format.grouping import PhysicalGrouping
from repro.format.metadata import GraphInfo
from repro.format.startedge import StartEdgeIndex
from repro.types import (
    DEFAULT_GROUP_Q,
    DEFAULT_TILE_BITS,
    SHARDS_PER_BATCH,
    VERTEX_DTYPE,
    local_dtype,
    shard_pieces,
)
from repro.util.bitops import ceil_div

_PAYLOAD_FILE = "tiles.dat"
_STARTEDGE_FILE = "start_edge.bin"
_INFO_FILE = "info.json"
_DEGREE_FILE = "degrees.npz"


@dataclass(slots=True)
class TileView:
    """A decoded tile: local endpoint arrays plus the tile's grid position.

    ``lsrc``/``ldst`` are the stored (SNB) local IDs; :meth:`global_edges`
    re-attaches the tile's most-significant bits.  When the graph was built
    with ``snb=False`` the "locals" are already global and the bases are 0.

    The global-ID arrays are computed lazily and cached, so kernels (and
    the fused batch layer, which concatenates them across a whole segment)
    can call :meth:`global_edges` repeatedly without re-allocating.  Every
    decoder that seeds the cache seeds it with C-contiguous ``VERTEX_DTYPE``
    arrays (slices of one array per endpoint, never strided views of an
    interleaved buffer), so kernels index them without a copy.  Callers
    must treat the returned arrays as read-only.

    ``edge_lo`` is the disk-edge offset of the view's first edge: the
    view's edges are ``[edge_lo, edge_lo + n_edges)`` of the graph's
    disk-edge order, whether it spans one tile, a byte-adjacent run, or a
    split piece of one — which is how per-edge side arrays
    (``TiledGraph.edge_weights``) are sliced for views that are not tiles.
    """

    i: int
    j: int
    lsrc: np.ndarray
    ldst: np.ndarray
    src_base: int
    dst_base: int
    pos: int
    edge_lo: int
    _gsrc: "np.ndarray | None" = field(default=None, repr=False, compare=False)
    _gdst: "np.ndarray | None" = field(default=None, repr=False, compare=False)

    @property
    def n_edges(self) -> int:
        return int(self.lsrc.shape[0])

    @property
    def nbytes(self) -> int:
        return self.lsrc.nbytes + self.ldst.nbytes

    def global_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint IDs in the global vertex space: cached, C-contiguous
        ``VERTEX_DTYPE`` arrays."""
        if self._gsrc is None:
            gsrc = self.lsrc.astype(VERTEX_DTYPE)
            gdst = self.ldst.astype(VERTEX_DTYPE)
            if self.src_base:
                gsrc += VERTEX_DTYPE(self.src_base)
            if self.dst_base:
                gdst += VERTEX_DTYPE(self.dst_base)
            self._gsrc = gsrc
            self._gdst = gdst
        return self._gsrc, self._gdst


def concat_global_edges(views: "list[TileView]") -> tuple[np.ndarray, np.ndarray]:
    """Concatenated global endpoint arrays for a batch of tiles.

    Edge order is the batch's tile order — the same sequence a loop over
    ``views`` would visit, which is what keeps an exact kernel's answer
    independent of where a batch is cut into shards.  Both arrays are
    C-contiguous ``VERTEX_DTYPE``; a one-view batch (every shard of a
    rewind) returns that view's cached arrays themselves, no copy.
    """
    if not views:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return empty, empty
    if len(views) == 1:
        return views[0].global_edges()
    # Fast path: tiles decoded through decode_run() (or already globalised
    # once) carry cached global-ID arrays — pure concatenation, no math.
    srcs: "list[np.ndarray]" = []
    dsts: "list[np.ndarray]" = []
    for tv in views:
        if tv._gsrc is None:
            break
        srcs.append(tv._gsrc)
        dsts.append(tv._gdst)
    else:
        return np.concatenate(srcs), np.concatenate(dsts)
    # Vectorised across the batch: one concatenate + widen per endpoint and
    # a single repeated-base add, instead of per-view astype/add calls —
    # the per-tile Python overhead is exactly what fusion exists to remove.
    gsrc = np.concatenate([tv.lsrc for tv in views]).astype(VERTEX_DTYPE)
    gdst = np.concatenate([tv.ldst for tv in views]).astype(VERTEX_DTYPE)
    n = len(views)
    counts = np.fromiter(
        (tv.lsrc.shape[0] for tv in views), dtype=np.intp, count=n
    )
    src_base = np.fromiter(
        (tv.src_base for tv in views), dtype=VERTEX_DTYPE, count=n
    )
    dst_base = np.fromiter(
        (tv.dst_base for tv in views), dtype=VERTEX_DTYPE, count=n
    )
    if src_base.any():
        gsrc += np.repeat(src_base, counts)
    if dst_base.any():
        gdst += np.repeat(dst_base, counts)
    # Seed every view's cache with its slice of the concatenated arrays so
    # repeated batches over the same views (rewind iterations) hit the
    # pure-concatenation fast path from now on.  Shards within a batch are
    # disjoint view sets, so this is safe under the thread-pool too.
    bounds = np.cumsum(counts).tolist()
    lo = 0
    for tv, hi in zip(views, bounds):
        tv._gsrc = gsrc[lo:hi]
        tv._gdst = gdst[lo:hi]
        lo = hi
    return gsrc, gdst


def shard_cuts(
    run_bounds: np.ndarray, pieces: int = SHARDS_PER_BATCH
) -> np.ndarray:
    """Where a batch of runs is cut into shards, as batch-edge offsets
    ``[0, ..., total]`` (shard ``k`` is edges ``[cuts[k], cuts[k + 1])``).

    ``run_bounds`` are the runs' edge offsets in the batch, ``[0, ...,
    total]`` (no runs, no shards).  The arithmetic of
    :meth:`TiledGraph.split_run_views` followed by
    :func:`~repro.algorithms.base.chunk_by_edges`, on edge counts alone: a
    batch of fewer runs than :func:`~repro.types.shard_pieces` allows is
    cut into equal-edge pieces, and the pieces are grouped greedily into
    at most that many shards of at least ``ceil(total / shards)`` edges.
    Partials commit in shard order, so these cuts are the order a live
    kernel relaxes in; they depend on the batch contents alone.
    """
    bounds = np.asarray(run_bounds, dtype=np.int64)
    n = bounds.shape[0] - 1
    if n <= 0:
        return np.zeros(1, dtype=np.int64)
    total = int(bounds[-1])
    shards = shard_pieces(pieces, total)
    if shards <= 1:
        return np.array([0, total], dtype=np.int64)
    if n < shards:
        # Fewer runs than shards (so fewer than ``pieces``): run [lo, hi)
        # becomes k pieces, piece t of it edges [c*t // k, c*(t+1) // k)
        # of its c edges; empty pieces of a cut run are dropped.
        ends: "list[int]" = []
        run = bounds.tolist()
        for lo, hi in zip(run[:-1], run[1:]):
            c = hi - lo
            k = max(1, (shards * c + total - 1) // total)
            if k == 1:
                ends.append(hi)
            else:
                ends += sorted({lo + c * t // k for t in range(1, k + 1)} - {lo})
        bounds = np.array([0] + ends, dtype=np.int64)
    if bounds.shape[0] <= 2:
        return np.array([0, total], dtype=np.int64)
    # Greedy grouping: a shard opened at piece s closes at the first
    # piece that brings it to ``target`` edges, until only the remainder
    # shard is left.
    last = bounds.shape[0] - 1  # pieces
    target = -(-total // shards)
    close = np.searchsorted(bounds, bounds + target).tolist()
    cut = [0]
    while len(cut) < shards and close[cut[-1]] <= last:
        cut.append(close[cut[-1]])
    if cut[-1] < last:
        cut.append(last)
    return bounds[cut]


def tile_bases(
    tile_rows: np.ndarray, tile_cols: np.ndarray, pos_arr: np.ndarray, tile_bits: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The SNB source and destination bases of tiles ``pos_arr`` as
    ``VERTEX_DTYPE`` arrays: what the widen adds to each stored local, in
    the same wrapping ``uint32`` arithmetic."""
    sb = (tile_rows[pos_arr].astype(np.int64) << tile_bits).astype(VERTEX_DTYPE)
    db = (tile_cols[pos_arr].astype(np.int64) << tile_bits).astype(VERTEX_DTYPE)
    return sb, db


def batch_bases(tg, positions: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Tiles ``positions``' bases in tile form: :func:`tile_bases` on SNB
    storage, else zeros (the payload holds global IDs)."""
    if tg.snb:
        return tile_bases(tg.tile_rows, tg.tile_cols, positions, tg.tile_bits)
    zero = np.zeros(positions.shape[0], dtype=VERTEX_DTYPE)
    return zero, zero


@dataclass(frozen=True, slots=True, eq=False)
class TileEdges:
    """Edges in tile form, as SNB stores them (§IV-B): the interleaved
    local ``(src, dst)`` pairs of consecutive tiles (``uint8``, ``uint16``
    or ``uint32``), ``counts[j]`` of them for tile ``j`` (``int64``), and
    each tile's source and destination bases (``VERTEX_DTYPE``), which
    turn a local into a global ID with ``uint32`` wraparound.  Storage
    without SNB holds global IDs under zero bases.

    A scatter kernel reads this form as it is
    (:func:`~repro.algorithms.pagerank.scatter_add`); :meth:`widen` is the
    one way to global-ID arrays.  Callers treat every array as read-only.
    """

    pairs: np.ndarray
    counts: np.ndarray
    src_base: np.ndarray
    dst_base: np.ndarray

    @classmethod
    def of_ids(cls, gsrc: np.ndarray, gdst: np.ndarray) -> "TileEdges":
        """Global IDs as one ``uint32`` tile of base 0."""
        m = gsrc.shape[0]
        pairs = np.empty(2 * m, dtype=VERTEX_DTYPE)
        pairs[0::2] = gsrc
        pairs[1::2] = gdst
        zero = np.zeros(1, dtype=VERTEX_DTYPE)
        return cls(pairs, np.array([m], dtype=np.int64), zero, zero)

    @property
    def n_edges(self) -> int:
        return self.pairs.shape[0] // 2

    def widen(self) -> "tuple[np.ndarray, np.ndarray]":
        """The global endpoint IDs as two contiguous ``VERTEX_DTYPE``
        arrays, so kernels index them without a copy: one compiled pass
        (:func:`repro.algorithms.native.widen`) de-interleaves, widens and
        adds each tile's bases; the NumPy body is its fallback and oracle.
        ``ValueError`` unless the counts cover the pairs exactly."""
        # Imported here: importing repro.algorithms imports this module.
        from repro.algorithms import native

        flat, counts = self.pairs, self.counts
        if native.lib is not None:
            return native.widen(flat, counts, self.src_base, self.dst_base)
        if 2 * int(counts.sum()) != flat.shape[0] or (counts < 0).any():
            raise ValueError(
                f"tile edge counts do not cover the payload's "
                f"{flat.shape[0] // 2} edges"
            )
        return (flat[0::2] + np.repeat(self.src_base, counts),
                flat[1::2] + np.repeat(self.dst_base, counts))


@dataclass(frozen=True, slots=True, eq=False)
class BatchLayout:
    """Where one batch's tiles and runs lie in its bytes, known before the
    bytes arrive: ``counts[j]`` edges of tile ``j`` (``int64``), tile
    ``j`` batch edges ``[tile_bounds[j], tile_bounds[j + 1])``, run ``r``
    batch edges ``[run_bounds[r], run_bounds[r + 1])`` from disk edge
    ``run_edge_lo[r]`` on, and the tiles' bases (:class:`TileEdges`).
    :func:`~repro.engine.selective.split_extents` derives it from
    positions alone, so a slide plan computes it once and every fetch of
    the batch only wraps its bytes (:meth:`TiledGraph.decode_extents`).
    Read-only: a layout may be shared by every batch decoded with it."""

    counts: np.ndarray
    tile_bounds: np.ndarray
    run_bounds: np.ndarray
    run_edge_lo: np.ndarray
    src_base: np.ndarray
    dst_base: np.ndarray


class DecodedBatch:
    """One decoded batch of tile bytes: what every reader of them gets.

    A batch is a sequence of *runs* — byte-adjacent tiles, one merged
    extent each — held as the fetch left it: :attr:`tiles`, the batch's
    tiles in plan order in tile form, tile ``j`` batch edges
    ``[tile_bounds[j], tile_bounds[j + 1])``.  Run ``r`` is batch edges
    ``[run_bounds[r], run_bounds[r + 1])`` and disk edges from
    ``run_edge_lo[r]`` on, which is how per-edge side arrays
    (``TiledGraph.edge_weights``) are read (:meth:`side`).

    Two things are computed on first read and kept: ``gsrc``/``gdst``, the
    whole batch's global endpoint IDs from one :meth:`TileEdges.widen`
    pass (a scatter kernel reads :meth:`tile_edges` and never widens), and
    ``cuts`` (:func:`shard_cuts`), the shard boundaries — a kernel is
    handed edges ``[cuts[k], cuts[k + 1])`` — which a one-shard kernel
    never reads.  A first read writes the cache, so a batch read on
    several threads is read on one of them first
    (:func:`~repro.runtime.threads.execute_batch` widens before it maps a
    pool).  Callers treat every array as read-only.
    """

    __slots__ = ("run_bounds", "run_edge_lo", "_tiles", "_tile_bounds",
                 "_ids", "_cuts")

    def __init__(
        self,
        tiles: "TileEdges | None",
        tile_bounds: "np.ndarray | None",
        run_bounds: np.ndarray,
        run_edge_lo: np.ndarray,
        ids: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> None:
        self._tiles = tiles
        self._tile_bounds = tile_bounds
        self.run_bounds = run_bounds
        self.run_edge_lo = run_edge_lo
        self._ids = ids
        self._cuts: "np.ndarray | None" = None

    @classmethod
    def of_runs(
        cls,
        gsrc: np.ndarray,
        gdst: np.ndarray,
        run_bounds: np.ndarray,
        run_edge_lo: np.ndarray,
    ) -> "DecodedBatch":
        """A batch of given global IDs; its tile form, read only by a
        scatter kernel, is one base-0 ``uint32`` tile
        (:meth:`TileEdges.of_ids`), built on first read."""
        return cls(None, None, run_bounds, run_edge_lo, (gsrc, gdst))

    @classmethod
    def of_views(cls, views: "list[TileView]") -> "DecodedBatch":
        """A list of views as a batch of one run per view (the
        list-of-views form ``benchmarks/perf/layer_walk.py`` calls)."""
        gsrc, gdst = concat_global_edges(views)
        bounds = np.zeros(len(views) + 1, dtype=np.int64)
        np.cumsum([tv.n_edges for tv in views], out=bounds[1:])
        lo = np.array([tv.edge_lo for tv in views], dtype=np.int64)
        return cls.of_runs(gsrc, gdst, bounds, lo)

    @property
    def n_edges(self) -> int:
        return int(self.run_bounds[-1])

    def widen(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(gsrc, gdst)``: the batch widened once, on first read."""
        if self._ids is None:
            self._ids = self._tiles.widen()
        return self._ids

    @property
    def gsrc(self) -> np.ndarray:
        return self.widen()[0]

    @property
    def gdst(self) -> np.ndarray:
        return self.widen()[1]

    @property
    def cuts(self) -> np.ndarray:
        if self._cuts is None:
            self._cuts = shard_cuts(self.run_bounds)
        return self._cuts

    @property
    def tiles(self) -> TileEdges:
        """The whole batch in tile form."""
        if self._tiles is None:
            gsrc, gdst = self._ids
            self._tiles = TileEdges.of_ids(gsrc, gdst)
            self._tile_bounds = np.array([0, gsrc.shape[0]], dtype=np.int64)
        return self._tiles

    def tile_edges(self, a: int, b: int) -> TileEdges:
        """Batch edges ``[a, b)`` in tile form: zero-copy slices of
        :attr:`tiles`, the counts of the first and last tile trimmed where
        the range cuts them."""
        tiles = self.tiles
        if a == 0 and b == tiles.n_edges:
            return tiles
        bounds = self._tile_bounds
        i = int(np.searchsorted(bounds, a, side="right")) - 1
        j = int(np.searchsorted(bounds, b))
        return TileEdges(
            tiles.pairs[2 * a : 2 * b],
            np.diff(np.clip(bounds[i : j + 1], a, b)),
            tiles.src_base[i:j],
            tiles.dst_base[i:j],
        )

    def side(self, values: np.ndarray, a: int, b: int) -> np.ndarray:
        """A disk-edge-ordered side array's values for batch edges
        ``[a, b)``: a zero-copy slice when they lie in one run."""
        bounds = self.run_bounds
        if a == b:
            return values[:0]
        r = int(np.searchsorted(bounds, a, side="right")) - 1
        shift = self.run_edge_lo - bounds[:-1]  # disk edge - batch edge
        if b <= bounds[r + 1]:
            lo = a + int(shift[r])
            return values[lo : lo + b - a]
        end = int(np.searchsorted(bounds, b))
        per_run = np.diff(np.clip(bounds[r : end + 1], a, b))
        return values[np.arange(a, b) + np.repeat(shift[r:end], per_run)]


#: Entries a graph's aux file may hold; the first three are mandatory.
_AUX_KEYS = (
    "out_degrees", "in_degrees", "snb",
    "tile_checksums", "edge_weights", "info_crc32c",
)


def _load_aux(path: str) -> "dict[str, np.ndarray]":
    """Read the aux ``.npz`` whole, failing typed on anything damaged."""
    try:
        # Opened here, not by np.load: it leaks its own handle when the
        # zip directory turns out to be damaged.
        with open(path, "rb") as fh, np.load(fh) as z:
            aux = {key: z[key] for key in z.files}
    except FileNotFoundError:
        raise
    except Exception as exc:
        # The zip and npy readers raise a dozen unrelated types on damaged
        # input (BadZipFile, zlib.error, ValueError, KeyError, EOFError,
        # RuntimeError, NotImplementedError...); the caller needs one.
        raise FormatError(f"{path}: unreadable aux file: {exc}") from exc
    missing = [key for key in _AUX_KEYS[:3] if key not in aux]
    unknown = [key for key in aux if key not in _AUX_KEYS]
    if missing or unknown or aux["snb"].size != 1:
        raise FormatError(
            f"{path}: bad aux entries",
            context={"missing": missing, "unknown": unknown},
        )
    return aux


def _payload(
    gsrc: np.ndarray, gdst: np.ndarray, dt: np.dtype, snb: bool, tile_bits: int
) -> np.ndarray:
    """The interleaved payload of stored edges given in disk order: their
    in-tile IDs on SNB storage, else their global ones."""
    payload = np.empty(2 * gsrc.shape[0], dtype=dt)
    if snb:
        mask = np.uint32((1 << tile_bits) - 1)
        payload[0::2] = gsrc & mask
        payload[1::2] = gdst & mask
    else:
        payload[0::2] = gsrc
        payload[1::2] = gdst
    return payload


def _encode_upper_triangle(
    el: EdgeList,
    pos_grid: np.ndarray,
    tile_rows: np.ndarray,
    tile_cols: np.ndarray,
    tile_bits: int,
    dt: np.dtype,
    snb: bool,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]":
    """Symmetric conversion of an undirected edge list with a single sort.

    Every non-loop edge becomes one ``uint64`` key ``pos << 2·tile_bits |
    lsrc << tile_bits | ldst`` (``lsrc``/``ldst`` the in-tile IDs of its
    smaller and larger endpoint).  It always fits: with 32-bit vertex IDs
    a grid of more than one tile has ``pos < p² ≤ 2**(64 − 2·tile_bits)``.
    Sorted, the keys *are* the disk order — tiles by position, edges in a
    tile by ``(src, dst)`` — duplicates sit side by side, and tile
    boundaries are a binary search; nothing is permuted or gathered.

    Returns the start-edge array, the payload, the undirected degrees
    (each endpoint of each stored edge counted) and the stored edges'
    weights (``None`` when unweighted).  With the compiled tier loaded the
    key build and the unpack are one C pass each around the same sort
    (:func:`~repro.algorithms.native.upper_keys`,
    :func:`~repro.algorithms.native.unpack_keys`); the NumPy body below is
    their fallback and oracle.
    """
    # Imported here: importing repro.algorithms imports this module.
    from repro.algorithms import native

    n_tiles = tile_rows.shape[0]
    if native.lib is not None:
        key, weights = native.upper_keys(
            el.src, el.dst, el.n_vertices, pos_grid, n_tiles, tile_bits,
            el.weights,
        )
        key, weights = sort_unique_keys(key, weights)
        start, payload, degrees = native.unpack_keys(
            key, tile_rows, tile_cols, tile_bits, el.n_vertices, dt, snb
        )
        return start, payload, degrees, weights
    tb = np.uint32(tile_bits)
    mask = np.uint32((1 << tile_bits) - 1)
    lo = np.minimum(el.src, el.dst)
    hi = np.maximum(el.src, el.dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    weights = None if el.weights is None else el.weights[keep]
    shift = np.uint64(tile_bits)
    key = ((lo & mask).astype(np.uint64) << shift) | (hi & mask)
    if n_tiles > 1:  # else pos is 0, and 2·tile_bits may be the full 64
        pos = pos_grid[lo >> tb, hi >> tb]
        key |= pos.astype(np.uint64) << (shift + shift)
    key, weights = sort_unique_keys(key, weights)
    inner = np.arange(1, n_tiles, dtype=np.uint64) << (shift + shift)
    start = np.empty(n_tiles + 1, dtype=np.int64)
    start[0] = 0
    start[1:-1] = np.searchsorted(key, inner)
    start[-1] = key.shape[0]
    counts = np.diff(start)
    span = np.uint64(mask)
    gsrc = ((key >> shift) & span).astype(VERTEX_DTYPE)
    gsrc += np.repeat((tile_rows << tile_bits).astype(VERTEX_DTYPE), counts)
    gdst = (key & span).astype(VERTEX_DTYPE)
    gdst += np.repeat((tile_cols << tile_bits).astype(VERTEX_DTYPE), counts)
    degrees = (
        np.bincount(gsrc, minlength=el.n_vertices)
        + np.bincount(gdst, minlength=el.n_vertices)
    ).astype(np.uint32)
    return start, _payload(gsrc, gdst, dt, snb, tile_bits), degrees, weights


def _encode_by_position(
    work: EdgeList,
    pos_grid: np.ndarray,
    n_tiles: int,
    tile_bits: int,
    dt: np.dtype,
    snb: bool,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None]":
    """Conversion that keeps the input's order inside every tile: a stable
    sort by disk position (directed graphs and the ``symmetric=False``
    ablation, whose tuples are not one canonical orientation).  Returns
    the start-edge array, the payload and the weights, as
    :func:`_encode_upper_triangle` does."""
    tb = np.uint32(tile_bits)
    pos = pos_grid[work.src >> tb, work.dst >> tb]
    counts = np.bincount(pos, minlength=n_tiles)
    start = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    order = np.argsort(pos, kind="stable")
    weights = None if work.weights is None else work.weights[order]
    payload = _payload(work.src[order], work.dst[order], dt, snb, tile_bits)
    return start, payload, weights


@dataclass
class TiledGraph:
    """A graph stored in the G-Store tile format.

    The payload may be held in memory (``payload`` array) or left on disk
    (``payload_path``); the engine fetches a batch's byte extents through
    the storage substrate and decodes them with :meth:`decode_extents`.
    """

    info: GraphInfo
    grouping: PhysicalGrouping
    start_edge: StartEdgeIndex
    tile_rows: np.ndarray  # disk-order row index i per tile
    tile_cols: np.ndarray  # disk-order column index j per tile
    out_degrees: np.ndarray
    in_degrees: np.ndarray
    payload: "np.ndarray | None" = None
    payload_path: "str | None" = None
    snb: bool = True
    #: Optional per-edge float32 weights in disk-edge order; kept resident
    #: (like algorithmic metadata) so weighted kernels can slice them by
    #: tile position whether or not the payload itself is resident.
    edge_weights: "np.ndarray | None" = None
    #: Per-tile CRC32C of the tile's payload extent (uint32, one per disk
    #: position; empty tiles checksum to 0).  Computed lazily — at save
    #: time, by ``fsck --checksums``, or on demand when a fault-injected
    #: run enables decode verification — so clean runs pay nothing.
    #: ``None`` for version-1 graphs saved before the reliability plane.
    tile_checksums: "np.ndarray | None" = None
    _pos_grid: "np.ndarray | None" = field(default=None, repr=False)
    _payload_dt: "np.dtype | None" = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edge_list(
        cls,
        el: EdgeList,
        tile_bits: int = DEFAULT_TILE_BITS,
        group_q: int = DEFAULT_GROUP_Q,
        symmetric: "bool | None" = None,
        snb: bool = True,
        name: "str | None" = None,
    ) -> "TiledGraph":
        """Conversion from an edge list (§IV-B *Implementation*).

        Edges are bucketed by tile into disk order and stored as SNB
        tuples, with the start-edge array counting each tile's share.  For
        an undirected input the default stores only the upper triangle
        (``symmetric=True``) and the whole conversion is one sort
        (:func:`_encode_upper_triangle`); for a directed input the stored
        orientation is the input's (out-edges), and symmetry does not
        apply.  :class:`FormatError` names the first endpoint that is not
        below ``el.n_vertices``.
        """
        name = name if name is not None else el.name
        el.check_ids()
        if el.directed:
            if symmetric:
                raise FormatError("symmetric storage applies to undirected graphs")
            symmetric = False
        elif symmetric is None:
            symmetric = True

        p = ceil_div(el.n_vertices, 1 << tile_bits)
        grouping = PhysicalGrouping(p=p, q=group_q, symmetric=symmetric)
        pos_grid = grouping.position_grid()
        tile_rows, tile_cols = grouping.tile_coords
        dt = local_dtype(tile_bits) if snb else np.dtype(VERTEX_DTYPE)

        if symmetric:
            start, payload, out_deg, edge_weights = _encode_upper_triangle(
                el, pos_grid, tile_rows, tile_cols, tile_bits, dt, snb
            )
            in_deg = out_deg
            n_input = payload.shape[0]  # both orientations of each edge
        else:
            if el.directed:
                work = el
                n_input = el.n_edges
                out_deg = el.out_degrees()
                in_deg = el.in_degrees()
            else:
                canon = el.canonicalized()
                work = canon.symmetrized()
                n_input = 2 * canon.n_edges
                out_deg = in_deg = canon.degrees()
            start, payload, edge_weights = _encode_by_position(
                work, pos_grid, grouping.n_tiles, tile_bits, dt, snb
            )
        start_edge = StartEdgeIndex(start, tuple_bytes=2 * dt.itemsize)

        info = GraphInfo(
            name=name,
            n_vertices=el.n_vertices,
            n_edges=start_edge.n_edges,
            n_input_edges=n_input,
            directed=el.directed,
            symmetric=symmetric,
            tile_bits=tile_bits,
            group_q=group_q,
        )
        return cls(
            info=info,
            grouping=grouping,
            start_edge=start_edge,
            tile_rows=tile_rows,
            tile_cols=tile_cols,
            out_degrees=out_deg,
            in_degrees=in_deg,
            payload=payload,
            snb=snb,
            edge_weights=edge_weights,
            _pos_grid=pos_grid,
        )

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def n_vertices(self) -> int:
        return self.info.n_vertices

    @property
    def n_edges(self) -> int:
        """Stored SNB tuples (undirected edges counted once)."""
        return self.start_edge.n_edges

    @property
    def n_tiles(self) -> int:
        return self.grouping.n_tiles

    @property
    def tile_bits(self) -> int:
        return self.info.tile_bits

    @property
    def tuple_bytes(self) -> int:
        return self.start_edge.tuple_bytes

    @property
    def p(self) -> int:
        return self.grouping.p

    def pos_grid(self) -> np.ndarray:
        if self._pos_grid is None:
            self._pos_grid = self.grouping.position_grid()
        return self._pos_grid

    def position_of(self, i: int, j: int) -> int:
        """Disk position of tile ``(i, j)``; -1 when unstored."""
        return int(self.pos_grid()[i, j])

    def row_range(self, i: int) -> tuple[int, int]:
        """Global vertex range ``[lo, hi)`` covered by tile row/column ``i``."""
        span = 1 << self.tile_bits
        lo = i * span
        return lo, min(lo + span, self.n_vertices)

    def tile_edge_counts(self) -> np.ndarray:
        """Per-tile edge counts in disk order (Figure 5)."""
        return self.start_edge.edge_counts()

    def group_edge_counts(self) -> np.ndarray:
        """Per-physical-group edge counts in group disk order (Figure 7)."""
        return np.add.reduceat(
            self.tile_edge_counts(), self.grouping.group_bounds()[:-1]
        )

    # ------------------------------------------------------------------ #
    # Tile access
    # ------------------------------------------------------------------ #

    def _bases(self, i: int, j: int) -> tuple[int, int]:
        if self.snb:
            return i << self.tile_bits, j << self.tile_bits
        return 0, 0

    def tile_view(self, pos: int) -> TileView:
        """Decode the tile at disk position ``pos`` from the in-memory payload."""
        if self.payload is None:
            raise FormatError(
                "payload not resident; fetch bytes through the storage layer "
                "and use view_from_bytes()"
            )
        lo = int(self.start_edge.start_edge[pos])
        hi = int(self.start_edge.start_edge[pos + 1])
        chunk = self.payload[2 * lo : 2 * hi]
        i = int(self.tile_rows[pos])
        j = int(self.tile_cols[pos])
        sb, db = self._bases(i, j)
        return TileView(
            i=i, j=j, lsrc=chunk[0::2], ldst=chunk[1::2],
            src_base=sb, dst_base=db, pos=pos, edge_lo=lo,
        )

    def view_from_bytes(self, pos: int, buf: "bytes | memoryview | np.ndarray") -> TileView:
        """Decode a tile from raw bytes fetched off the storage substrate."""
        if isinstance(buf, np.ndarray):
            inter = np.asarray(buf, dtype=self.payload_dtype())
        else:
            inter = np.frombuffer(buf, dtype=self.payload_dtype())
        se = self.start_edge.start_edge
        expect = 2 * int(se[pos + 1] - se[pos])
        if inter.shape[0] != expect:
            raise FormatError(
                f"tile {pos}: expected {expect} local IDs, got {inter.shape[0]}"
            )
        i = int(self.tile_rows[pos])
        j = int(self.tile_cols[pos])
        sb, db = self._bases(i, j)
        return TileView(
            i=i, j=j, lsrc=inter[0::2], ldst=inter[1::2],
            src_base=sb, dst_base=db, pos=pos, edge_lo=int(se[pos]),
        )

    def decode_run(
        self, positions: "list[int]", data: "bytes | memoryview"
    ) -> "list[tuple[TileView, memoryview]]":
        """Decode a byte-adjacent run of tiles with one vectorised pass.

        ``data`` is the merged extent covering ``positions`` (as produced by
        :func:`~repro.engine.selective.merge_requests`).  One
        ``np.frombuffer`` interprets the whole extent; each tile's local
        arrays are strided views into it, and the global IDs of the
        *entire run* are materialised by :meth:`_global_ids` — the layout
        :meth:`decode_batch` emits — whose per-tile slices seed every
        view's :meth:`TileView.global_edges` cache.  Returns ``(view,
        raw)`` pairs where ``raw`` is the tile's zero-copy byte slice of
        ``data``.
        """
        arr = np.frombuffer(data, dtype=self.payload_dtype())
        se = self.start_edge.start_edge
        tb = self.start_edge.tuple_bytes
        pos_arr = np.asarray(positions, dtype=np.int64)
        starts = se[pos_arr].astype(np.int64)
        ends = se[pos_arr + 1].astype(np.int64)
        base = int(starts[0])
        tbits = self.tile_bits
        gsrc, gdst = self._global_ids(arr, pos_arr, ends - starts)
        out: "list[tuple[TileView, memoryview]]" = []
        starts_l = (starts - base).tolist()
        ends_l = (ends - base).tolist()
        rows_l = self.tile_rows[pos_arr].tolist()
        cols_l = self.tile_cols[pos_arr].tolist()
        if self.snb:
            sb_l = [i << tbits for i in rows_l]
            db_l = [j << tbits for j in cols_l]
        else:
            sb_l = db_l = [0] * len(positions)
        append = out.append
        for pos, lo, hi, i, j, sbase, dbase in zip(
            positions, starts_l, ends_l, rows_l, cols_l, sb_l, db_l
        ):
            chunk = arr[2 * lo : 2 * hi]
            tv = TileView(
                i=i, j=j, lsrc=chunk[0::2], ldst=chunk[1::2],
                src_base=sbase, dst_base=dbase, pos=pos, edge_lo=base + lo,
                _gsrc=gsrc[lo:hi], _gdst=gdst[lo:hi],
            )
            append((tv, data[lo * tb : hi * tb]))
        return out

    @staticmethod
    def split_run_views(
        views: "list[TileView]", pieces: int
    ) -> "list[TileView]":
        """Split run-level views into ≈``pieces`` equal-edge sub-views,
        none cut below ``MIN_SHARD_EDGES``
        (:func:`~repro.types.shard_pieces`).

        Zero-copy (every sub-array is a slice) and deterministic — the
        split depends only on the views, never on the worker count — so a
        batch that merged into a single extent still yields enough shards
        for the thread pool without changing the fused determinism
        contract.  Sub-views concatenate back to the original edge order.
        :func:`shard_cuts` is the same arithmetic on edge counts; this
        list-of-views form is kept for ``benchmarks/perf/layer_walk.py``
        and as the reference the tests hold the cuts to.
        """
        if len(views) >= pieces:  # the floor only ever lowers ``pieces``
            return views
        total = sum(tv.lsrc.shape[0] for tv in views)
        pieces = shard_pieces(pieces, total)
        if len(views) >= pieces:
            return views
        out: "list[TileView]" = []
        for tv in views:
            n = int(tv.lsrc.shape[0])
            k = max(1, (pieces * n + total - 1) // total)
            if k == 1:
                out.append(tv)
                continue
            bounds = [n * t // k for t in range(k + 1)]
            for a, b in zip(bounds[:-1], bounds[1:]):
                if a == b:
                    continue
                out.append(
                    TileView(
                        i=tv.i, j=tv.j,
                        lsrc=tv.lsrc[a:b], ldst=tv.ldst[a:b],
                        src_base=tv.src_base, dst_base=tv.dst_base,
                        pos=tv.pos, edge_lo=tv.edge_lo + a,
                        _gsrc=None if tv._gsrc is None else tv._gsrc[a:b],
                        _gdst=None if tv._gdst is None else tv._gdst[a:b],
                    )
                )
        return out

    def decode_tiles(
        self, positions: "list[int]", datas: "list[bytes | memoryview]"
    ) -> "list[TileView]":
        """Per-tile decode of arbitrary (not necessarily adjacent) tiles.

        For tiles held as separate buffers: unlike :meth:`decode_run`
        there is one ``frombuffer`` per tile — but the grid/base
        arithmetic is still vectorised across the whole set, which is most
        of the per-tile cost of :meth:`view_from_bytes`.  The engine no
        longer holds tiles that way (its rewind re-decodes merged extents
        through :meth:`decode_extents`); ``benchmarks/perf/layer_walk.py``
        is the remaining caller.
        """
        if not positions:
            return []
        dt = self.payload_dtype()
        pos_arr = np.asarray(positions, dtype=np.int64)
        rows_l = self.tile_rows[pos_arr].tolist()
        cols_l = self.tile_cols[pos_arr].tolist()
        tbits = self.tile_bits
        if self.snb:
            sb_l = (self.tile_rows[pos_arr] << tbits).tolist()
            db_l = (self.tile_cols[pos_arr] << tbits).tolist()
        else:
            sb_l = db_l = [0] * len(positions)
        lo_l = self.start_edge.start_edge[pos_arr].tolist()
        out: "list[TileView]" = []
        append = out.append
        frombuffer = np.frombuffer
        for pos, data, i, j, sb, db, lo in zip(
            positions, datas, rows_l, cols_l, sb_l, db_l, lo_l
        ):
            arr = frombuffer(data, dtype=dt)
            append(
                TileView(
                    i=i, j=j, lsrc=arr[0::2], ldst=arr[1::2],
                    src_base=sb, dst_base=db, pos=pos, edge_lo=lo,
                )
            )
        return out

    def _global_ids(
        self, flat: np.ndarray, pos_arr: np.ndarray, counts: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Global endpoint IDs of the stored tuples ``flat`` — the
        interleaved locals of tiles ``pos_arr``, ``counts`` edges each, in
        that order — from one :meth:`TileEdges.widen` pass.  ``ValueError``
        unless ``counts`` covers ``flat`` exactly."""
        return TileEdges(flat, counts, *batch_bases(self, pos_arr)).widen()

    def decode_batch(
        self,
        runs: "list[tuple[list[int], bytes | memoryview]]",
        with_tiles: bool = True,
    ) -> "tuple[list[TileView], list[tuple[int, int, int, bytes | memoryview]]]":
        """Decode one poll's worth of merged extents for the fused path.

        The fused kernels never look at per-tile boundaries — they
        concatenate everything in a batch anyway — so this emits one
        *run-level* :class:`TileView` per extent whose arrays span the whole
        run, plus per-tile ``(pos, i, j, raw)`` records for the cache pool.
        The global IDs of the entire batch are materialised by one
        :meth:`_global_ids` pass over the concatenated extents into two
        contiguous ``VERTEX_DTYPE`` arrays, ``gsrc`` and ``gdst``; the
        per-extent cost is just a ``frombuffer`` and two slices.  Run
        views — and the split views :meth:`split_run_views` cuts from
        them — carry contiguous slices, so a one-view shard reaches its
        kernel without a copy.

        Run-level views carry the first tile's grid coords and bases for
        repr purposes only (``edge_lo`` is exact: a run's tiles are adjacent
        in disk-edge order too); their ``_gsrc``/``_gdst`` caches are always
        pre-seeded, so :meth:`TileView.global_edges` never recomputes from
        the (run-spanning) locals.  ``with_tiles=False`` skips the per-tile
        records.  Nothing in ``src/`` calls it — the engine decodes a batch
        into one :class:`DecodedBatch` (:meth:`decode_extents`) — so it is
        kept for ``benchmarks/perf/layer_walk.py`` only.
        """
        if not runs:
            return [], []
        dt = self.payload_dtype()
        se = self.start_edge.start_edge
        tb = self.start_edge.tuple_bytes
        rows = self.tile_rows
        cols = self.tile_cols
        tbits = self.tile_bits
        snb = self.snb
        pos_lists = [np.asarray(r[0], dtype=np.int64) for r in runs]
        all_pos = pos_lists[0] if len(runs) == 1 else np.concatenate(pos_lists)
        starts = se[all_pos].astype(np.int64)
        ends = se[all_pos + 1].astype(np.int64)
        counts = ends - starts
        arrs = [np.frombuffer(d, dtype=dt) for _, d in runs]
        gsrc, gdst = self._global_ids(
            arrs[0] if len(arrs) == 1 else np.concatenate(arrs),
            all_pos, counts,
        )
        run_lengths = [int(p.shape[0]) for p in pos_lists]
        rl = np.asarray(run_lengths, dtype=np.int64)
        first = np.cumsum(rl) - rl
        if with_tiles:
            base = np.repeat(starts[first], rl)
            lob = ((starts - base) * tb).tolist()
            hib = ((ends - base) * tb).tolist()
            rows_l = rows[all_pos].tolist()
            cols_l = cols[all_pos].tolist()
        else:
            rows_l = rows[all_pos[first]].tolist()
            cols_l = cols[all_pos[first]].tolist()
        run_lo = starts[first].tolist()
        run_views: "list[TileView]" = []
        tiles: "list[tuple[int, int, int, bytes | memoryview]]" = []
        append = tiles.append
        e_lo = 0
        k = 0
        for r_idx, ((positions, data), arr) in enumerate(zip(runs, arrs)):
            e_hi = e_lo + arr.shape[0] // 2
            i0 = rows_l[k] if with_tiles else rows_l[r_idx]
            j0 = cols_l[k] if with_tiles else cols_l[r_idx]
            run_views.append(
                TileView(
                    i=i0, j=j0, lsrc=arr[0::2], ldst=arr[1::2],
                    src_base=(i0 << tbits) if snb else 0,
                    dst_base=(j0 << tbits) if snb else 0,
                    pos=int(positions[0]), edge_lo=run_lo[r_idx],
                    _gsrc=gsrc[e_lo:e_hi], _gdst=gdst[e_lo:e_hi],
                )
            )
            e_lo = e_hi
            if with_tiles:
                for pos in positions:
                    append((pos, rows_l[k], cols_l[k], data[lob[k] : hib[k]]))
                    k += 1
        return run_views, tiles

    def decode_extents(
        self, data: "bytes | memoryview | np.ndarray", layout: BatchLayout
    ) -> DecodedBatch:
        """Decode one fetched batch — the one decode step behind every
        reader of tile bytes (the engine's slide and rewind, the serving
        lookup, :meth:`scan`).

        ``data`` is the batch's merged extents' bytes laid end to end and
        ``layout`` where its tiles and runs lie in them
        (:func:`~repro.engine.selective.split_extents`; a slide plan holds
        its batches').  The batch keeps ``data`` in tile form — a view of
        it under the layout's counts and bases — and nothing is widened or
        cut until a reader asks (:class:`DecodedBatch`).  ``ValueError``
        unless the counts cover ``data`` exactly.
        """
        flat = np.frombuffer(data, dtype=self.payload_dtype())
        if 2 * int(layout.tile_bounds[-1]) != flat.shape[0]:
            raise ValueError(
                f"tile edge counts do not cover the payload's "
                f"{flat.shape[0] // 2} edges"
            )
        tiles = TileEdges(flat, layout.counts, layout.src_base, layout.dst_base)
        return DecodedBatch(
            tiles, layout.tile_bounds, layout.run_bounds, layout.run_edge_lo
        )

    def payload_dtype(self) -> np.dtype:
        dt = self._payload_dt
        if dt is None:
            dt = local_dtype(self.tile_bits) if self.snb else np.dtype(VERTEX_DTYPE)
            self._payload_dt = dt
        return dt

    def scan(self, slab_bytes: int = 4 << 20):
        """The one whole-graph reader: yield ``(positions, batch)`` per
        slab of the payload in disk order — the non-empty tiles whose
        extents start inside one ``slab_bytes`` window (one byte-adjacent
        run: empty tiles hold no bytes) and their :meth:`decode_extents`
        record.  Resident or mapped, it holds a slab at a time."""
        se = self.start_edge.start_edge.astype(np.int64)
        offsets = se * self.tuple_bytes
        live = np.flatnonzero(offsets[1:] > offsets[:-1])
        if not live.size:
            return
        data = self._payload_bytes_view()
        cuts = np.flatnonzero(np.diff(offsets[live] // slab_bytes)) + 1
        for positions in np.split(live, cuts):
            extent = data[offsets[positions[0]] : offsets[positions[-1] + 1]]
            # A slab is one run, so its layout needs no split.
            counts = se[positions + 1] - se[positions]
            tile_bounds = np.zeros(positions.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=tile_bounds[1:])
            layout = BatchLayout(
                counts, tile_bounds, tile_bounds[[0, -1]], se[positions[:1]],
                *batch_bases(self, positions),
            )
            yield positions, self.decode_extents(extent, layout)

    def to_edge_list(self) -> EdgeList:
        """Reconstruct the stored tuples as a global-ID edge list."""
        src = np.empty(self.n_edges, dtype=VERTEX_DTYPE)
        dst = np.empty_like(src)
        for _, batch in self.scan():
            lo = int(batch.run_edge_lo[0])
            src[lo : lo + batch.n_edges] = batch.gsrc
            dst[lo : lo + batch.n_edges] = batch.gdst
        return EdgeList(
            src,
            dst,
            self.n_vertices,
            directed=self.info.directed,
            name=self.info.name,
        )

    # ------------------------------------------------------------------ #
    # Integrity (docs/RELIABILITY.md)
    # ------------------------------------------------------------------ #

    def _payload_bytes_view(self) -> "memoryview | np.ndarray":
        """A byte buffer over the full payload: the resident array, or a
        read-only memory map of the payload file (nothing is read until a
        reader touches it, a slab at a time).  Every extent the start-edge
        index names lies inside it."""
        if self.payload is not None:
            view = memoryview(self.payload).cast("B")
        elif self.payload_path is None:
            raise FormatError("TiledGraph has neither resident payload nor a path")
        elif os.path.getsize(self.payload_path) == 0:
            view = memoryview(b"")  # an empty file cannot be mapped
        else:
            view = np.memmap(self.payload_path, dtype=np.uint8, mode="r")
        if self.storage_bytes() > len(view):
            raise FormatError(
                "start-edge index runs past the end of the payload",
                context={
                    "indexed_bytes": self.storage_bytes(),
                    "payload_bytes": len(view),
                },
            )
        return view

    def _tile_crcs(self) -> np.ndarray:
        """CRC32C of every tile's extent of the payload as it is now."""
        se = self.start_edge
        tb = se.tuple_bytes
        offsets = se.start_edge[:-1].astype(np.int64) * tb
        sizes = se.edge_counts() * tb
        return crc32c_extents(self._payload_bytes_view(), offsets, sizes)

    def ensure_checksums(self) -> np.ndarray:
        """Compute (once) and return the per-tile CRC32C array."""
        if self.tile_checksums is None:
            self.tile_checksums = self._tile_crcs()
        return self.tile_checksums

    def _checksum_context(self, pos: int, actual: int) -> dict:
        """The ``ChecksumError.context`` / fsck record of one corrupt tile."""
        off, size = self.start_edge.byte_extent(pos)
        return {
            "tile": pos,
            "i": int(self.tile_rows[pos]),
            "j": int(self.tile_cols[pos]),
            "offset": off,
            "size": size,
            "expected": f"{int(self.tile_checksums[pos]):#010x}",
            "actual": f"{actual:#010x}",
        }

    def verify_batch_bytes(
        self, positions: np.ndarray, data: "bytes | memoryview | np.ndarray"
    ) -> None:
        """Check one fetched batch — its tiles in plan order and their
        bytes laid end to end, as :meth:`decode_extents` takes them —
        against the stored checksums with a single kernel call.

        No-op when the graph carries no checksums (version-1 files).
        Raises :class:`ChecksumError` for the first corrupt tile in batch
        order, carrying its grid position and byte extent.
        """
        sums = self.tile_checksums
        if sums is None or not positions.shape[0]:
            return
        sizes = self.start_edge.tile_bytes(positions)
        # Tiles of a run are byte-adjacent in its extent and the extents
        # are laid end to end, so tile k starts where tile k-1 stopped.
        actual = crc32c_extents(data, np.cumsum(sizes) - sizes, sizes)
        bad = np.flatnonzero(actual != sums[positions])
        if bad.size:
            pos = int(positions[bad[0]])
            raise ChecksumError(
                f"tile {pos} payload failed checksum verification",
                context=self._checksum_context(pos, int(actual[bad[0]])),
            )

    def verify_checksums(self) -> "list[dict]":
        """Deep-verify every tile extent against the checksum array
        (``repro fsck --checksums``).  Returns one context dict per
        corrupt tile; an empty list means the payload is clean.  Raises
        :class:`FormatError` when the graph carries no checksum array
        (a version-1 file has nothing to verify against)."""
        sums = self.tile_checksums
        if sums is None:
            raise FormatError(
                "graph carries no tile checksums (format version 1); "
                "re-save it to add them",
                context={"format_version": self.info.format_version},
            )
        actual = self._tile_crcs()
        return [
            self._checksum_context(pos, int(actual[pos]))
            for pos in np.flatnonzero(actual != sums).tolist()
        ]

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #

    def storage_bytes(self) -> int:
        """Bytes of the tile payload (the Table II "G-Store Size" column)."""
        return self.n_edges * self.tuple_bytes

    def total_disk_bytes(self) -> int:
        """Payload plus the start-edge index file."""
        return self.storage_bytes() + self.start_edge.storage_bytes()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, directory: "str | os.PathLike") -> str:
        """Write payload + start-edge + info + degrees into ``directory``."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        if self.payload is None:
            raise FormatError("cannot save a TiledGraph without resident payload")
        payload_path = os.path.join(directory, _PAYLOAD_FILE)
        with open(payload_path, "wb") as fh:
            self.payload.tofile(fh)  # straight from the array, no bytes copy
        self.start_edge.save(os.path.join(directory, _STARTEDGE_FILE))
        self.info.format_version = 2
        info_path = os.path.join(directory, _INFO_FILE)
        self.info.save(info_path)
        with open(info_path, "rb") as fh:
            info_crc = crc32c(fh.read())
        aux = dict(
            out_degrees=self.out_degrees,
            in_degrees=self.in_degrees,
            snb=np.array([int(self.snb)]),
            tile_checksums=self.ensure_checksums(),
            # The info file decides how every other byte is read (tile
            # width, group side, orientation) and nothing else on disk
            # repeats it, so its own checksum rides here.
            info_crc32c=np.array([info_crc], dtype=np.uint32),
        )
        if self.edge_weights is not None:
            aux["edge_weights"] = self.edge_weights
        np.savez(os.path.join(directory, _DEGREE_FILE), **aux)
        return directory

    @classmethod
    def load(
        cls, directory: "str | os.PathLike", resident: bool = True
    ) -> "TiledGraph":
        """Load a saved graph; ``resident=False`` leaves the payload on disk
        (semi-external mode: the engine streams it through the storage
        substrate).

        The files are outside input: anything unreadable or inconsistent
        in them — including every metadata invariant of
        :func:`~repro.format.validate.check_tiled_graph` — raises
        :class:`FormatError` here rather than an untyped error later.
        Payload *content* is not read for that; ``fsck --checksums`` and
        ``verify_checksums=True`` runs check it against the tile CRCs.
        """
        directory = os.fspath(directory)
        aux = _load_aux(os.path.join(directory, _DEGREE_FILE))
        info_path = os.path.join(directory, _INFO_FILE)
        if "info_crc32c" in aux:  # graphs saved before it existed have none
            with open(info_path, "rb") as fh:
                actual = crc32c(fh.read())
            expected = int(aux["info_crc32c"][0])
            if actual != expected:
                raise ChecksumError(
                    f"{info_path} failed checksum verification",
                    context={
                        "expected": f"{expected:#010x}",
                        "actual": f"{actual:#010x}",
                    },
                )
        info = GraphInfo.load(info_path)
        start_edge = StartEdgeIndex.load(os.path.join(directory, _STARTEDGE_FILE))
        grouping = PhysicalGrouping(p=info.p, q=info.group_q, symmetric=info.symmetric)
        if start_edge.n_tiles != grouping.n_tiles:  # before walking the grid
            raise FormatError(
                f"{directory}: start-edge index has {start_edge.n_tiles} "
                f"tiles, the info file's grid has {grouping.n_tiles}"
            )
        tile_rows, tile_cols = grouping.tile_coords
        snb = bool(int(aux["snb"][0]))
        payload_path = os.path.join(directory, _PAYLOAD_FILE)
        payload = None
        if resident:
            dt = local_dtype(info.tile_bits) if snb else np.dtype(VERTEX_DTYPE)
            if os.path.getsize(payload_path) % dt.itemsize:
                raise FormatError(
                    f"{payload_path}: size is not a whole number of "
                    f"{dt.itemsize}-byte local IDs"
                )
            payload = np.fromfile(payload_path, dtype=dt)  # one read
        tg = cls(
            info=info,
            grouping=grouping,
            start_edge=start_edge,
            tile_rows=tile_rows,
            tile_cols=tile_cols,
            out_degrees=aux["out_degrees"],
            in_degrees=aux["in_degrees"],
            payload=payload,
            payload_path=payload_path,
            snb=snb,
            edge_weights=aux.get("edge_weights"),
            # Version-1 files predate per-tile checksums; load as None.
            tile_checksums=aux.get("tile_checksums"),
        )
        # Imported here: the validator is written against this module.
        from repro.format.validate import check_tiled_graph

        rep = check_tiled_graph(tg, deep=False)
        if not rep.ok:
            raise FormatError(f"{directory}: " + "; ".join(rep.errors))
        return tg

    def __repr__(self) -> str:
        return (
            f"TiledGraph({self.info.name!r}, |V|={self.n_vertices}, "
            f"stored |E|={self.n_edges}, p={self.p}, tile_bits={self.tile_bits}, "
            f"snb={self.snb}, symmetric={self.info.symmetric})"
        )
