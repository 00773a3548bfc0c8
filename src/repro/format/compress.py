"""Delta + varint compression of tile payloads (the paper's future work).

§VIII: "Compression can be applied to the data present in tiles to
provide further space saving, which we leave as future work."  This module
implements it, following the Ligra+/PathGraph recipe the paper cites:
edges of a tile are sorted, the source locals are delta-encoded along the
sorted order, destinations are delta-encoded within each source run, and
all values are written as LEB128 varints.

Compression requires sorted tuples (the paper notes exactly this
requirement when discussing delta-based compression), so the codec sorts —
tile semantics are order-independent, making that safe.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.format.tiles import tile_bases
from repro.types import local_dtype


def _varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a non-negative int64 array (vectorised by byte plane)."""
    values = np.asarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    out = bytearray()
    # Python loop over *bytes*, vectorised over values per plane would be
    # complex; tiles are small enough that a flat loop with tolist() is
    # fine for a storage codec.
    for v in values.tolist():
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


def _varint_decode(buf: bytes, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` LEB128 values; returns (values, bytes consumed)."""
    out = np.empty(count, dtype=np.uint64)
    pos = 0
    for k in range(count):
        shift = 0
        acc = 0
        while True:
            if pos >= len(buf):
                raise FormatError("truncated varint stream")
            b = buf[pos]
            pos += 1
            acc |= (b & 0x7F) << shift
            if not (b & 0x80):
                break
            shift += 7
        out[k] = acc
    return out, pos


def compress_tile(lsrc: np.ndarray, ldst: np.ndarray) -> bytes:
    """Compress one tile's local tuples.

    Layout: varint edge count, then delta-encoded sorted ``(lsrc, ldst)``
    pairs — ``lsrc`` deltas along the sort order and ``ldst`` deltas that
    reset at each new source (encoded against 0 when the source changed).
    """
    lsrc = np.asarray(lsrc, dtype=np.int64)
    ldst = np.asarray(ldst, dtype=np.int64)
    if lsrc.shape != ldst.shape:
        raise FormatError("lsrc/ldst length mismatch")
    n = lsrc.shape[0]
    header = _varint_encode(np.array([n], dtype=np.uint64))
    if n == 0:
        return header
    order = np.lexsort((ldst, lsrc))
    s = lsrc[order]
    d = ldst[order]
    ds = np.diff(s, prepend=0)
    same_src = np.concatenate([[False], np.diff(s) == 0])
    dd = np.where(same_src, np.diff(d, prepend=0), d)
    # dd can be negative only when duplicate edges are unsorted within a
    # source run — lexsort prevents that, so dd >= 0 within runs and = d
    # (>= 0) at run starts.
    payload = np.empty(2 * n, dtype=np.uint64)
    payload[0::2] = ds.astype(np.uint64)
    payload[1::2] = dd.astype(np.uint64)
    return header + _varint_encode(payload)


def decompress_tile(buf: bytes, tile_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`compress_tile`; returns sorted local tuples."""
    head, consumed = _varint_decode(buf, 1)
    n = int(head[0])
    dt = local_dtype(tile_bits)
    if n == 0:
        return np.empty(0, dtype=dt), np.empty(0, dtype=dt)
    payload, _ = _varint_decode(buf[consumed:], 2 * n)
    ds = payload[0::2].astype(np.int64)
    dd = payload[1::2].astype(np.int64)
    s = np.cumsum(ds)
    # Reconstruct destinations: cumulative within each equal-source run.
    d = dd.copy()
    run_start = np.concatenate([[True], np.diff(s) != 0])
    # Prefix-sum with resets: subtract the running total at run starts.
    csum = np.cumsum(dd)
    base = np.zeros(n, dtype=np.int64)
    starts = np.nonzero(run_start)[0]
    base[starts] = csum[starts] - dd[starts]
    np.maximum.accumulate(base, out=base)
    d = csum - base
    return s.astype(dt), d.astype(dt)


def compressed_payload_size(tg) -> int:
    """Total compressed bytes of a :class:`TiledGraph`'s tiles.  A tile's
    stored locals are its decoded global IDs less the tile's SNB bases."""
    counts = tg.tile_edge_counts()
    total = 0
    for positions, batch in tg.scan():
        edges = counts[positions]
        src, dst = batch.gsrc, batch.gdst
        if tg.snb:
            sb, db = tile_bases(tg.tile_rows, tg.tile_cols, positions, tg.tile_bits)
            src = src - np.repeat(sb, edges)
            dst = dst - np.repeat(db, edges)
        cuts = np.cumsum(edges)[:-1]
        total += sum(
            len(compress_tile(s, d))
            for s, d in zip(np.split(src, cuts), np.split(dst, cuts))
        )
    return total


def compression_report(tg) -> "dict[str, float]":
    """SNB vs SNB+delta-varint sizes and the extra saving factor."""
    snb = tg.storage_bytes()
    comp = compressed_payload_size(tg)
    return {
        "snb_bytes": snb,
        "compressed_bytes": comp,
        "extra_saving": snb / comp if comp else float("inf"),
    }
