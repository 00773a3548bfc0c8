"""CRC32C (Castagnoli) — the tile-payload checksum kernels.

CRC32C is the storage-industry polynomial (iSCSI, ext4, btrfs) with
better error-detection spread than zlib's CRC32 for the short, structured
payloads tiles are.  No ``crc32c`` package is a dependency; the kernels
are:

* :func:`crc32c` — scalar slicing-by-8 in Python over one buffer,
  chainable.  The public single-buffer API (it checksums the small info
  file) and the oracle the tests hold every extent kernel to.
* :func:`crc32c_extents` — the CRC of *many* byte extents of one buffer.
  This is what ``TiledGraph.save``, ``repro fsck --checksums`` and the
  engine's decode-time verify run.  With the compiled tier loaded it is
  one C loop (:func:`repro.algorithms.native.crc32c_extents`: SSE4.2's
  ``crc32`` instruction where the CPU has it, else slicing-by-8 tables);
  otherwise the table-driven NumPy kernel below, which is also the
  compiled one's oracle.

How the NumPy kernel works.  A CRC with init 0 and no final xor (the
*raw* CRC) is linear over GF(2): ``raw(a ‖ b) = Z(len b)(raw a) ^ raw b``
where ``Z(n)`` — "append *n* zero bytes" — is a fixed 32×32 bit matrix,
and leading zero bytes do not change it.  So every extent is cut into
fixed-width blocks (the short head block right-aligned in a zeroed row),
the raw CRCs of all blocks are computed *across* blocks by slicing-by-8
table gathers down the columns of a ``(n_blocks, width/8)`` ``uint64``
matrix, each block CRC is advanced by ``Z`` of the bytes that follow it
in its extent, and the blocks of an extent are xor-reduced.  ``Z(n)`` is
applied by square-and-multiply over the bits of ``n``: one 4×256-entry
table per bit (``Z(2**b)``, built lazily by squaring the previous one).
The standard init/xor-out is the same operator once more: ``crc(m) =
raw(m) ^ Z(len m)(0xFFFFFFFF) ^ 0xFFFFFFFF``.  Blocks are processed in
slabs of ≈1 MiB of payload, so scratch memory is bounded however large
the buffer is (it may be a memory map).

Checksums are computed lazily — at :meth:`TiledGraph.save`, by ``repro
fsck --checksums``, or on demand when a chaos run enables decode-time
verification — so the default pipeline never pays for them.
"""

from __future__ import annotations

import threading

import numpy as np

_POLY = 0x82F63B78  # reversed Castagnoli polynomial

#: Block width of the NumPy kernel in bytes (a multiple of 8).  Wider
#: blocks mean fewer rows per table gather but more zero padding in front
#: of every extent's head block; 128 measured fastest on tile-sized
#: extents (a few hundred bytes) and on megabyte ones alike.
_BLOCK = 128
#: Payload bytes per slab: what bounds the kernel's scratch arrays.
_SLAB = 1 << 20

_TABLES: "list[list[int]] | None" = None
_NP_TABLES: "np.ndarray | None" = None
#: ``_ZERO_TABLES[b]`` is ``Z(2**b)`` as a ``(4, 256)`` uint32 lookup:
#: row ``k`` maps byte ``k`` of the register to its image.
_ZERO_TABLES: "list[np.ndarray]" = []
_ZERO_TABLES_LOCK = threading.Lock()


def _make_tables() -> "list[list[int]]":
    t0 = [0] * 256
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        t0[n] = c
    tables = [t0]
    for k in range(1, 8):
        prev = tables[k - 1]
        tables.append([t0[c & 0xFF] ^ (c >> 8) for c in prev])
    return tables


def _tables() -> "list[list[int]]":
    global _TABLES
    if _TABLES is None:
        _TABLES = _make_tables()
    return _TABLES


def crc32c(data: "bytes | bytearray | memoryview", crc: int = 0) -> int:
    """CRC32C of ``data``; pass a previous result as ``crc`` to chain."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _tables()
    mv = memoryview(data)
    if mv.ndim != 1 or mv.itemsize != 1:
        mv = mv.cast("B")
    buf = mv.tobytes()  # one copy; int indexing on bytes is fastest
    crc ^= 0xFFFFFFFF
    n = len(buf)
    i = 0
    # Slicing-by-8: fold one 64-bit word per iteration.
    end8 = n - (n % 8)
    while i < end8:
        x = int.from_bytes(buf[i : i + 8], "little") ^ crc
        crc = (
            t7[x & 0xFF]
            ^ t6[(x >> 8) & 0xFF]
            ^ t5[(x >> 16) & 0xFF]
            ^ t4[(x >> 24) & 0xFF]
            ^ t3[(x >> 32) & 0xFF]
            ^ t2[(x >> 40) & 0xFF]
            ^ t1[(x >> 48) & 0xFF]
            ^ t0[(x >> 56) & 0xFF]
        )
        i += 8
    while i < n:
        crc = t0[(crc ^ buf[i]) & 0xFF] ^ (crc >> 8)
        i += 1
    return crc ^ 0xFFFFFFFF


# --------------------------------------------------------------------- #
# The NumPy kernel
# --------------------------------------------------------------------- #


def _np_tables() -> np.ndarray:
    """The slicing-by-8 tables as one ``(8, 256)`` uint64 array."""
    global _NP_TABLES
    if _NP_TABLES is None:
        _NP_TABLES = np.array(_tables(), dtype=np.uint64)
    return _NP_TABLES


def _zero_table(bit: int) -> np.ndarray:
    """``Z(2**bit)`` — append ``2**bit`` zero bytes — as a (4, 256) table."""
    zt = _ZERO_TABLES
    if bit < len(zt):
        return zt[bit]
    # The engine verifies on its prefetch thread and on serving threads at
    # once: grow the list under a lock, or two of them append the same
    # square and every later index is off by one.
    with _ZERO_TABLES_LOCK:
        if not zt:
            t0 = _np_tables()[0].astype(np.uint32)
            # One zero byte moves register byte k down to byte k-1; byte
            # 0 leaves through the table.
            shifts = np.arange(4, dtype=np.uint32)[:, None] * np.uint32(8)
            values = np.arange(256, dtype=np.uint32)[None, :] << shifts
            zt.append(t0[values & np.uint32(0xFF)] ^ (values >> np.uint32(8)))
        while len(zt) <= bit:
            zt.append(_apply_table(zt[-1], zt[-1]))  # Z(2n) = Z(n) ∘ Z(n)
    return zt[bit]


def _apply_table(table: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Image of every register in ``reg`` (uint32) under a (4, 256) table."""
    ff = np.uint32(0xFF)
    return (
        table[0][reg & ff]
        ^ table[1][(reg >> np.uint32(8)) & ff]
        ^ table[2][(reg >> np.uint32(16)) & ff]
        ^ table[3][reg >> np.uint32(24)]
    )


def _append_zeros(reg: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """``Z(nbytes[k])(reg[k])`` for every ``k``, in place; returns ``reg``."""
    if not reg.size:
        return reg
    for bit in range(int(nbytes.max()).bit_length()):
        sel = np.flatnonzero((nbytes >> bit) & 1)
        if sel.size:
            reg[sel] = _apply_table(_zero_table(bit), reg[sel])
    return reg


def _raw_block_crcs(rows: np.ndarray) -> np.ndarray:
    """Raw (init 0, no xor-out) CRC of every ``_BLOCK``-byte row of the
    C-contiguous ``(n, _BLOCK)`` uint8 matrix: slicing-by-8 down the
    columns of its little-endian uint64 view, all rows at once."""
    words = rows.view("<u8")
    t = _np_tables()
    ff = np.uint64(0xFF)
    reg = np.zeros(rows.shape[0], dtype=np.uint64)
    for c in range(words.shape[1]):
        x = words[:, c] ^ reg
        # Casting the byte lanes to intp up front is ~1.8x faster than
        # letting the gather convert a uint64 index array.
        reg = t[7][(x & ff).astype(np.intp)]
        for k in range(1, 8):
            reg ^= t[7 - k][((x >> np.uint64(8 * k)) & ff).astype(np.intp)]
    return reg.astype(np.uint32)


def crc32c_extents(
    buf: "bytes | bytearray | memoryview | np.ndarray",
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """CRC32C of every byte extent ``buf[offsets[k] : offsets[k] + sizes[k]]``.

    Bit-identical to ``[crc32c(buf[o : o + s]) for o, s in zip(offsets,
    sizes)]`` (an empty extent checksums to 0), as a ``uint32`` array.
    Extents may come in any order, overlap, or be empty; ``buf`` is any
    C-contiguous buffer, a memory map included.  Raises
    :class:`ValueError` for an extent that does not lie inside the buffer.
    Runs the compiled kernel (:func:`repro.algorithms.native.crc32c_extents`)
    when it is loaded, else the NumPy one, whose scratch memory is bounded
    by the slab size, not by ``len(buf)``.
    """
    # Imported here: importing repro.algorithms imports this module.
    from repro.algorithms import native

    if native.lib is not None:
        return native.crc32c_extents(buf, offsets, sizes)
    return _numpy_extents(buf, offsets, sizes)


def _numpy_extents(
    buf: "bytes | bytearray | memoryview | np.ndarray",
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """:func:`crc32c_extents`'s NumPy body: the fallback, and the compiled
    kernel's oracle."""
    data = np.frombuffer(buf, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape or offsets.ndim != 1:
        raise ValueError("offsets and sizes must be equal-length 1-D arrays")
    n = offsets.shape[0]
    out = np.zeros(n, dtype=np.uint32)
    if not n:
        return out
    if (
        int(offsets.min()) < 0
        or int(sizes.min()) < 0
        # Not offsets + sizes, which can overflow int64.
        or (offsets > data.shape[0] - sizes).any()
    ):
        raise ValueError(
            f"extent outside the {data.shape[0]}-byte buffer"
        )
    w = _BLOCK
    n_blocks = -(-sizes // w)  # per extent; the head block may be short
    first = np.cumsum(n_blocks) - n_blocks
    total = int(first[-1] + n_blocks[-1])
    ends = offsets + sizes
    lane = np.arange(w, dtype=np.int64)
    # A block is the ``w`` bytes that end where it ends: one row of the
    # sliding-window view, gathered by start offset.  A head block near the
    # front of the buffer would start before byte 0; those rows come from
    # ``front``, the buffer's first bytes behind ``w`` zeros.
    view = np.lib.stride_tricks.sliding_window_view
    windows = view(data, w) if data.shape[0] >= w else None
    front = view(np.concatenate([np.zeros(w, np.uint8), data[:w]]), w)
    for b0 in range(0, total, _SLAB // w):
        blk = np.arange(b0, min(b0 + _SLAB // w, total), dtype=np.int64)
        # Owning extent of each block, then the block's byte span: blocks
        # are laid back from the extent's end, so only the head is short.
        ext = np.searchsorted(first, blk, side="right") - 1
        after = (n_blocks[ext] - 1 - (blk - first[ext])) * w  # bytes behind
        start = ends[ext] - after - w
        rows = np.empty((blk.shape[0], w), dtype=np.uint8)
        inside = start >= 0
        sel = np.flatnonzero(inside)
        if sel.size:
            rows[sel] = windows[start[sel]]
        sel = np.flatnonzero(~inside)
        if sel.size:
            rows[sel] = front[start[sel] + w]
        # Zero what a short head's row holds in front of its extent:
        # leading zeros do not change a raw CRC.
        lead = offsets[ext] - start
        sel = np.flatnonzero(lead > 0)
        if sel.size:
            rows[sel] *= lane >= lead[sel, None]
        reg = _append_zeros(_raw_block_crcs(rows), after)
        # ``ext`` is non-decreasing: xor-reduce each extent's blocks in this
        # slab and fold them into its running CRC (an extent wider than a
        # slab collects several such pieces).
        cut = np.flatnonzero(np.diff(ext, prepend=-1))
        out[ext[cut]] ^= np.bitwise_xor.reduceat(reg, cut)
    # Standard init and xor-out, by the same operator.
    init = _append_zeros(np.full(n, 0xFFFFFFFF, dtype=np.uint32), sizes)
    out ^= init ^ np.uint32(0xFFFFFFFF)
    return out
