"""Core scalar and dtype definitions shared across the G-Store reproduction.

The paper fixes vertex IDs at 4 bytes for graphs below 2**32 vertices and
8 bytes above; tiles use *local* IDs of 2 bytes (``tile_bits = 16``).  We keep
the same conventions but make the tile width a parameter so that scaled-down
graphs still produce interesting tile grids.
"""

from __future__ import annotations

import numpy as np

#: Global vertex identifier dtype (paper: 4-byte IDs below 2**32 vertices).
VERTEX_DTYPE = np.uint32

#: Dtype used for edge/byte offsets in index structures (start-edge file).
OFFSET_DTYPE = np.uint64

#: Dtype for per-vertex degrees when stored uncompressed.
DEGREE_DTYPE = np.uint32

#: Sentinel depth for unvisited vertices in traversal algorithms.
INF_DEPTH = np.iinfo(np.uint32).max

#: Number of bits of a vertex ID that index *within* a tile (paper default).
DEFAULT_TILE_BITS = 16

#: Default physical-group side, in tiles (paper: q = 256 for Twitter).
DEFAULT_GROUP_Q = 256

#: Bytes per disk sector; Linux AIO with O_DIRECT requires 512-byte alignment.
SECTOR_BYTES = 512

#: Default RAID-0 stripe size used in the paper's evaluation (64 KB).
DEFAULT_STRIPE_BYTES = 64 * 1024

#: How a decoded batch is cut for fused execution
#: (``format.tiles.shard_cuts``): a batch of fewer runs is split into this
#: many equal-edge pieces and the pieces are grouped into at most this
#: many shards — eight shards keep a thread pool busy.  Partials are
#: committed in shard order, so the shard structure is a live kernel's
#: relaxation order (and so its edge and iteration counts): it must never
#: depend on a worker count, and every path (engine, layer walk) gets it
#: from :func:`shard_pieces`.
SHARDS_PER_BATCH = 8

#: Fewest edges a shard is cut down to.  A fused kernel is a dozen NumPy
#: calls per shard, so below a few thousand edges the calls cost more than
#: the edges: eight ~1 000-edge shards of a one-tile batch run slower than
#: the batch as one shard (docs/PERFORMANCE.md "A FIFO engine lane").
MIN_SHARD_EDGES = 4096


def shard_pieces(pieces: int, total_edges: int) -> int:
    """``pieces`` lowered until no shard of a ``total_edges`` batch falls
    under :data:`MIN_SHARD_EDGES` (never below one piece).

    The one rule both halves of the batch split apply, so the structure is
    a function of the batch contents alone on every execution path.
    """
    return max(1, min(pieces, total_edges // MIN_SHARD_EDGES))


def local_dtype(tile_bits: int) -> np.dtype:
    """Smallest unsigned dtype able to hold a local (in-tile) vertex ID.

    This is the "smallest number of bits" (SNB) representation at byte
    granularity: with the paper's ``tile_bits = 16`` every local ID fits in
    two bytes, so an edge tuple costs four bytes instead of eight.
    """
    if tile_bits <= 0:
        raise ValueError(f"tile_bits must be positive, got {tile_bits}")
    if tile_bits <= 8:
        return np.dtype(np.uint8)
    if tile_bits <= 16:
        return np.dtype(np.uint16)
    if tile_bits <= 32:
        return np.dtype(np.uint32)
    raise ValueError(f"tile_bits > 32 unsupported, got {tile_bits}")


def edge_tuple_bytes(tile_bits: int) -> int:
    """On-disk bytes for one SNB edge tuple (two local IDs)."""
    return 2 * local_dtype(tile_bits).itemsize


def vertex_bytes_needed(n_vertices: int) -> int:
    """Bytes required for a *global* vertex ID in traditional formats.

    Mirrors the paper's accounting: 4 bytes below 2**32 vertices, 8 above
    (the Kron-33-16 row of Table II).
    """
    if n_vertices <= 0:
        raise ValueError(f"n_vertices must be positive, got {n_vertices}")
    if n_vertices <= 2**32:
        return 4
    return 8
