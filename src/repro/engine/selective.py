"""Selective tile fetching (paper §V-B).

Given the algorithm's per-row activity, decide which disk positions must be
read this iteration and merge adjacent tiles into few large AIO requests
("these I/Os would be merged into a single AIO system call").  Empty tiles
are skipped outright, and byte-adjacent runs of needed tiles collapse into
one extent — within a physical group every run is sequential on disk.
"""

from __future__ import annotations

import numpy as np

from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import TiledGraph
from repro.memory.proactive import tiles_needed_for_rows
from repro.storage.aio import Extents, IORequest


def select_positions(
    graph: TiledGraph,
    rows_active: np.ndarray,
    cols_active: "np.ndarray | None" = None,
    tile_mask: "np.ndarray | None" = None,
) -> np.ndarray:
    """Disk positions (``np.int64`` array, in disk order) the current
    iteration must process.

    ``tile_mask`` (when an algorithm provides one) is an exact per-tile
    predicate that overrides the row/column OR-combination.  The result
    stays an ``int64`` ndarray end to end — :func:`merge_extents`,
    :meth:`~repro.memory.scr.SCRScheduler.split_cached`, and the byte
    accounting all fancy-index with it directly, no list round-trips.
    """
    if tile_mask is not None:
        need = np.asarray(tile_mask, dtype=bool)
    else:
        need = tiles_needed_for_rows(
            graph.tile_rows,
            graph.tile_cols,
            rows_active,
            graph.info.symmetric,
            col_active=cols_active,
        )
    nonempty = graph.tile_edge_counts() > 0
    return np.nonzero(need & nonempty)[0].astype(np.int64, copy=False)


def dense_positions(graph: TiledGraph) -> np.ndarray:
    """Every non-empty disk position, in disk order.

    The dense (selective-off) iteration plan: what an iteration fetches
    when activity-aware skipping is disabled, and the baseline the
    ``bytes_skipped`` accounting measures savings against.
    """
    return np.nonzero(graph.tile_edge_counts() > 0)[0].astype(
        np.int64, copy=False
    )


def merge_extents(
    positions: "np.ndarray | list[int]", start_edge: StartEdgeIndex
) -> Extents:
    """Merge byte-adjacent positions into single extents, as arrays.

    ``positions`` is the ``int64`` array :func:`select_positions` returns
    (plain lists still work).  The record keeps it and says where each
    extent's tiles start in it (``first``), so a fetched batch decodes
    without a per-extent object (:meth:`TiledGraph.decode_extents`).
    """
    pos_arr = np.asarray(positions, dtype=np.int64)
    se = start_edge.start_edge
    lo = se[pos_arr]
    hi = se[pos_arr + 1]
    # A run breaks wherever the next tile does not begin where the
    # previous one ended (vectorised over the whole position list).
    breaks = np.flatnonzero(lo[1:] != hi[:-1]) + 1
    n = pos_arr.size
    first = np.concatenate(([0], breaks, [n])) if n else np.zeros(1, np.int64)
    edge_lo = lo[first[:-1]].astype(np.int64)
    edge_hi = hi[first[1:] - 1].astype(np.int64)
    tb = start_edge.tuple_bytes
    return Extents(
        offsets=edge_lo * tb,
        sizes=(edge_hi - edge_lo) * tb,
        positions=pos_arr,
        first=first,
    )


def merge_requests(
    positions: "np.ndarray | list[int]", start_edge: StartEdgeIndex
) -> "list[IORequest]":
    """:func:`merge_extents` as one :class:`IORequest` per extent, its
    ``tag`` the list of tile positions the extent covers.  Nothing in
    ``src/`` calls it; kept only because ``benchmarks/perf/layer_walk.py``
    does."""
    ext = merge_extents(positions, start_edge)
    pos_list = ext.positions.tolist()
    bounds = ext.first.tolist()
    return [
        IORequest(offset=off, size=size, tag=pos_list[a:b])
        for off, size, a, b in zip(
            ext.offsets.tolist(), ext.sizes.tolist(), bounds[:-1], bounds[1:]
        )
    ]
