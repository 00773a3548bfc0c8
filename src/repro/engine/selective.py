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
from repro.storage.aio import IORequest


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
    stays an ``int64`` ndarray end to end — :func:`merge_requests`,
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


def merge_requests(
    positions: "np.ndarray | list[int]", start_edge: StartEdgeIndex
) -> "list[IORequest]":
    """Merge byte-adjacent positions into single extents.

    ``positions`` is the ``int64`` array :func:`select_positions` returns
    (plain lists still work).  The request ``tag`` carries the list of
    tile positions the extent covers, so completions can be sliced back
    into tiles.
    """
    pos_arr = np.asarray(positions, dtype=np.int64)
    if pos_arr.size == 0:
        return []
    se = start_edge.start_edge
    tb = start_edge.tuple_bytes
    starts = se[pos_arr].astype(np.int64) * tb
    ends = se[pos_arr + 1].astype(np.int64) * tb
    # A run breaks wherever the next tile does not begin where the
    # previous one ended (vectorised over the whole position list).
    breaks = np.nonzero(starts[1:] != ends[:-1])[0] + 1
    bounds = [0, *breaks.tolist(), int(pos_arr.size)]
    pos_list = pos_arr.tolist()  # python ints for the per-request tags
    requests: "list[IORequest]" = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        requests.append(
            IORequest(
                offset=int(starts[a]),
                size=int(ends[b - 1] - starts[a]),
                tag=pos_list[a:b],
            )
        )
    return requests

