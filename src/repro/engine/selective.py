"""Selective tile fetching (paper §V-B).

Given the algorithm's per-row activity, decide which disk positions must be
read this iteration and merge adjacent tiles into few large AIO requests
("these I/Os would be merged into a single AIO system call").  Empty tiles
are skipped outright, and byte-adjacent runs of needed tiles collapse into
one extent — within a physical group every run is sequential on disk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import BatchLayout, TiledGraph, batch_bases
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


def split_extents(
    positions: np.ndarray,
    start_edge: StartEdgeIndex,
    bounds: "Sequence[int]",
    graph: "TiledGraph | None" = None,
) -> "tuple[tuple[Extents, ...], tuple[BatchLayout, ...]]":
    """For each batch ``positions[bounds[k] : bounds[k + 1]]`` of an
    ``int64`` fetch set: its byte-adjacent tiles merged into extents and,
    given ``graph``, its :class:`~repro.format.tiles.BatchLayout` (else no
    layouts).  One gather of the start-edge index over the whole set, in
    which a run also breaks at every batch bound, then a few slices per
    batch: the one place positions are split into runs.

    Each extent record keeps its batch's positions and says where each
    extent's tiles start among them (``first``, batch-local).
    """
    se = start_edge.start_edge
    lo = se[positions].astype(np.int64)
    hi = se[positions + 1].astype(np.int64)
    n = positions.shape[0]
    # A run breaks wherever the next tile does not begin where the
    # previous one ended, and at every batch bound.
    starts = np.zeros(n + 1, dtype=bool)
    starts[1:n] = lo[1:] != hi[:-1]
    starts[np.asarray(bounds)] = True
    first = np.flatnonzero(starts)  # run starts, then n
    edge_lo = lo[first[:-1]]
    tb = start_edge.tuple_bytes
    offsets = edge_lo * tb
    sizes = (hi[first[1:] - 1] - edge_lo) * tb
    runs = first.searchsorted(bounds).tolist()
    if graph is not None:
        counts = hi - lo
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=csum[1:])
        sb, db = batch_bases(graph, positions)
    extents, layouts = [], []
    for a, b, ra, rb in zip(bounds[:-1], bounds[1:], runs[:-1], runs[1:]):
        run_first = first[ra : rb + 1] - a
        extents.append(Extents(
            offsets=offsets[ra:rb], sizes=sizes[ra:rb],
            positions=positions[a:b], first=run_first,
        ))
        if graph is not None:
            tile_bounds = csum[a : b + 1] - csum[a]
            layouts.append(BatchLayout(
                counts[a:b], tile_bounds, tile_bounds[run_first],
                edge_lo[ra:rb], sb[a:b], db[a:b],
            ))
    return tuple(extents), tuple(layouts)


def merge_extents(
    positions: "np.ndarray | list[int]", start_edge: StartEdgeIndex
) -> Extents:
    """Merge byte-adjacent positions into single extents, as arrays: the
    one-batch case of :func:`split_extents`, without a layout.

    ``positions`` is the ``int64`` array :func:`select_positions` returns
    (plain lists still work).
    """
    pos_arr = np.asarray(positions, dtype=np.int64)
    return split_extents(pos_arr, start_edge, (0, pos_arr.shape[0]))[0][0]


def batch_extents(
    positions: np.ndarray, graph: TiledGraph
) -> "tuple[Extents, BatchLayout]":
    """One batch's merged extents and layout: the one-batch case of
    :func:`split_extents`, for a reader that fetches one set of tiles
    (the engine's rewind, the serving lookup)."""
    (ext,), (layout,) = split_extents(
        positions, graph.start_edge, (0, positions.shape[0]), graph
    )
    return ext, layout


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
