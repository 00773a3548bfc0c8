"""Random contiguous cuts of a batch into shards, through the one seam an
algorithm class owns: ``shard_views``.

The engine calls an algorithm's kernel once per shard of a fetched batch,
and an answer must not depend on where the shards are cut (the kernel
contract, ``TileAlgorithm.apply_partial``).  :func:`cut_batches` replaces
the cut for a block — random contiguous pieces in plan order, down to one
tile or one edge per piece — so a test can hold an algorithm to that.
Kept apart from the tests that use it, as ``shard_floor`` is.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
from hypothesis import strategies as st

#: How a cut is drawn: where a batch may be cut (between any two edges, or
#: only between tiles), how many cuts a batch gets at most (64 cuts put
#: every tile of a lattice batch in a piece of its own), whether the cuts
#: are consecutive boundaries (a run of one-edge or one-tile pieces), and
#: the seed that places them.
CUTS = st.tuples(
    st.sampled_from(["edge", "tile"]),
    st.sampled_from([1, 3, 16, 64]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
#: Every tile in a shard of its own.
PER_TILE = ("tile", 1 << 30, False, 0)
#: No cut: each batch is one shard.
WHOLE = ("edge", 0, False, 0)


def _cutter(tg, unit, max_cuts, consecutive, seed):
    """A ``shard_views`` that cuts each batch into random contiguous pieces
    in plan order, placed as the drawn cut says."""
    rng = np.random.default_rng(seed)
    tile_starts = tg.start_edge.start_edge.astype(np.int64)

    def cut(views):
        sizes = np.array([tv.n_edges for tv in views], dtype=np.int64)
        first = np.concatenate([[0], np.cumsum(sizes)])
        if unit == "edge":
            bounds = np.arange(1, first[-1])
        else:  # tile starts inside each view, and the views' own edges
            lo = np.array([tv.edge_lo for tv in views], dtype=np.int64)
            inner = [
                first[k] + tile_starts[(tile_starts > lo[k])
                                       & (tile_starts < lo[k] + sizes[k])]
                - lo[k]
                for k in range(len(views))
            ]
            bounds = np.union1d(np.concatenate(inner), first[1:-1])
        m = min(max_cuts, bounds.size)
        if consecutive:
            start = int(rng.integers(0, bounds.size - m + 1))
            chosen = bounds[start:start + m]
        else:
            chosen = np.sort(rng.choice(bounds, m, replace=False))
        pieces = []
        for a, b in zip(np.concatenate([[0], chosen]),
                        np.concatenate([chosen, [first[-1]]])):
            piece = []
            for k in np.flatnonzero((first[:-1] < b) & (first[1:] > a)):
                x = max(a, first[k]) - first[k]
                y = min(b, first[k + 1]) - first[k]
                piece.append(_slice(views[k], x, y))
            pieces.append(piece)
        return pieces

    return cut


def _slice(tv, a, b):
    """Edges ``[a, b)`` of a view, zero-copy, as ``split_run_views`` cuts."""
    if (a, b) == (0, tv.n_edges):
        return tv
    return dataclasses.replace(
        tv, lsrc=tv.lsrc[a:b], ldst=tv.ldst[a:b], edge_lo=tv.edge_lo + a,
        _gsrc=None if tv._gsrc is None else tv._gsrc[a:b],
        _gdst=None if tv._gdst is None else tv._gdst[a:b],
    )


@contextlib.contextmanager
def cut_batches(algorithm_class, tg, cut):
    """Within the block, ``algorithm_class`` cuts every batch of ``tg`` as
    ``cut`` (a draw of :data:`CUTS`, :data:`PER_TILE` or :data:`WHOLE`)
    says."""
    cutter = _cutter(tg, *cut)
    with mock.patch.object(
        algorithm_class, "shard_views",
        classmethod(lambda cls, views: cutter(views)),
    ):
        yield
