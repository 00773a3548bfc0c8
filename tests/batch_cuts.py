"""Random contiguous cuts of a batch into shards, through the one seam an
algorithm class owns: ``shard_cuts``.

The engine calls an algorithm's kernel once per shard of a fetched batch,
and an answer must not depend on where the shards are cut (the kernel
contract, ``TileAlgorithm.apply_partial``).  :func:`cut_batches` replaces
the cut for a block — random contiguous pieces in plan order, down to one
tile or one edge per piece — so a test can hold an algorithm to that.
Kept apart from the tests that use it, as ``shard_floor`` is.
"""

import contextlib
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
    """A ``shard_cuts`` that cuts each batch into random contiguous pieces
    in plan order, placed as the drawn cut says."""
    rng = np.random.default_rng(seed)
    tile_starts = tg.start_edge.start_edge.astype(np.int64)

    def cut(batch):
        first = batch.run_bounds  # batch-edge offset of each run
        n = int(first[-1])
        if unit == "edge":
            bounds = np.arange(1, n)
        else:  # tile starts inside each run, and the runs' own bounds
            lo = batch.run_edge_lo
            sizes = np.diff(first)
            inner = [
                first[k] + tile_starts[(tile_starts > lo[k])
                                       & (tile_starts < lo[k] + sizes[k])]
                - lo[k]
                for k in range(lo.shape[0])
            ]
            bounds = np.union1d(np.concatenate(inner), first[1:-1])
        m = min(max_cuts, bounds.size)
        if consecutive:
            start = int(rng.integers(0, bounds.size - m + 1))
            chosen = bounds[start:start + m]
        else:
            chosen = np.sort(rng.choice(bounds, m, replace=False))
        return np.concatenate([[0], chosen, [n]]).astype(np.int64)

    return cut


@contextlib.contextmanager
def cut_batches(algorithm_class, tg, cut):
    """Within the block, ``algorithm_class`` cuts every batch of ``tg`` as
    ``cut`` (a draw of :data:`CUTS`, :data:`PER_TILE` or :data:`WHOLE`)
    says."""
    cutter = _cutter(tg, *cut)
    with mock.patch.object(
        algorithm_class, "shard_cuts",
        classmethod(lambda cls, batch: cutter(batch)),
    ):
        yield
