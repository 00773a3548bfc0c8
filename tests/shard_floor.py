"""The shard floor every equivalence run uses — in this process and in
every shard worker spawned meanwhile.

The lattice's graphs (``tools/equiv_matrix.py``) slide ~2 000-edge
batches, under the shipped ``MIN_SHARD_EDGES``: lowered, they still cut
into several shards.  Shard workers are spawned processes that import
``repro`` afresh, so a floor lowered here alone would not reach them —
and a worker chunking at another floor commits PageRank partials in
another order.  :func:`lowered` sets both sides; the tool and the
``low_shard_floor`` fixture (tests/conftest.py) run under it.  Kept apart
from conftest so a worker imports this and nothing of pytest.
"""

import contextlib

import repro.runtime.shard
import repro.types
from repro.runtime.shard import _shard_worker_main

#: Low enough that the lattice's ~2 000-edge batches still cut into
#: several shards, high enough that their smaller batches cut into fewer:
#: the floor's own arithmetic runs on every execution path under test.
LOW_FLOOR = 256


def worker_main(*args) -> None:
    repro.types.MIN_SHARD_EDGES = LOW_FLOOR
    _shard_worker_main(*args)


@contextlib.contextmanager
def lowered():
    """``MIN_SHARD_EDGES = LOW_FLOOR`` for the coordinator and for every
    shard worker spawned inside the block."""
    saved = repro.types.MIN_SHARD_EDGES, repro.runtime.shard._shard_worker_main
    repro.types.MIN_SHARD_EDGES = LOW_FLOOR
    repro.runtime.shard._shard_worker_main = worker_main
    try:
        yield LOW_FLOOR
    finally:
        repro.types.MIN_SHARD_EDGES, repro.runtime.shard._shard_worker_main = saved
