"""The shard floor every equivalence run uses.

The lattice's graphs (``tools/equiv_matrix.py``) slide ~2 000-edge
batches, under the shipped ``MIN_SHARD_EDGES``: lowered, they still cut
into several shards, so the thread pool and the serial sweep both run
their multi-shard paths.  The tool and the ``low_shard_floor`` fixture
(tests/conftest.py) run under :func:`lowered`.  Kept apart from conftest
so the tool imports this and nothing of pytest.
"""

import contextlib

import repro.types

#: Low enough that the lattice's ~2 000-edge batches still cut into
#: several shards, high enough that their smaller batches cut into fewer:
#: the floor's own arithmetic runs on every execution path under test.
LOW_FLOOR = 256


@contextlib.contextmanager
def lowered():
    """``MIN_SHARD_EDGES = LOW_FLOOR`` inside the block."""
    saved = repro.types.MIN_SHARD_EDGES
    repro.types.MIN_SHARD_EDGES = LOW_FLOOR
    try:
        yield LOW_FLOOR
    finally:
        repro.types.MIN_SHARD_EDGES = saved
