"""Worker-side half of the ``low_shard_floor`` fixture (tests/conftest.py).

Shard workers are spawned processes that import ``repro`` afresh, so a
floor lowered in the test process would not reach them — and a worker
chunking at another floor commits PageRank partials in another order.
Kept apart from conftest so a worker imports this and nothing of pytest.
"""

import repro.types
from repro.runtime.shard import _shard_worker_main

#: Low enough that the matrices' ~2 000-edge batches still cut into
#: several shards, high enough that their smaller batches cut into fewer:
#: the floor's own arithmetic runs on every execution path under test.
LOW_FLOOR = 256


def worker_main(*args) -> None:
    repro.types.MIN_SHARD_EDGES = LOW_FLOOR
    _shard_worker_main(*args)
