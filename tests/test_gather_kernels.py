"""Gather kernels index with ``intp`` whatever endpoint dtype arrives.

Each gather kernel widens its shard's endpoints with
:func:`~repro.algorithms.base.gather_ids` before its first gather, so
the decoder's ``uint32`` arrays and already-widened ``intp`` arrays give
identical partials.  State and endpoints are handed in read-only, as
shard workers map them from shared memory, and a corrupt endpoint still
fails typed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.base import gather_ids
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.mis import MaximalIndependentSet
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP, edge_weights
from repro.format.tiles import concat_global_edges

KERNELS = {
    "bfs": lambda: BFS(root=0),
    "bfs-direction-optimizing": lambda: BFS(root=0, direction_optimizing=True),
    "sssp": lambda: SSSP(root=0),
    "async_bfs": lambda: AsyncBFS(root=0),
    "cc": ConnectedComponents,
    "kcore": lambda: KCore(k=12),
    "mis": MaximalIndependentSet,
    "reachability": lambda: Reachability([0, 7]),
    "reachability-backward": lambda: Reachability([0, 7], forward=False),
    "multibfs": lambda: MultiSourceBFS([0, 7, 300]),
}


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _edges(tg):
    """Every stored edge, as the decoder hands a shard to a kernel."""
    views = [
        tg.tile_view(int(pos))
        for pos in np.nonzero(tg.tile_edge_counts() > 0)[0]
    ]
    return concat_global_edges(views)


def _partial(algo, gsrc, gdst):
    state = {k: _frozen(v) for k, v in algo.kernel_state().items()}
    extra = (_frozen(edge_weights(gsrc, gdst)),) if isinstance(algo, SSSP) else ()
    return algo.kernel_partial(state, algo.kernel_params(), gsrc, gdst, *extra)


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return (
            isinstance(b, tuple) and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def test_gather_ids_widens_once():
    narrow = _frozen(np.array([3, 0, 2**32 - 1], dtype=np.uint32))
    wide, _ = gather_ids(narrow, narrow)
    assert wide.dtype == np.intp and wide.flags.writeable
    assert not np.shares_memory(wide, narrow)
    assert wide.tolist() == narrow.tolist()
    again, _ = gather_ids(wide, wide)
    assert again is wide


@pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_partials_do_not_depend_on_endpoint_dtype(name, graph, request):
    """Drive the kernel iteration by iteration over the whole graph as
    one shard; at every iteration both dtypes give the same partial."""
    tg = request.getfixturevalue(graph)
    src32, dst32 = (_frozen(a) for a in _edges(tg))
    assert src32.dtype == dst32.dtype == np.uint32
    srcp, dstp = (_frozen(a.astype(np.intp)) for a in (src32, dst32))
    algo = KERNELS[name]()
    algo.setup(tg)
    for it in range(6):
        algo.begin_iteration(it)
        narrow = _partial(algo, src32, dst32)
        assert _same(narrow, _partial(algo, srcp, dstp)), it
        algo.apply_partial(narrow)
        if not algo.end_iteration(it):
            break
    assert it >= 1, "the kernel converged before a second iteration"


@pytest.mark.parametrize("name", ["bfs", "sssp", "async_bfs", "cc", "reachability"])
@pytest.mark.parametrize("side", ["src", "dst"])
@pytest.mark.parametrize("bad", ["len(state)", 2**32 - 1])
def test_corrupt_endpoint_raises_index_error(name, side, bad, tiled_undirected):
    tg = tiled_undirected
    gsrc, gdst = (np.array(a) for a in _edges(tg))
    bad = tg.n_vertices if bad == "len(state)" else bad
    (gsrc if side == "src" else gdst)[5] = bad
    algo = KERNELS[name]()
    algo.setup(tg)
    algo.begin_iteration(0)
    with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
        _partial(algo, _frozen(gsrc), _frozen(gdst))
