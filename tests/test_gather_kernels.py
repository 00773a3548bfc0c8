"""Gather kernels index with ``intp`` whatever endpoint dtype arrives.

Each gather kernel widens its shard's endpoints with
:func:`~repro.algorithms.base.gather_ids` before its first gather, so
the decoder's ``uint32`` arrays and already-widened ``intp`` arrays give
identical partials.  A kernel reads its algorithm's arrays where they
live and writes none of them: every shipped algorithm runs whole engine
runs with each kernel call made on read-only state.  A corrupt endpoint
still fails typed.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.algorithms  # noqa: F401 - imports every algorithm module
from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.mis import MaximalIndependentSet
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.reachability import Reachability
from repro.algorithms.scc import SubgraphDegrees
from repro.algorithms.sssp import SSSP, edge_weights
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.tiles import TileEdges, concat_global_edges
from tools import equiv_matrix

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


@contextlib.contextmanager
def read_only(algo):
    """Every ``ndarray`` attribute of ``algo`` read-only inside the block:
    a kernel that writes its state raises instead."""
    arrays = []
    for a in vars(algo).values():
        if isinstance(a, np.ndarray) and a.flags.writeable:
            a.flags.writeable = False
            arrays.append(a)
    try:
        yield
    finally:
        # An array before any view of it: a view of a read-only array
        # cannot be made writeable.
        for a in sorted(arrays, key=lambda a: a.base is not None):
            a.flags.writeable = True


def _partial(algo, gsrc, gdst):
    extra = (_frozen(edge_weights(gsrc, gdst)),) if isinstance(algo, SSSP) else ()
    with read_only(algo):
        return algo.kernel_partial(gsrc, gdst, *extra)


def _fields(tiles: TileEdges) -> tuple:
    return tiles.pairs, tiles.counts, tiles.src_base, tiles.dst_base


def _same(a, b) -> bool:
    if isinstance(a, TileEdges):
        return isinstance(b, TileEdges) and _same(_fields(a), _fields(b))
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


# ---------------------------------------------------------------------- #
# A kernel writes none of its algorithm's state
# ---------------------------------------------------------------------- #


#: Every shipped algorithm: the lattice's (``tools/equiv_matrix.py``) and
#: SCC's trim sweep.
SHIPPED = [*sorted(equiv_matrix.algorithms()), "scc-degrees"]


def _make(name: str, tg) -> TileAlgorithm:
    if name == "scc-degrees":  # over two thirds of the vertices
        return SubgraphDegrees(np.arange(tg.n_vertices) % 3 > 0)
    return equiv_matrix.algorithms()[name]()


@pytest.fixture(scope="module")
def lattice_graphs():
    return {
        kind: equiv_matrix.tiled(el)
        for kind, el in equiv_matrix.edge_lists().items()
    }


def test_every_shipped_algorithm_is_checked_read_only(lattice_graphs):
    shipped = {
        cls for cls in TileAlgorithm.__subclasses__()
        if cls.__module__.startswith("repro.algorithms.")
    }
    tg = lattice_graphs["undirected"]
    assert shipped == {type(_make(name, tg)) for name in SHIPPED}


@pytest.mark.usefixtures("low_shard_floor")
@pytest.mark.parametrize("kind", ["undirected", "directed", "edge-cases"])
@pytest.mark.parametrize("name", SHIPPED)
def test_kernel_writes_no_state(name, kind, lattice_graphs, cpus):
    """Through a whole engine run on a lattice graph, every kernel call
    is made twice — once as it comes, once with every ``ndarray``
    attribute of the instance read-only — and the two partials are the
    same; nothing raises.  This is the guarantee that lets a ``pooled``
    kernel's partials run side by side and commit in shard order."""
    cpus(1)
    tg = lattice_graphs[kind]
    algo = _make(name, tg)
    kernel = algo.kernel_partial
    calls = []

    def checked(*args):
        # (gsrc, gdst, [w]), or a scatter kernel's one TileEdges.
        want = kernel(*args)
        with read_only(algo):
            got = kernel(*args)
        assert _same(got, want)
        shard = args[0]
        calls.append(shard.n_edges if isinstance(shard, TileEdges)
                     else int(shard.shape[0]))
        return want

    algo.kernel_partial = checked
    memory, segment = equiv_matrix.BUDGETS[1]
    cfg = EngineConfig(memory_bytes=memory, segment_bytes=segment)
    with GStoreEngine(tg, cfg) as engine:
        engine.run(algo)
    assert sum(calls) > 0
