"""Gather kernels index with ``intp`` whatever endpoint dtype arrives,
and the traversals read tile form whatever form the edges take.

Each kernel that reads global IDs widens its shard's endpoints with
:func:`~repro.algorithms.base.gather_ids` before its first gather, so
the decoder's ``uint32`` arrays and already-widened ``intp`` arrays give
identical partials.  A traversal kernel (``reads_ids`` false) reads the
shard in tile form, and the stored SNB locals under their tiles' bases
give the partial the same edges as global IDs under base 0 give.  A
kernel reads its algorithm's arrays where they live and writes none of
them: every shipped algorithm runs whole engine runs with each kernel
call made twice, once on read-only state, and the state's bytes the same
after both.  A corrupt endpoint still fails typed.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect

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


def _tiles(tg) -> TileEdges:
    """Every stored edge in tile form, as the slide hands a shard to a
    traversal kernel: the SNB locals under their tiles' bases."""
    ((_, batch),) = tg.scan(slab_bytes=1 << 62)
    return batch.tiles


def _partial(algo, edges, w=None):
    """The kernel's partial on read-only state: ``edges`` is ``(gsrc,
    gdst)`` or, for a traversal, a :class:`TileEdges`; SSSP gets the
    endpoint hash as stored weights."""
    if not algo.reads_ids and not isinstance(edges, TileEdges):
        edges = TileEdges.of_ids(*edges)
    args = (edges,) if isinstance(edges, TileEdges) else edges
    if isinstance(algo, SSSP):
        args += (_frozen(edge_weights(*edges.widen())) if w is None else w,)
    with read_only(algo):
        return algo.kernel_partial(*args)


def _same(a, b) -> bool:
    if isinstance(a, TileEdges):  # the same edges in the same order
        return isinstance(b, TileEdges) and _same(a.widen(), b.widen())
    if isinstance(a, tuple):
        return (
            isinstance(b, tuple) and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _state_digest(algo) -> dict:
    """sha256 of every ``ndarray`` attribute of ``algo``."""
    return {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in vars(algo).items() if isinstance(a, np.ndarray)
    }


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
    one shard; at every iteration both dtypes give the same partial — and
    for a traversal, the stored locals under their bases and the global
    IDs under base 0 give the same partial too (the same edges)."""
    tg = request.getfixturevalue(graph)
    src32, dst32 = (_frozen(a) for a in _edges(tg))
    assert src32.dtype == dst32.dtype == np.uint32
    srcp, dstp = (_frozen(a.astype(np.intp)) for a in (src32, dst32))
    algo = KERNELS[name]()
    algo.setup(tg)
    stored = _tiles(tg)
    assert tg.snb and stored.pairs.dtype != np.uint32
    for it in range(6):
        algo.begin_iteration(it)
        narrow = _partial(algo, (src32, dst32))
        assert _same(narrow, _partial(algo, (srcp, dstp))), it
        if not algo.reads_ids:
            w = narrow[1] if isinstance(algo, SSSP) else None
            assert _same(narrow, _partial(algo, stored, w)), it
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
    before = _state_digest(algo)
    with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
        # A live relaxation (SSSP, AsyncBFS) reads the edges at commit.
        algo.apply_partial(_partial(algo, (_frozen(gsrc), _frozen(gdst))))
    assert _state_digest(algo) == before


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
        cls for base in TileAlgorithm.__subclasses__()
        for cls in (base, *base.__subclasses__())
        if cls.__module__.startswith("repro.algorithms.")
        and not inspect.isabstract(cls)  # the live relaxation's shared half
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
    same, nothing raises, and every attribute's bytes are what they were
    before the first call.  The digest is what catches a compiled kernel
    that writes: C writes through a buffer converted while its array was
    writable (a run's :class:`~repro.algorithms.native.Held` buffers)
    whatever the array's flag says later.  This is the guarantee that
    lets a ``pooled`` kernel's partials run side by side and commit in
    shard order."""
    cpus(1)
    tg = lattice_graphs[kind]
    algo = _make(name, tg)
    kernel = algo.kernel_partial
    calls = []

    def checked(*args):
        # (gsrc, gdst), or a tile-form kernel's TileEdges (SSSP: [w]).
        before = _state_digest(algo)
        want = kernel(*args)
        with read_only(algo):
            got = kernel(*args)
        assert _state_digest(algo) == before
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
