"""Fused-vs-per-tile equivalence of the batch execution layer.

Per-tile and fused are two dispatch granularities of one kernel
(``process_tile`` is ``apply_partial(batch_partial([tv]))``).  The
execution contract, verified here over random R-MAT graphs (undirected
symmetric storage and directed storage) pushed through tiny memory budgets
so every mechanism fires (multi-batch slides, proactive caching, rewind):

* Every fused algorithm is *bit-identical* across worker counts — the
  fused single-threaded path and the row-parallel path commit the same
  worker-independent shard structure in the same order.
* Kernels whose updates commute exactly (BFS/MultiBFS/reachability
  constant writes, CC minima, k-core integer decrements, MIS marks) are
  additionally bit-identical to per-tile dispatch.
* Float-accumulating kernels (PageRank, SpMV) match per-tile dispatch up
  to floating-point reassociation — the standard parallel-reduction
  contract — with identical iteration counts.
* ``edges_processed`` accounting is exactly identical everywhere for
  those snapshot kernels.
* The live kernels (SSSP, AsyncBFS) relax to a unique fixpoint, so their
  results are bit-identical to per-tile dispatch too; their relaxation
  *order* is shard- instead of tile-granular, so iteration and edge counts
  match across the fused modes only, not against per-tile dispatch.
* The algorithms whose only implementation is that kernel (PageRank, SpMV,
  MIS, MultiBFS, reachability, SSSP, AsyncBFS) are also checked, in every
  mode, against an oracle that shares no code with it (networkx, scipy)
  — on the two R-MAT graphs and on one graph of the format's edge cases.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.base import TileAlgorithm
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.mis import MaximalIndependentSet
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.pagerank import PageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.spmv import SpMV
from repro.algorithms.sssp import SSSP, edge_weights
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.engine.inmemory import InMemoryEngine
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.types import INF_DEPTH
from tests.test_property_algorithms import _nx, _oracle_matrix

ALGOS = {
    "bfs": lambda: BFS(root=0),
    "bfs-diropt": lambda: BFS(root=0, direction_optimizing=True),
    "pagerank": lambda: PageRank(max_iterations=25, tolerance=1e-12),
    "spmv": lambda: SpMV(iterations=3),
    "cc": lambda: ConnectedComponents(),
    "kcore": lambda: KCore(k=4),
    "sssp": lambda: SSSP(root=0),
    "async-bfs": lambda: AsyncBFS(root=0),
    "reachability-fwd": lambda: Reachability(seeds=[0, 5], forward=True),
    "reachability-bwd": lambda: Reachability(seeds=[0, 5], forward=False),
    "multibfs": lambda: MultiSourceBFS(roots=[0, 3, 200]),
    "mis": lambda: MaximalIndependentSet(seed=4),
}

#: ~2 000-edge batches: keep them multi-shard (see tests/test_backends.py).
pytestmark = pytest.mark.usefixtures("low_shard_floor")

#: Kernels that accumulate floats: per-tile vs fused differ only by
#: reassociation; everything else must be bit-identical.
FLOAT_ALGOS = {"pagerank", "spmv"}

#: Live kernels: exact results, but iteration and edge counts are only
#: comparable between fused runs.
LIVE_ALGOS = {"sssp", "async-bfs"}


def _assert_matches(result, ref, exact: bool, ctx) -> None:
    assert result.dtype == ref.dtype, ctx
    assert result.shape == ref.shape, ctx
    if exact:
        assert np.array_equal(result, ref), ctx
    else:
        assert np.allclose(result, ref, rtol=1e-9, atol=1e-12), ctx

#: (mode label, fused, workers)
MODES = [
    ("per-tile", False, 1),
    ("fused", True, 1),
    ("fused+parallel", True, 2),
]


KINDS = ["undirected", "directed", "edge-cases"]


def _edge_cases() -> EdgeList:
    """One directed graph carrying the format's edge cases at
    ``tile_bits=6``: self-loops, duplicate edges, the max-ID vertex (in a
    partial last tile row), two hubs on either side of a tile-row boundary
    whose spokes land in every row, and — the random edges being confined
    to a vertex prefix — many empty tiles."""
    n = 500
    rng = np.random.default_rng(33)
    src = rng.integers(0, 200, 1500)
    dst = rng.integers(0, 200, 1500)
    dup = rng.integers(0, 1500, 40)
    loops = np.concatenate([rng.integers(0, n, 10), [0, n - 1]])
    spokes = rng.integers(0, n, 80)
    hubs = np.repeat([63, 64], 40)
    src = np.concatenate([src, src[dup], loops, hubs, spokes, [n - 1, 7]])
    dst = np.concatenate([dst, dst[dup], loops, spokes, hubs, [3, n - 1]])
    return EdgeList(
        src.astype(np.uint32), dst.astype(np.uint32), n, directed=True,
        name="edge-cases",
    )


def _edge_list(kind: str) -> EdgeList:
    if kind == "edge-cases":
        return _edge_cases()
    directed = kind == "directed"
    el = rmat(9, edge_factor=8, seed=32 if directed else 31, directed=directed)
    return el.without_self_loops() if directed else el


@pytest.fixture(scope="module")
def edge_lists():
    return {kind: _edge_list(kind) for kind in KINDS}


@pytest.fixture(scope="module")
def graphs(edge_lists):
    tiled = {
        kind: TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)
        for kind, el in edge_lists.items()
    }
    assert (tiled["edge-cases"].tile_edge_counts() == 0).sum() > 8
    return tiled


# ---------------------------------------------------------------------- #
# Independent oracles, straight off the source edge list
# ---------------------------------------------------------------------- #

def _arcs(el: EdgeList):
    """Every directed arc the stored graph means, duplicates kept."""
    if el.directed:
        return el.src.astype(np.int64), el.dst.astype(np.int64)
    canon = el.canonicalized()
    s, d = canon.src.astype(np.int64), canon.dst.astype(np.int64)
    return np.concatenate([s, d]), np.concatenate([d, s])


def _nx_depths(el: EdgeList, root: int) -> np.ndarray:
    depth = np.full(el.n_vertices, INF_DEPTH, dtype=np.uint32)
    for v, d in nx.single_source_shortest_path_length(_nx(el), root).items():
        depth[v] = d
    return depth


def _transposed_counts(el: EdgeList):
    """``A.T`` with ``A[s, d]`` the number of stored ``s -> d`` arcs."""
    s, d = _arcs(el)
    n = el.n_vertices
    return sp.coo_matrix((np.ones(s.size), (d, s)), shape=(n, n)).tocsr()


def _oracle_multibfs(el, result):
    for t, root in enumerate([0, 3, 200]):
        assert np.array_equal(result[t], _nx_depths(el, root)), root


def _oracle_async_bfs(el, result):
    assert np.array_equal(result, _nx_depths(el, 0))


def _oracle_reachability(forward: bool):
    def check(el, result):
        g = _nx(el)
        walk = nx.descendants if forward or not el.directed else nx.ancestors
        expect = {0, 5} | walk(g, 0) | walk(g, 5)
        assert set(np.nonzero(result)[0].tolist()) == expect
    return check


def _oracle_sssp(el, result):
    ref = dijkstra(_oracle_matrix(el, edge_weights), directed=True, indices=0)
    assert np.array_equal(np.isinf(result), np.isinf(ref))
    assert np.allclose(result, ref, rtol=1e-12, atol=0.0)


def _oracle_spmv(el, result):
    at = _transposed_counts(el)
    y = np.ones(el.n_vertices)
    for _ in range(3):
        y = at @ y
    assert np.allclose(result, y, rtol=1e-12, atol=0.0)


def _oracle_pagerank(el, result):
    """25 damped power steps on scipy's mat-vec (the run stops at its
    iteration cap long before the 1e-12 tolerance)."""
    at = _transposed_counts(el)
    n = el.n_vertices
    deg = np.asarray(at.sum(axis=0)).ravel()
    dangling = deg == 0
    inv = 1.0 / np.where(dangling, 1.0, deg)
    r = np.full(n, 1.0 / n)
    for _ in range(25):
        r = 0.15 / n + 0.85 * (at @ (r * inv) + r[dangling].sum() / n)
    assert np.allclose(result, r, rtol=1e-9, atol=0.0)


def _oracle_mis(el, result):
    g = nx.Graph(_nx(el))
    g.remove_edges_from(list(nx.selfloop_edges(g)))
    members = set(np.nonzero(result)[0].tolist())
    assert g.subgraph(members).number_of_edges() == 0  # independent
    assert nx.is_dominating_set(g, members)  # maximal


#: The algorithms with no second implementation to cross-check against.
ORACLES = {
    "pagerank": _oracle_pagerank,
    "spmv": _oracle_spmv,
    "mis": _oracle_mis,
    "multibfs": _oracle_multibfs,
    "reachability-fwd": _oracle_reachability(forward=True),
    "reachability-bwd": _oracle_reachability(forward=False),
    "sssp": _oracle_sssp,
    "async-bfs": _oracle_async_bfs,
}


def _run(tg: TiledGraph, algo_factory, fused: bool, workers: int):
    # Tiny budget: forces several slide batches per iteration plus cache
    # pressure, so the rewind path and mid-iteration evictions both run.
    cfg = EngineConfig(
        memory_bytes=24 * 1024,
        segment_bytes=4 * 1024,
        fused=fused,
        workers=workers,
    )
    engine = GStoreEngine(tg, cfg)
    algo = algo_factory()
    stats = engine.run(algo)
    return algo.result().copy(), stats


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_engine_equivalence(graphs, edge_lists, kind, name):
    tg = graphs[kind]
    factory = ALGOS[name]
    oracle = ORACLES.get(name, lambda el, result: None)
    exact_vs_per_tile = name not in FLOAT_ALGOS
    per_tile, ref_stats = _run(tg, factory, *MODES[0][1:])
    assert not ref_stats.extra["execution"]["fused"]
    oracle(edge_lists[kind], per_tile)
    fused_results = []
    for label, fused, workers in MODES[1:]:
        result, stats = _run(tg, factory, fused=fused, workers=workers)
        assert stats.extra["execution"]["fused"], (name, kind, label)
        oracle(edge_lists[kind], result)
        _assert_matches(result, per_tile, exact_vs_per_tile, (name, kind, label))
        fused_results.append((label, result))
        if name in LIVE_ALGOS:
            ref_stats = stats  # fused vs fused+parallel from here on
        assert stats.edges_processed == ref_stats.edges_processed, (
            name, kind, label,
        )
        assert len(stats.iterations) == len(ref_stats.iterations), (
            name, kind, label,
        )
    # Across worker counts the fused path is always bit-identical.
    (_, fused_one), (label_par, fused_par) = fused_results
    assert np.array_equal(fused_one, fused_par), (name, kind, label_par)


@pytest.mark.parametrize("name", sorted(FLOAT_ALGOS))
def test_fused_runs_are_deterministic(graphs, name):
    """Repeated fused+parallel runs reproduce bit-identical float results."""
    tg = graphs["undirected"]
    factory = ALGOS[name]
    a, _ = _run(tg, factory, fused=True, workers=4)
    b, _ = _run(tg, factory, fused=True, workers=4)
    assert np.array_equal(a, b), name


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_inmemory_equivalence(graphs, name):
    """The in-memory engine's fused path matches its per-tile path too."""
    tg = graphs["undirected"]
    factory = ALGOS[name]
    exact_vs_per_tile = name not in FLOAT_ALGOS
    results = []
    for label, fused, _ in MODES[:2]:  # the in-memory engine is serial
        engine = InMemoryEngine(tg, fused=fused)
        algo = factory()
        stats = engine.run(algo)
        results.append((label, algo.result().copy(), stats.edges_processed))
    _, per_tile, ref_edges = results[0]
    if name in LIVE_ALGOS:
        ref_edges = results[1][2]
    for label, result, edges in results[1:]:
        _assert_matches(result, per_tile, exact_vs_per_tile, (name, label))
        assert edges == ref_edges, (name, label)


#: The least a ``TileAlgorithm`` subclass must define: the lifecycle hooks
#: and the four kernel-contract methods.
_CONTRACT = {
    "_setup": lambda self: None,
    "end_iteration": lambda self, iteration: False,
    "result": lambda self: None,
    "kernel_state": lambda self: {},
    "kernel_params": lambda self: {},
    "kernel_partial": staticmethod(
        lambda state, params, gsrc, gdst: int(gsrc.shape[0])
    ),
    "apply_partial": lambda self, partial: partial,
}


@pytest.mark.parametrize(
    "missing",
    ["kernel_state", "kernel_params", "kernel_partial", "apply_partial"],
)
def test_incomplete_kernel_contract_cannot_be_constructed(graphs, missing):
    """An algorithm is a kernel: a subclass missing any of the four
    contract methods fails at construction, typed, not mid-run — and
    ``process_tile`` is that kernel on one tile, never overridden."""
    body = {k: v for k, v in _CONTRACT.items() if k != missing}
    with pytest.raises(TypeError, match=missing):
        type("Incomplete", (TileAlgorithm,), body)()
    tg = graphs["undirected"]
    for fused in (False, True):
        algo = type("Complete", (TileAlgorithm,), dict(_CONTRACT))()
        assert InMemoryEngine(tg, fused=fused).run(algo).edges_processed == (
            tg.n_edges
        )


def test_every_shipped_algorithm_is_fused():
    """Every in-repo algorithm is a kernel (the base class is abstract
    without one); the live ones are exactly the two asynchronous
    relaxations."""
    import repro.algorithms  # noqa: F401 - imports every algorithm module

    shipped = [
        cls for cls in TileAlgorithm.__subclasses__()
        if cls.__module__.startswith("repro.algorithms.")
    ]
    assert len(shipped) >= 10
    assert {cls for cls in shipped if cls.live_kernel} == {SSSP, AsyncBFS}
