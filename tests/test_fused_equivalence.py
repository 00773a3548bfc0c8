"""Fused-vs-per-tile equivalence of the batch execution layer.

The execution contract, verified here over random R-MAT graphs (undirected
symmetric storage and directed storage) pushed through tiny memory budgets
so every mechanism fires (multi-batch slides, proactive caching, rewind):

* Every fused algorithm is *bit-identical* across worker counts — the
  fused single-threaded path and the row-parallel path commit the same
  worker-independent shard structure in the same order.
* Kernels whose updates commute exactly (BFS/MultiBFS/reachability
  constant writes, CC minima, k-core integer decrements, MIS marks) are
  additionally bit-identical to the per-tile reference loop.
* Float-accumulating kernels (PageRank, SpMV) match the per-tile loop up
  to floating-point reassociation — the standard parallel-reduction
  contract — with identical iteration counts.
* ``edges_processed`` accounting is exactly identical everywhere for
  those snapshot kernels.
* The live kernels (SSSP, AsyncBFS) relax to a unique fixpoint, so their
  results are bit-identical to the per-tile loop too; their relaxation
  *order* is shard- instead of tile-granular, so iteration and edge counts
  match across the fused modes only, not against the per-tile loop.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.engine.inmemory import InMemoryEngine
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat

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
    ("fused+parallel", True, 4),
]


def _graph(directed: bool, seed: int) -> TiledGraph:
    el = rmat(9, edge_factor=8, seed=seed, directed=directed)
    if directed:
        el = el.without_self_loops()
    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


@pytest.fixture(scope="module")
def graphs():
    return {
        "undirected": _graph(directed=False, seed=31),
        "directed": _graph(directed=True, seed=32),
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


@pytest.mark.parametrize("kind", ["undirected", "directed"])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_engine_equivalence(graphs, kind, name):
    tg = graphs[kind]
    factory = ALGOS[name]
    exact_vs_per_tile = name not in FLOAT_ALGOS
    per_tile, ref_stats = _run(tg, factory, *MODES[0][1:])
    fused_results = []
    for label, fused, workers in MODES[1:]:
        result, stats = _run(tg, factory, fused=fused, workers=workers)
        assert stats.extra["execution"]["fused"], (name, kind, label)
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


class _PerTileOnlyDegree(TileAlgorithm):
    """A user-style algorithm that implements ``process_tile`` and nothing
    of the fused contract: one pass counting stored out-edges."""

    def _setup(self) -> None:
        self.count = np.zeros(self._graph().n_vertices, dtype=np.int64)

    def process_tile(self, tv) -> int:
        gsrc, _ = tv.global_edges()
        np.add.at(self.count, gsrc, 1)
        return tv.n_edges

    def end_iteration(self, iteration: int) -> bool:
        return False

    def result(self) -> np.ndarray:
        return self.count


def test_default_fallback_loops_per_tile(graphs):
    """Algorithms without fused kernels run identically via process_batch."""
    tg = graphs["undirected"]
    assert not _PerTileOnlyDegree().supports_fused
    runs = []
    for fused in (False, True):
        engine = InMemoryEngine(tg, fused=fused)
        algo = _PerTileOnlyDegree()
        stats = engine.run(algo)
        assert stats.edges_processed == tg.n_edges
        runs.append(algo.result().copy())
    # The semi-external engine takes the same fallback under its default
    # (fused) config and says so.
    result, stats = _run(tg, _PerTileOnlyDegree, fused=True, workers=1)
    assert not stats.extra["execution"]["fused"]
    runs.append(result)
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])
    el = tg.to_edge_list()
    assert np.array_equal(
        runs[0], np.bincount(el.src, minlength=tg.n_vertices)
    )


def test_every_shipped_algorithm_is_fused():
    """No in-repo algorithm takes the per-tile fallback by default, and
    the live kernels are exactly the two asynchronous relaxations."""
    import repro.algorithms  # noqa: F401 - imports every algorithm module

    shipped = [
        cls for cls in TileAlgorithm.__subclasses__()
        if cls.__module__.startswith("repro.algorithms.")
    ]
    assert len(shipped) >= 10
    assert all(cls.supports_fused for cls in shipped), shipped
    assert {cls for cls in shipped if cls.live_kernel} == {SSSP, AsyncBFS}
