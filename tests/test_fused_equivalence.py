"""The kernel contract: every algorithm is one kernel at two dispatch
granularities.

Per-tile and fused are two dispatch granularities of one kernel
(``process_tile`` is ``apply_partial(batch_partial([tv]))``).  That the
G-Store engine's two paths agree — bit-identically, except PageRank and
SpMV up to float reassociation — and agree with independent oracles is
the equivalence lattice's (``tools/equiv_matrix.py``, asserted in tier-1
by ``tests/test_equiv_lattice.py``).  Here: the two paths agree under a
resident budget too (the in-memory case, §VIII), repeated fused+parallel
float runs are bit-identical, and an algorithm cannot be built without
the whole contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.base import TileAlgorithm
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from tools import equiv_matrix

#: ~2 000-edge batches: keep them multi-shard, as the lattice does.
pytestmark = pytest.mark.usefixtures("low_shard_floor")


@pytest.fixture(scope="module")
def graph():
    return equiv_matrix.tiled(equiv_matrix.edge_lists()["undirected"])


@pytest.mark.parametrize("name", sorted(equiv_matrix.FLOAT_ALGORITHMS))
def test_fused_runs_are_deterministic(graph, name):
    """Repeated fused+parallel runs reproduce bit-identical float results."""
    make = equiv_matrix.algorithms()[name]
    results = []
    for _ in range(2):
        cfg = EngineConfig(memory_bytes=24 * 1024, segment_bytes=4 * 1024,
                           workers=4)
        with GStoreEngine(graph, cfg) as engine:
            algo = make()
            engine.run(algo)
        results.append(algo.result())
    assert np.array_equal(*results), name


def _run_resident(graph, algo, fused):
    """Run ``algo`` on a G-Store engine whose budget holds the whole
    payload: iteration 0 streams it once, every later one rewinds it."""
    payload = graph.storage_bytes()
    segment = max(4096, payload)
    cfg = EngineConfig(memory_bytes=2 * segment + payload,
                       segment_bytes=segment, fused=fused, shards=1)
    with GStoreEngine(graph, cfg) as engine:
        return engine.run(algo)


@pytest.mark.parametrize("name", sorted(equiv_matrix.algorithms()))
def test_resident_budget_equivalence(graph, name):
    """Under a budget that holds the whole payload the fused path matches
    the per-tile path too: bit-identical except float reassociation, and
    the same edge count (live kernels relax in another order per tile, so
    theirs is compared between fused runs only)."""
    make = equiv_matrix.algorithms()[name]
    runs = []
    for fused in (False, True):
        algo = make()
        stats = _run_resident(graph, algo, fused)
        runs.append((algo.result(), stats.edges_processed, algo.live_kernel))
    (per_tile, tile_edges, live), (fused, fused_edges, _) = runs
    assert fused.dtype == per_tile.dtype and fused.shape == per_tile.shape
    if name in equiv_matrix.FLOAT_ALGORITHMS:
        assert np.allclose(fused, per_tile, rtol=1e-9, atol=1e-12), name
    else:
        assert np.array_equal(fused, per_tile), name
    if not live:
        assert fused_edges == tile_edges, name


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
def test_incomplete_kernel_contract_cannot_be_constructed(graph, missing):
    """An algorithm is a kernel: a subclass missing any of the four
    contract methods fails at construction, typed, not mid-run — and
    ``process_tile`` is that kernel on one tile, never overridden."""
    body = {k: v for k, v in _CONTRACT.items() if k != missing}
    with pytest.raises(TypeError, match=missing):
        type("Incomplete", (TileAlgorithm,), body)()
    for fused in (False, True):
        algo = type("Complete", (TileAlgorithm,), dict(_CONTRACT))()
        assert _run_resident(graph, algo, fused).edges_processed == graph.n_edges


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
