"""The kernel contract: every algorithm is one kernel, and its answer does
not depend on how a batch is cut into shards.

The engine calls an algorithm's kernel once per shard of a fetched batch
(``execute_batch``: ``apply_partial(shard_partial(batch, a, b))`` for each
shard ``[a, b)`` of ``shard_cuts``, in plan order).  Where the shards are cut must not
change the answer: that is a property of the kernel contract, checked
here over random contiguous cuts of every batch, down to one tile or one
edge per piece, for every algorithm of the equivalence lattice
(``tools/equiv_matrix.py``) on its three graphs — and shown to reject a
kernel that breaks it.  Also here: the answer under a budget that holds
the whole payload is the streaming one, repeated float runs are
bit-identical, and an algorithm cannot be built without the
whole contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, find, given, settings

from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from tests.batch_cuts import CUTS, PER_TILE, WHOLE, cut_batches
from tools import equiv_matrix

#: The lattice budget that both slides and rewinds.
BUDGET = equiv_matrix.BUDGETS[1]


@pytest.fixture(scope="module")
def graphs():
    return {
        kind: equiv_matrix.tiled(el)
        for kind, el in equiv_matrix.edge_lists().items()
    }


@pytest.mark.usefixtures("low_shard_floor")
@pytest.mark.parametrize("name", ["pagerank", "spmv"])
def test_fused_runs_are_deterministic(graphs, name):
    """Repeated runs reproduce bit-identical float results."""
    make = equiv_matrix.algorithms()[name]
    results = []
    for _ in range(2):
        cfg = EngineConfig(memory_bytes=24 * 1024, segment_bytes=4 * 1024)
        with GStoreEngine(graphs["undirected"], cfg) as engine:
            algo = make()
            engine.run(algo)
        results.append(algo.result())
    assert np.array_equal(*results), name


def _work(stats) -> "tuple[int, int]":
    """A run's ``(edges_processed, iterations)``."""
    return stats.edges_processed, len(stats.iterations)


def _mismatches(answer, work, ref_answer, ref_work, live) -> list:
    """How a run differs from its reference under the contract: the same
    bits — float sums too, since the scatter kernels add in edge order
    whatever the cut — and, for a snapshot kernel, the same
    ``(edges_processed, iterations)`` — a live kernel relaxes in another
    order, so only its distances must agree."""
    out = []
    if answer.dtype != ref_answer.dtype or answer.shape != ref_answer.shape:
        out.append(f"result: {answer.dtype}{answer.shape} against "
                   f"{ref_answer.dtype}{ref_answer.shape}")
    elif not np.array_equal(answer, ref_answer):
        out.append("result: differs")
    if not live and work != ref_work:
        out.append(f"(edges_processed, iterations): {ref_work} -> {work}")
    return out


@pytest.fixture(scope="module")
def reference(graphs, lattice):
    """One lattice graph, and the lattice's serial answer and
    ``(edges_processed, iterations)`` on it for one algorithm and budget.
    (A function, not the records or the graphs: Hypothesis prints the
    arguments of every explicit example.)"""
    records, answers = lattice

    def graph_answer_work(name, kind, budget):
        rec = records[
            f"{name}/{kind}/{budget[0] >> 10}K/fused/depth0/selective"
        ]
        stats = rec["stats"]
        work = stats["edges_processed"], len(stats["iterations"])
        return graphs[kind], answers[rec["result"]], work

    return graph_answer_work


@pytest.mark.usefixtures("low_shard_floor")
@pytest.mark.parametrize("name", sorted(equiv_matrix.algorithms()))
def test_resident_budget_equivalence(reference, name):
    """Under a budget that holds the whole payload — iteration 0 streams
    it once, every later one rewinds it (the in-memory case, §VIII) — the
    answer is the streaming one, under the same rule as a cut batch."""
    tg, ref_answer, ref_work = reference(
        name, "undirected", equiv_matrix.BUDGETS[0]
    )
    payload = tg.storage_bytes()
    segment = max(4096, payload)
    cfg = EngineConfig(memory_bytes=2 * segment + payload,
                       segment_bytes=segment)
    algo = equiv_matrix.algorithms()[name]()
    with GStoreEngine(tg, cfg) as engine:
        stats = engine.run(algo)
    assert stats.iterations[-1].tiles_fetched == 0  # everything rewound
    assert not _mismatches(algo.result(), _work(stats), ref_answer, ref_work,
                           algo.live_kernel)


# ---------------------------------------------------------------------- #
# Split invariance
# ---------------------------------------------------------------------- #

def _run_cut(tg, make, cut):
    """One serial engine run whose batches are cut as ``cut`` says."""
    algo = make()
    cfg = EngineConfig(memory_bytes=BUDGET[0], segment_bytes=BUDGET[1])
    with cut_batches(type(algo), tg, cut), GStoreEngine(tg, cfg) as engine:
        stats = engine.run(algo)
    return algo, stats


@pytest.mark.parametrize("kind", ["undirected", "directed", "edge-cases"])
@pytest.mark.parametrize("name", sorted(equiv_matrix.algorithms()))
@settings(max_examples=2, deadline=None)
@given(cut=CUTS)
@example(cut=PER_TILE)
@example(cut=("edge", 64, True, 0))  # a run of one-edge pieces
def test_split_invariance(reference, name, kind, cut):
    """Any contiguous cut of every batch gives the lattice's answer: the
    same bits, edges and iterations for a snapshot kernel (PageRank's and
    SpMV's float sums included), the same distances for a live one."""
    tg, ref_answer, ref_work = reference(name, kind, BUDGET)
    algo, stats = _run_cut(tg, equiv_matrix.algorithms()[name], cut)
    assert not _mismatches(algo.result(), _work(stats), ref_answer, ref_work,
                           algo.live_kernel)


class LastWriterMin(TileAlgorithm):
    """A kernel that breaks the contract: each piece computes every
    target's least source, and its commit overwrites the target's label
    instead of taking the minimum with it — the last writer wins, so the
    answer depends on where the batch was cut."""

    def _setup(self):
        self.label = np.arange(self.graph.n_vertices, dtype=np.int64)

    def end_iteration(self, iteration):
        return False

    def result(self):
        return self.label

    def kernel_partial(self, gsrc, gdst):
        gsrc, gdst = gather_ids(gsrc, gdst)
        least = np.full(int(gdst.max(initial=0)) + 1, np.iinfo(np.int64).max)
        np.minimum.at(least, gdst, gsrc)
        hit = np.flatnonzero(least != np.iinfo(np.int64).max)
        return hit, least[hit], int(gsrc.shape[0])

    def apply_partial(self, partial):
        hit, least, edges = partial
        self.label[hit] = least
        return edges


def test_split_invariance_rejects_last_writer_wins(graphs):
    """The negative control: the property's own cuts find one under which
    a last-writer-wins commit changes the answer."""
    tg = graphs["undirected"]
    algo, stats = _run_cut(tg, LastWriterMin, WHOLE)
    ref_answer, ref_work = algo.result().copy(), _work(stats)

    def rejected(cut):
        algo, stats = _run_cut(tg, LastWriterMin, cut)
        return bool(_mismatches(algo.result(), _work(stats), ref_answer,
                                ref_work, False))

    find(CUTS, rejected, settings=settings(max_examples=20, deadline=None))


# ---------------------------------------------------------------------- #
# The contract is whole or the algorithm cannot be built
# ---------------------------------------------------------------------- #

#: The least a ``TileAlgorithm`` subclass must define: the lifecycle hooks
#: and the two kernel-contract methods.
_CONTRACT = {
    "_setup": lambda self: None,
    "end_iteration": lambda self, iteration: False,
    "result": lambda self: None,
    "kernel_partial": lambda self, gsrc, gdst: int(gsrc.shape[0]),
    "apply_partial": lambda self, partial: partial,
}


@pytest.mark.parametrize("missing", ["kernel_partial", "apply_partial"])
def test_incomplete_kernel_contract_cannot_be_constructed(graphs, missing):
    """An algorithm is a kernel: a subclass missing either of the two
    contract methods fails at construction, typed, not mid-run — and
    ``process_tile`` is that kernel on one tile, never overridden."""
    body = {k: v for k, v in _CONTRACT.items() if k != missing}
    with pytest.raises(TypeError, match=missing):
        type("Incomplete", (TileAlgorithm,), body)()
    tg = graphs["undirected"]
    algo = type("Complete", (TileAlgorithm,), dict(_CONTRACT))()
    cfg = EngineConfig(memory_bytes=BUDGET[0], segment_bytes=BUDGET[1])
    with GStoreEngine(tg, cfg) as engine:
        assert engine.run(algo).edges_processed == tg.n_edges


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
