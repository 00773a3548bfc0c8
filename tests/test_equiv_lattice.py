"""The equivalence lattice, checked inside this tree.

``tools/equiv_matrix.py`` declares the lattice once — algorithms, graphs,
budgets and every execution axis: prefetch depth, worker threads,
selective scheduling, shard processes, private query contexts,
checkpoint resume — and CI diffs its records against the base commit.  Here the same enumeration runs once per session (the
``lattice`` fixture) and is held two ways:

* the axes agree with each other (``lattice_violations``): one answer per
  algorithm, graph and budget; one simulated run per selective mode;
  dense sweeps bounding selective demand;
* every distinct answer — shard, private-context and resumed ones
  included — agrees with an oracle that shares no code with the engine
  (networkx, scipy, a peeling loop), on two R-MAT graphs and on one graph
  of the format's edge cases.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import edge_weights
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.edgelist import EdgeList
from repro.types import INF_DEPTH, SHARDS_PER_BATCH
from tests import shard_floor
from tests.test_property_algorithms import _nx, _oracle_matrix
from tools import equiv_matrix


@pytest.fixture(scope="module")
def edge_lists():
    return equiv_matrix.edge_lists()


def test_lattice_holds(lattice):
    violations = equiv_matrix.lattice_violations(lattice[0])
    assert not violations, "\n".join(violations[:40])


def test_selective_runs_skip_what_the_frontier_rules_out(lattice):
    """What makes the selective axis mean something: every frontier
    algorithm's selective runs skip bytes somewhere in the lattice (CC's
    only where its changed set leaves a tile row: on the directed R-MAT it
    spans every row until it converges), and an all-active one's never
    do."""
    records, _ = lattice
    factories = equiv_matrix.algorithms()
    skipped = dict.fromkeys(factories, 0)
    for key, rec in records.items():
        name, *_, mode = key.split("/")
        if name in factories and mode == "selective":
            skipped[name] += rec["stats"]["bytes_skipped"]
    assert {name for name, n in skipped.items() if n} == {
        name for name, make in factories.items() if not make().all_active
    }


def test_lattice_batches_cut_into_several_shards(edge_lists):
    """What makes the lattice mean something: under its 24 KB budget a
    batch of each of its graphs yields more than one shard at the floor
    it runs at — and exactly one at the shipped floor.  The edge-case
    graph really has empty tiles."""

    class Counting(PageRank):
        one_shard = False  # take the batch's cuts, as every gather kernel does

        @classmethod
        def shard_cuts(cls, batch):
            cuts = super().shard_cuts(batch)
            counts.append(len(cuts) - 1)
            return cuts

    memory, segment = equiv_matrix.BUDGETS[0]
    cfg = EngineConfig(memory_bytes=memory, segment_bytes=segment,
                       prefetch_depth=0)
    graphs = {kind: equiv_matrix.tiled(el) for kind, el in edge_lists.items()}
    for kind, tg in graphs.items():
        counts: "list[int]" = []
        with shard_floor.lowered(), GStoreEngine(tg, cfg) as engine:
            engine.run(Counting(max_iterations=2, tolerance=0.0))
        assert 1 < max(counts) <= SHARDS_PER_BATCH, kind
        assert sorted(counts)[len(counts) // 2] > 1, kind  # most batches
        counts.clear()
        with GStoreEngine(tg, cfg) as engine:
            engine.run(Counting(max_iterations=2, tolerance=0.0))
        assert set(counts) == {1}, kind
    assert (graphs["edge-cases"].tile_edge_counts() == 0).sum() > 8


# ---------------------------------------------------------------------- #
# Independent oracles, straight off the source edge list (the parameters
# are those of equiv_matrix.algorithms())
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


def _bfs(el, result):
    return np.array_equal(result, _nx_depths(el, 0))


def _multibfs(el, result):
    return all(
        np.array_equal(result[t], _nx_depths(el, root))
        for t, root in enumerate([0, 3, 200])
    )


def _reachability(forward: bool):
    def check(el, result):
        g = _nx(el)
        walk = nx.descendants if forward or not el.directed else nx.ancestors
        expect = {0, 5} | walk(g, 0) | walk(g, 5)
        return set(np.nonzero(result)[0].tolist()) == expect
    return check


def _cc(el, result):
    """Weakly connected components, each labelled by its least vertex."""
    g = _nx(el)
    parts = (nx.weakly_connected_components(g) if el.directed
             else nx.connected_components(g))
    expect = np.empty(el.n_vertices, dtype=np.int64)
    for part in parts:
        expect[list(part)] = min(part)
    return np.array_equal(result, expect)


def _peel(el: EdgeList, k: int) -> "set[int]":
    """The vertices left once every vertex with fewer than ``k`` arc ends
    among the survivors is removed, one at a time: both ends of every
    stored arc count, duplicates and self-loops included."""
    ends: "list[list[int]]" = [[] for _ in range(el.n_vertices)]
    for s, d in zip(el.src.tolist(), el.dst.tolist()):
        ends[s].append(d)
        ends[d].append(s)
    degree = [len(e) for e in ends]
    alive = set(range(el.n_vertices))
    doomed = [v for v in alive if degree[v] < k]
    while doomed:
        v = doomed.pop()
        if v not in alive:
            continue
        alive.remove(v)
        for u in ends[v]:
            if u in alive:
                degree[u] -= 1
                if degree[u] < k:
                    doomed.append(u)
    return alive


def _kcore(el, result):
    expect = _peel(el, 4) if el.directed else set(nx.k_core(_nx(el), 4))
    return set(np.nonzero(result)[0].tolist()) == expect


def _sssp(el, result):
    ref = dijkstra(_oracle_matrix(el, edge_weights), directed=True, indices=0)
    return (np.array_equal(np.isinf(result), np.isinf(ref))
            and np.allclose(result, ref, rtol=1e-12, atol=0.0))


def _spmv(el, result):
    at = _transposed_counts(el)
    y = np.ones(el.n_vertices)
    for _ in range(3):
        y = at @ y
    return np.allclose(result, y, rtol=1e-12, atol=0.0)


def _pagerank(el, result):
    """10 damped power steps on scipy's mat-vec (the run stops at its
    iteration cap long before the 1e-12 tolerance)."""
    at = _transposed_counts(el)
    n = el.n_vertices
    deg = np.asarray(at.sum(axis=0)).ravel()
    dangling = deg == 0
    inv = 1.0 / np.where(dangling, 1.0, deg)
    r = np.full(n, 1.0 / n)
    for _ in range(10):
        r = 0.15 / n + 0.85 * (at @ (r * inv) + r[dangling].sum() / n)
    return np.allclose(result, r, rtol=1e-9, atol=0.0)


def _mis(el, result):
    g = nx.Graph(_nx(el))
    g.remove_edges_from(list(nx.selfloop_edges(g)))
    members = set(np.nonzero(result)[0].tolist())
    return (g.subgraph(members).number_of_edges() == 0  # independent
            and nx.is_dominating_set(g, members))  # maximal


ORACLES = {
    "bfs": _bfs,
    "bfs-diropt": _bfs,
    "async-bfs": _bfs,
    "multibfs": _multibfs,
    "reachability-fwd": _reachability(forward=True),
    "reachability-bwd": _reachability(forward=False),
    "cc": _cc,
    "kcore": _kcore,
    "sssp": _sssp,
    "spmv": _spmv,
    "pagerank": _pagerank,
    "mis": _mis,
}


@pytest.mark.parametrize("name", sorted(equiv_matrix.algorithms()))
def test_every_answer_matches_its_oracle(lattice, edge_lists, name):
    """Each distinct answer the lattice produced for this algorithm — over
    every budget and every execution axis — against the oracle, on each
    graph."""
    records, answers = lattice
    distinct = {}
    for key, rec in records.items():
        algorithm, kind = key.split("/")[:2]
        if algorithm == name:
            distinct.setdefault((kind, rec["result"]), key)
    assert {kind for kind, _ in distinct} == set(edge_lists)
    wrong = [
        key for (kind, digest), key in distinct.items()
        if not ORACLES[name](edge_lists[kind], answers[digest])
    ]
    assert not wrong, wrong
