"""Frontier row activity is kept as commits land, never rescanned.

Every selective algorithm keeps it the one way the base class does
(``TileAlgorithm._rows_now``/``_rows_next``): BFS, Reachability,
MultiSourceBFS, SSSP, AsyncBFS, CC and k-core mark ``vertex >>
tile_bits`` in a per-row array as each partial commits
(``apply_partial``); MIS sets its rows once per phase flip and SCC's
degree sweep once, at setup.  Proactive caching (§VI-C) reads the marks
after every batch as ``rows_active_next()``, and the next iteration's
``rows_active()`` is the same array (CC's is folded once, after its
compress).  After every commit every predicate must equal the fold of
the state — on the serial path, on two kernel threads (MultiBFS, which
declares the pool, on a two-CPU engine), and in a run resumed from a
checkpoint (which saves and restores the arrays with the rest of the
state, or, written before they were kept, starts from the restored
state) — and the cache pool must take exactly the decisions it takes
when the predicates are recomputed from the state.  Between iterations
every algorithm answers for the next one, k-core included.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np
import pytest

from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.kcore import KCore
from repro.algorithms.mis import _UNDECIDED, MaximalIndependentSet
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.reachability import Reachability
from repro.algorithms.scc import SubgraphDegrees
from repro.algorithms.sssp import SSSP, LiveRelaxation
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.memory.scr import SCRScheduler

ALGORITHMS = {
    "bfs": lambda tg: BFS(root=0),
    "bfs-direction-optimizing": lambda tg: BFS(root=0, direction_optimizing=True),
    "reachability": lambda tg: Reachability([0, 7]),
    "reachability-backward": lambda tg: Reachability([0, 7], forward=False),
    "multibfs": lambda tg: MultiSourceBFS([0, 7, min(300, tg.n_vertices - 1)]),
    "sssp": lambda tg: SSSP(root=0),
    "async-bfs": lambda tg: AsyncBFS(root=0),
    "cc": lambda tg: ConnectedComponents(),
    "kcore": lambda tg: KCore(k=10),
    "mis": lambda tg: MaximalIndependentSet(seed=4),
    "scc-degrees": lambda tg: SubgraphDegrees(
        np.arange(tg.n_vertices) >= min(128, tg.n_vertices // 2)),
}

#: Budgets other than 16 KB and 4 KB segments: k-core commits once per
#: batch, so it needs smaller slides to commit more than once an
#: iteration, and a pool that evicts.
BUDGETS = {"kcore": (8 * 1024, 2 * 1024)}

#: Runs of one iteration (nothing to resume).
ONE_SWEEP = {"scc-degrees"}
#: The iteration a checkpointed run stops after: CC converges in two
#: iterations on the undirected graph.
STOP = {"cc": 1}


PREDICATES = ("rows_active", "cols_active", "rows_active_next",
              "cols_active_next")


def _tracked(algo, trail: "dict | None" = None) -> dict:
    """Record in ``trail``, under ``"at"``, the iteration the predicates
    answer for (the next one once ``end_iteration`` ran) and, by
    iteration, the distances or depths a live relaxation begins each one
    from — what its frontiers are read against; returns ``trail``."""
    trail = {} if trail is None else trail
    begin, end = algo.begin_iteration, algo.end_iteration
    live = isinstance(algo, LiveRelaxation)

    def begin_iteration(iteration):
        begin(iteration)
        trail["at"] = iteration
        if live:
            trail[iteration] = algo.state.copy()

    def end_iteration(iteration):
        more = end(iteration)
        trail["at"] = iteration + 1
        if live:
            trail[iteration + 1] = algo.state.copy()
        return more

    algo.begin_iteration = begin_iteration
    algo.end_iteration = end_iteration
    return trail


def _frontiers(algo, trail: dict) -> "tuple[np.ndarray, np.ndarray]":
    """The current and next frontier vertex masks, read off the state."""
    if isinstance(algo, BFS):
        return (algo.depth == np.uint32(algo.level),
                algo.depth == np.uint32(algo.level + 1))
    if isinstance(algo, MultiSourceBFS):
        return ((algo.depth == np.uint32(algo.level)).any(axis=0),
                (algo.depth == np.uint32(algo.level + 1)).any(axis=0))
    if isinstance(algo, LiveRelaxation):
        # Lowered last iteration (the root before the first), and so far
        # in this one.
        i = trail["at"]
        now = trail[i] < trail[i - 1] if i else trail[0] == 0
        return now, algo.state < trail[i]
    if isinstance(algo, ConnectedComponents):
        # Labels only fall: what moved since the snapshot.
        return algo._changed, algo.comp != algo._prev
    if isinstance(algo, KCore):
        # Once the iteration ended, the survivors below k are the next
        # removal set.
        below = algo.active & (algo.residual_degree < algo.k)
        return (below if trail["at"] > algo.iteration else algo._removed_now,
                below)
    if isinstance(algo, MaximalIndependentSet):
        undecided = algo.state == _UNDECIDED
        return (algo._winners if algo._knock else undecided), undecided
    if isinstance(algo, SubgraphDegrees):
        return algo._x > 0, np.zeros(algo._x.shape, bool)
    return algo._frontier, algo._frontier_next


def _from_state(algo, trail: dict) -> dict:
    """The four activity predicates as the state says they must be."""
    now, nxt = (algo._rows_of_vertices(m) for m in _frontiers(algo, trail))
    if isinstance(algo, Reachability) and not (algo.forward or algo.symmetric):
        none = np.zeros(algo._n_rows(), dtype=bool)
        return {"rows_active": none, "cols_active": now,
                "rows_active_next": none, "cols_active_next": nxt}
    if isinstance(algo, (ConnectedComponents, KCore)):
        return {"rows_active": now, "cols_active": now,
                "rows_active_next": nxt, "cols_active_next": nxt}
    knock = isinstance(algo, MaximalIndependentSet) and algo._knock
    return {"rows_active": now,
            "cols_active": now if knock and algo.graph.info.directed else None,
            "rows_active_next": nxt, "cols_active_next": None}


def _kept(algo) -> dict:
    return {name: getattr(algo, name)() for name in PREDICATES}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        (x is None and y is None)
        or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(a.values(), b.values())
    )


def _checked(algo, trail: "dict | None" = None) -> list:
    """Check the kept predicates against the state after every commit of
    ``algo``; returns the list each checked commit appends to."""
    commits = []
    apply = algo.apply_partial
    trail = _tracked(algo, trail)

    def apply_partial(partial):
        edges = apply(partial)
        assert _same(_kept(algo), _from_state(algo, trail)), len(commits)
        commits.append(algo.iteration)
        return edges

    algo.apply_partial = apply_partial
    return commits


def _config(name: str, **kw) -> EngineConfig:
    memory, segment = BUDGETS.get(name, (16 * 1024, 4 * 1024))
    return EngineConfig(memory_bytes=memory, segment_bytes=segment, **kw)


def _bits(result) -> bytes:
    """A result's bytes (SCC's degree sweep returns two arrays)."""
    parts = result if isinstance(result, tuple) else (result,)
    return b"".join(part.tobytes() for part in parts)


@pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed",
                                   "many_rows"])
@pytest.mark.parametrize("path", ["serial", "workers=2"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_kept_activity_matches_state_after_every_commit(
    name, path, graph, request, low_shard_floor, cpus
):
    tg = request.getfixturevalue(graph)
    cpus(1)
    clean = ALGORITHMS[name](tg)
    GStoreEngine(tg, _config(name)).run(clean)
    algo = ALGORITHMS[name](tg)
    commits = _checked(algo)
    # Two CPUs give MultiBFS, which declares the pool, two kernel threads;
    # the other kernels run serial either way.
    cpus({"serial": 1, "workers=2": 2}[path])
    with GStoreEngine(tg, _config(name)) as engine:
        stats = engine.run(algo)
    if name not in ONE_SWEEP:
        assert len(set(commits)) >= 2, "fewer than two iterations committed"
    if graph == "many_rows":
        # A frontier's tiles fit one batch: one commit an iteration that
        # reads any.
        assert len(commits) >= stats.n_iterations - 1
    else:
        assert len(commits) > stats.n_iterations, "one commit per iteration"
    assert _bits(algo.result()) == _bits(clean.result())
    pooled = path != "serial" and algo.pooled
    assert stats.extra["execution"]["kernel_threads"] == (2 if pooled else 1)


@pytest.mark.parametrize("name", sorted(set(ALGORITHMS) - ONE_SWEEP))
def test_resumed_run_restores_the_kept_activity(name, tmp_path, tiled_undirected):
    """The checkpoint saves the row arrays with the rest of the state: a
    resumed run selects its first iteration from the restored
    ``rows_active()`` and keeps every later commit consistent."""
    tg = tiled_undirected
    clean = ALGORITHMS[name](tg)
    trail = _tracked(clean)
    GStoreEngine(tg, _config(name)).run(clean)
    ckpt = os.fspath(tmp_path / "ckpt")
    stop = STOP.get(name, 2)
    with pytest.raises(AlgorithmError):
        GStoreEngine(tg, _config(name, max_iterations=stop)).run(
            ALGORITHMS[name](tg), checkpoint=ckpt
        )
    _, arrays, _, _ = CheckpointManager(ckpt).load()
    assert {"_rows_now", "_rows_next"} <= arrays.keys()
    resumed = ALGORITHMS[name](tg)
    commits = _checked(resumed, dict(trail))
    GStoreEngine(tg, _config(name)).run(resumed, checkpoint=ckpt)
    assert commits and min(commits) == stop
    assert _bits(resumed.result()) == _bits(clean.result())


def _clique_and_path(n: int = 100, tile_bits: int = 3) -> TiledGraph:
    """Ten vertices all joined, and a path from the last of them to
    vertex ``n - 1``, ``2**tile_bits`` vertices a tile row (eight by
    default): peeling to the 2-core takes the path one vertex an
    iteration from its far end, so each removal set sits in a row the
    first one does not."""
    a, b = np.triu_indices(10, 1)
    src = np.concatenate([a, np.arange(9, n - 1)]).astype(np.uint32)
    dst = np.concatenate([b, np.arange(10, n)]).astype(np.uint32)
    return TiledGraph.from_edge_list(
        EdgeList(src, dst, n, directed=False, name="clique-and-path"),
        tile_bits=tile_bits)


@pytest.fixture(scope="module")
def many_rows() -> TiledGraph:
    """:func:`_clique_and_path` over 35 tile rows of two vertices: every
    traversal's frontier is one or two of them, so an activity that
    spans every row — or the wrong few — shows."""
    tg = _clique_and_path(70, tile_bits=1)
    assert tg.p == 35
    return tg


#: Checkpoints of runs on :func:`_clique_and_path` written before row
#: activity was kept by the base class, as that code saved them — SSSP's
#: and AsyncBFS's per-vertex changed flags included, CC's and k-core's
#: rows absent — each after the iteration before the one named here.
PARENT_CHECKPOINTS = {
    "sssp": (lambda: SSSP(root=0), 5),
    "async-bfs": (lambda: AsyncBFS(root=0), 5),
    "cc": (ConnectedComponents, 1),
    "kcore": (lambda: KCore(k=2), 12),
}


@pytest.mark.parametrize("name", sorted(PARENT_CHECKPOINTS))
def test_checkpoint_written_before_kept_rows_resumes(name, tmp_path):
    """Such a checkpoint resumes to the clean run's result bits: SSSP and
    AsyncBFS find their rows saved; CC's restored run selects every row
    once (labels only fall, so the extra tiles change nothing), and
    k-core folds its first removal set from the restored state — the
    rows of the path's far end, where it started, would miss it."""
    tg = _clique_and_path()
    make, stop = PARENT_CHECKPOINTS[name]
    cfg = EngineConfig(memory_bytes=1024, segment_bytes=256)
    clean = make()
    GStoreEngine(tg, cfg).run(clean)
    ckpt = tmp_path / "ckpt"
    shutil.copytree(os.path.join(os.path.dirname(__file__), "data",
                                 "checkpoints", name), ckpt)
    iteration, arrays, _, _ = CheckpointManager(os.fspath(ckpt)).load()
    assert iteration == stop - 1
    assert ("_rows_now" in arrays) == (name in ("sssp", "async-bfs"))
    resumed = make()
    commits = []
    apply = resumed.apply_partial
    resumed.apply_partial = lambda p: commits.append(resumed.iteration) or apply(p)
    GStoreEngine(tg, cfg).run(resumed, checkpoint=os.fspath(ckpt))
    assert commits and min(commits) == stop
    assert resumed.result().tobytes() == clean.result().tobytes()


@pytest.mark.parametrize("name", ["cc", "kcore"])
def test_checkpoint_without_kept_rows_folds_them_on_many_rows(
    name, tmp_path, many_rows
):
    """Over 35 rows, a checkpoint whose row arrays were dropped (as the
    runs that did not keep them saved it) resumes with every commit's
    kept activity equal to the fold of the state and the clean run's
    result: the resumed run folds its first rows from the restored
    state, not from anything ``setup`` saw."""
    tg = many_rows
    make = {"cc": ConnectedComponents, "kcore": lambda: KCore(k=2)}[name]
    cfg = EngineConfig(memory_bytes=1024, segment_bytes=256)
    clean = make()
    trail = _tracked(clean)
    GStoreEngine(tg, cfg).run(clean)
    ckpt = tmp_path / "ckpt"
    stop = 1 if name == "cc" else 20  # k-core's removal set is rows away
    with pytest.raises(AlgorithmError):
        GStoreEngine(tg, dataclasses.replace(cfg, max_iterations=stop)).run(
            make(), checkpoint=os.fspath(ckpt))
    state = ckpt / "state.npz"
    with np.load(state) as z:
        assert {"_rows_now", "_rows_next"} <= set(z.files)
        kept = {k: z[k] for k in z.files
                if k not in ("_rows_now", "_rows_next")}
    np.savez(state, **kept)
    resumed = make()
    commits = _checked(resumed, dict(trail))
    GStoreEngine(tg, cfg).run(resumed, checkpoint=os.fspath(ckpt))
    assert commits and min(commits) == stop
    assert resumed.result().tobytes() == clean.result().tobytes()


def _recomputed(algo):
    """``algo`` answering every activity predicate from its state, as the
    predicates did before they were kept per commit."""
    trail = _tracked(algo)
    for name in PREDICATES:
        setattr(algo, name, lambda name=name: _from_state(algo, trail)[name])
    return algo


@pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed",
                                   "many_rows"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_cache_decisions_unchanged(name, graph, request, monkeypatch):
    """Per iteration, the same tiles cached, evicted and served from the
    pool — the pool's counters are recorded after every offer — and the
    same bytes moved, whether the predicates are kept or recomputed.
    Recomputed, k-core's answer once an iteration ended is the next
    removal set, as kept."""
    tg = request.getfixturevalue(graph)
    offer = SCRScheduler.offer
    runs = []
    for make in (lambda: ALGORITHMS[name](tg),
                 lambda: _recomputed(ALGORITHMS[name](tg))):
        trail = []

        def recorded(self, *args, **kw):
            offer(self, *args, **kw)
            trail.append((self.stats.tiles_cached, self.stats.tiles_evicted,
                          self.stats.analyses))

        monkeypatch.setattr(SCRScheduler, "offer", recorded)
        algo = make()
        stats = GStoreEngine(tg, _config(name)).run(algo)
        per_iteration = [
            (it.tiles_from_cache, it.bytes_from_cache, it.tiles_fetched,
             it.bytes_read, it.tiles_skipped, it.elapsed)
            for it in stats.iterations
        ]
        runs.append((trail, per_iteration, _bits(algo.result())))
    if name not in ONE_SWEEP:  # a single sweep caches nothing
        assert runs[0][0] and runs[0][0][-1][0] > 0, "nothing was cached"
    assert runs[0] == runs[1]
