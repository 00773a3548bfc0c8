"""Frontier row activity is kept as commits land, never rescanned.

BFS, Reachability and MultiSourceBFS mark ``target >> tile_bits`` in a
per-row array as each partial commits (``apply_partial``); proactive
caching (§VI-C) reads it after every batch as ``rows_active_next()``, and
the next iteration's ``rows_active()`` is the same array.  After every
commit both must equal the masks recomputed from the state — on the
serial path, on two kernel threads (MultiBFS, which declares the pool,
on a two-CPU engine), and in a run resumed from a
checkpoint (which saves and restores the arrays with the rest of the
state) — and the cache pool must take exactly
the decisions it took when the masks were recomputed from the state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.reachability import Reachability
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError
from repro.memory.scr import SCRScheduler

ALGORITHMS = {
    "bfs": lambda: BFS(root=0),
    "bfs-direction-optimizing": lambda: BFS(root=0, direction_optimizing=True),
    "reachability": lambda: Reachability([0, 7]),
    "reachability-backward": lambda: Reachability([0, 7], forward=False),
    "multibfs": lambda: MultiSourceBFS([0, 7, 300]),
}


PREDICATES = ("rows_active", "cols_active", "rows_active_next",
              "cols_active_next")


def _frontiers(algo) -> "tuple[np.ndarray, np.ndarray]":
    """The current and next frontier vertex masks, read off the state."""
    if isinstance(algo, BFS):
        return (algo.depth == np.uint32(algo.level),
                algo.depth == np.uint32(algo.level + 1))
    if isinstance(algo, MultiSourceBFS):
        return ((algo.depth == np.uint32(algo.level)).any(axis=0),
                (algo.depth == np.uint32(algo.level + 1)).any(axis=0))
    return algo._frontier, algo._frontier_next


def _from_state(algo) -> dict:
    """The four activity predicates as the state says they must be."""
    now, nxt = (algo._rows_of_vertices(m) for m in _frontiers(algo))
    if isinstance(algo, Reachability) and not (algo.forward or algo.symmetric):
        none = np.zeros(algo._n_rows(), dtype=bool)
        return {"rows_active": none, "cols_active": now,
                "rows_active_next": none, "cols_active_next": nxt}
    return {"rows_active": now, "cols_active": None,
            "rows_active_next": nxt, "cols_active_next": None}


def _kept(algo) -> dict:
    return {name: getattr(algo, name)() for name in PREDICATES}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        (x is None and y is None)
        or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(a.values(), b.values())
    )


def _checked(algo) -> list:
    """Check the kept predicates against the state after every commit of
    ``algo``; returns the list each checked commit appends to."""
    commits = []
    apply = algo.apply_partial

    def apply_partial(partial):
        edges = apply(partial)
        assert _same(_kept(algo), _from_state(algo)), len(commits)
        commits.append(algo.iteration)
        return edges

    algo.apply_partial = apply_partial
    return commits


def _config(**kw) -> EngineConfig:
    return EngineConfig(memory_bytes=16 * 1024, segment_bytes=4 * 1024, **kw)


@pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed"])
@pytest.mark.parametrize("path", ["serial", "workers=2"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_kept_activity_matches_state_after_every_commit(
    name, path, graph, request, low_shard_floor, cpus
):
    tg = request.getfixturevalue(graph)
    cpus(1)
    clean = ALGORITHMS[name]()
    GStoreEngine(tg, _config()).run(clean)
    algo = ALGORITHMS[name]()
    commits = _checked(algo)
    # Two CPUs give MultiBFS, which declares the pool, two kernel threads;
    # the other kernels run serial either way.
    cpus({"serial": 1, "workers=2": 2}[path])
    with GStoreEngine(tg, _config()) as engine:
        stats = engine.run(algo)
    assert len(set(commits)) >= 2, "fewer than two iterations committed"
    assert len(commits) > stats.n_iterations, "one commit per iteration"
    assert np.array_equal(algo.result(), clean.result())
    pooled = path != "serial" and algo.pooled
    assert stats.extra["execution"]["kernel_threads"] == (2 if pooled else 1)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_resumed_run_restores_the_kept_activity(name, tmp_path, tiled_undirected):
    """The checkpoint saves the row arrays with the rest of the state: a
    resumed run selects its first iteration from the restored
    ``rows_active()`` and keeps every later commit consistent."""
    tg = tiled_undirected
    clean = ALGORITHMS[name]()
    GStoreEngine(tg, _config()).run(clean)
    ckpt = os.fspath(tmp_path / "ckpt")
    with pytest.raises(AlgorithmError):
        GStoreEngine(tg, _config(max_iterations=2)).run(
            ALGORITHMS[name](), checkpoint=ckpt
        )
    _, arrays, _, _ = CheckpointManager(ckpt).load()
    assert {"_rows_now", "_rows_next"} <= arrays.keys()
    resumed = ALGORITHMS[name]()
    commits = _checked(resumed)
    GStoreEngine(tg, _config()).run(resumed, checkpoint=ckpt)
    assert commits and min(commits) == 2
    assert np.array_equal(resumed.result(), clean.result())


def _recomputed(algo):
    """``algo`` answering every activity predicate from its state, as the
    predicates did before they were kept per commit."""
    for name in PREDICATES:
        setattr(algo, name, lambda name=name: _from_state(algo)[name])
    return algo


@pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_cache_decisions_unchanged(name, graph, request, monkeypatch):
    """Per iteration, the same tiles cached, evicted and served from the
    pool — the pool's counters are recorded after every offer — and the
    same bytes moved, whether the predicates are kept or recomputed."""
    tg = request.getfixturevalue(graph)
    offer = SCRScheduler.offer
    runs = []
    for make in (lambda: ALGORITHMS[name](), lambda: _recomputed(ALGORITHMS[name]())):
        trail = []

        def recorded(self, *args, **kw):
            offer(self, *args, **kw)
            trail.append((self.stats.tiles_cached, self.stats.tiles_evicted,
                          self.stats.analyses))

        monkeypatch.setattr(SCRScheduler, "offer", recorded)
        algo = make()
        stats = GStoreEngine(tg, _config()).run(algo)
        per_iteration = [
            (it.tiles_from_cache, it.bytes_from_cache, it.tiles_fetched,
             it.bytes_read, it.tiles_skipped, it.elapsed)
            for it in stats.iterations
        ]
        runs.append((trail, per_iteration, algo.result().tobytes()))
    assert runs[0][0] and runs[0][0][-1][0] > 0, "nothing was cached"
    assert runs[0] == runs[1]
