#!/usr/bin/env python
"""The equivalence matrix: does this tree compute what another revision did?

``--against <rev>`` exports ``<rev>`` with ``git archive``, runs one
enumeration of engine configurations on both trees (a subprocess each,
``PYTHONPATH`` pointing at the tree's ``src/``) and diffs one record per
configuration — the result's sha256 and every *simulated* statistic
(``RunStats`` totals, every ``IterationStats`` field, ``SCRStats``, the
pipeline totals; nothing measured on the wall clock).  Exit 1 on any
difference, each printed field by field.

The enumeration:

* 11 algorithms + direction-optimising BFS × undirected/directed storage ×
  fused/per-tile × ``prefetch_depth`` 0/2 × ``workers`` 1/2 × selective
  on/off × the 24 KB/4 KB and 8 KB/4 KB budgets (768 single-process runs).
  Fused/per-tile is one kernel at two dispatch granularities (a shard of
  the batch, or a single tile) — every algorithm has exactly one
  implementation, so the axis compares dispatch, not twins.
  The directed graph keeps its self-loops.  ``MIN_SHARD_EDGES`` is lowered
  for these, as the tier-1 matrices lower it, so the ~1 000-edge batches of
  those budgets still cut into several shards.
* ``shards=2`` (default shard floor, coordinator and workers alike): every
  algorithm on one engine per graph and budget.
* one private-context run and one checkpoint resume of BFS and PageRank
  per graph and decode path.
* SCC over the directed graph, payload resident and left on disk.
* the comparators: X-Stream, FlashGraph and GridGraph × BFS / PageRank / CC
  × undirected/directed × a thrashing and a resident page-cache budget ×
  ``overlap`` on/off (72 runs: result digest, every ``RunStats`` and
  ``IterationStats`` field, the model's clock, page-cache counters).

906 records in all.

Usage::

    PYTHONPATH=src python tools/equiv_matrix.py --against HEAD^
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile

BUDGETS = ((24 * 1024, 4 * 1024), (8 * 1024, 4 * 1024))
LOW_SHARD_FLOOR = 256
#: (memory, segment) of the comparator runs: 8 and 64 pages of page cache
#: under a graph of 32 (CSR) to 64 (full tuples) pages.
COMPARATOR_BUDGETS = ((32 * 1024, 4 * 1024), (256 * 1024, 16 * 1024))


# ---------------------------------------------------------------------- #
# Enumeration (runs against whatever ``repro`` is importable)
# ---------------------------------------------------------------------- #

def _algorithms():
    from repro.algorithms.async_bfs import AsyncBFS
    from repro.algorithms.bfs import BFS
    from repro.algorithms.cc import ConnectedComponents
    from repro.algorithms.kcore import KCore
    from repro.algorithms.mis import MaximalIndependentSet
    from repro.algorithms.multibfs import MultiSourceBFS
    from repro.algorithms.pagerank import PageRank
    from repro.algorithms.reachability import Reachability
    from repro.algorithms.spmv import SpMV
    from repro.algorithms.sssp import SSSP

    return {
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


def _digest(array) -> str:
    import numpy as np

    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def _run_fields(stats) -> dict:
    """The simulated ``RunStats`` totals and every ``IterationStats`` field."""
    rec = {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in ("iterations", "wall_seconds", "extra")
    }
    rec["iterations"] = [dataclasses.asdict(it) for it in stats.iterations]
    return rec


def _stats_record(stats) -> dict:
    """Every simulated field of one run; nothing from the wall clock."""
    rec = _run_fields(stats)
    for key in ("scr", "pipeline"):
        rec[key] = dataclasses.asdict(stats.extra[key])
    return rec


def _record(algo, stats) -> dict:
    rec = {"result": _digest(algo.result()), "stats": _stats_record(stats)}
    if hasattr(algo, "rounds"):  # MIS: a changed set shows how, not just that
        rec["rounds"] = algo.rounds
        rec["members"] = algo.in_set().tolist()
    return rec


def _scc(graph, cfg):
    from repro.algorithms.scc import SCCDriver
    from repro.engine.gstore import GStoreEngine

    with GStoreEngine(graph, cfg) as engine:
        try:
            driver = SCCDriver(engine)
        except TypeError:  # revisions whose driver built an engine per sweep
            driver = SCCDriver(lambda: GStoreEngine(graph, cfg), graph)
        res = driver.run()
    return {
        "result": _digest(res.labels),
        "n_components": res.n_components,
        "pivot_rounds": res.pivot_rounds,
        "trimmed": res.trimmed,
        "sweeps": [_stats_record(s) for s in res.reachability_stats],
        "trims": [_stats_record(s) for s in res.trim_stats],
    }


def _comparator_records(names):
    """X-Stream, FlashGraph and GridGraph: one record per engine, program,
    orientation, budget and ``overlap`` — a fresh engine each, so the page
    cache starts cold."""
    from repro.baselines import FlashGraphEngine, GridGraphEngine, XStreamEngine
    from repro.baselines.common import BaselineConfig
    from repro.graphgen.rmat import rmat

    programs = {
        "bfs": lambda eng: eng.run_bfs(0),
        "pagerank": lambda eng: eng.run_pagerank(max_iterations=25, tolerance=1e-12),
        "cc": lambda eng: eng.run_cc(),
    }
    engines = {
        "xstream": XStreamEngine,
        "flashgraph": FlashGraphEngine,
        "gridgraph": lambda el, cfg: GridGraphEngine(el, cfg, n_parts=8),
    }
    graphs = {
        kind: rmat(11, edge_factor=8, seed=seed, directed=kind == "directed")
        for kind, seed in (("undirected", 33), ("directed", 34))
    }
    for (kind, el), budget, overlap, (label, make), name in itertools.product(
        graphs.items(), COMPARATOR_BUDGETS, (True, False), engines.items(),
        [n for n in programs if n in names],
    ):
        engine = make(el, BaselineConfig(
            memory_bytes=budget[0], segment_bytes=budget[1], overlap=overlap,
        ))
        result, stats = programs[name](engine)
        rec = {
            "result": _digest(result),
            "stats": _run_fields(stats),
            "clock": engine.clock.now,
        }
        if hasattr(engine, "cache"):
            rec["page_cache"] = dataclasses.asdict(engine.cache.stats)
        yield (
            f"{label}/{name}/{kind}/{budget[0] >> 10}K/"
            f"{'overlap' if overlap else 'serial'}",
            rec,
        )


def enumerate_records(algorithms: "list[str] | None" = None):
    """Yield ``(key, record)`` for every configuration (``algorithms``
    narrows the list — the tier-1 smoke test runs one)."""
    import repro.types
    from repro.engine.config import EngineConfig
    from repro.engine.gstore import GStoreEngine
    from repro.errors import AlgorithmError
    from repro.format.tiles import TiledGraph
    from repro.graphgen.rmat import rmat

    algos = _algorithms()
    names = sorted(algos) if algorithms is None else algorithms
    graphs = {
        kind: TiledGraph.from_edge_list(
            rmat(9, edge_factor=8, seed=seed, directed=kind == "directed"),
            tile_bits=6, group_q=4,
        )
        for kind, seed in (("undirected", 31), ("directed", 32))
    }

    def config(budget, **kw):
        return EngineConfig(memory_bytes=budget[0], segment_bytes=budget[1], **kw)

    floor = repro.types.MIN_SHARD_EDGES
    repro.types.MIN_SHARD_EDGES = LOW_SHARD_FLOOR
    try:
        for (kind, tg), budget, fused, depth, workers, selective in (
            itertools.product(
                graphs.items(), BUDGETS, (True, False), (0, 2), (1, 2),
                (True, False),
            )
        ):
            cfg = config(budget, fused=fused, prefetch_depth=depth,
                         workers=workers, selective=selective, shards=1)
            with GStoreEngine(tg, cfg) as engine:
                for name in names:
                    algo = algos[name]()
                    yield (
                        f"{name}/{kind}/{budget[0] >> 10}K/"
                        f"{'fused' if fused else 'per-tile'}/depth{depth}/"
                        f"workers{workers}/"
                        f"{'selective' if selective else 'dense'}",
                        _record(algo, engine.run(algo)),
                    )
    finally:
        repro.types.MIN_SHARD_EDGES = floor

    for (kind, tg), budget in itertools.product(graphs.items(), BUDGETS):
        with GStoreEngine(tg, config(budget, shards=2)) as engine:
            for name in names:
                algo = algos[name]()
                yield (
                    f"{name}/{kind}/{budget[0] >> 10}K/shards2",
                    _record(algo, engine.run(algo)),
                )

    for (kind, tg), fused, name in itertools.product(
        graphs.items(), (True, False),
        [n for n in ("bfs", "pagerank") if n in names],
    ):
        path = "fused" if fused else "per-tile"
        with GStoreEngine(tg, config(BUDGETS[0], fused=fused, shards=1)) as engine:
            algo = algos[name]()
            stats = engine.run(algo, context=engine.query_context())
            yield f"{name}/{kind}/{path}/private", _record(algo, stats)
        with tempfile.TemporaryDirectory() as ckpt:
            try:
                with GStoreEngine(
                    tg, config(BUDGETS[0], fused=fused, shards=1, max_iterations=3)
                ) as engine:
                    engine.run(algos[name](), checkpoint=ckpt)
            except AlgorithmError:
                pass  # the interruption: iteration 3 is checkpointed
            with GStoreEngine(tg, config(BUDGETS[0], fused=fused, shards=1)) as engine:
                algo = algos[name]()
                stats = engine.run(algo, checkpoint=ckpt)
            yield f"{name}/{kind}/{path}/resumed", _record(algo, stats)

    if algorithms is None:
        directed = graphs["directed"]
        cfg = config((64 * 1024, 8 * 1024), shards=1)
        yield "scc/directed/resident", _scc(directed, cfg)
        with tempfile.TemporaryDirectory() as d:
            external = TiledGraph.load(directed.save(d), resident=False)
            yield "scc/directed/external", _scc(external, cfg)

    yield from _comparator_records(names)


# ---------------------------------------------------------------------- #
# Comparison
# ---------------------------------------------------------------------- #

def diff_records(ours: dict, theirs: dict, path: str = "") -> "list[str]":
    """Field-level differences between two (nested) records."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        out = []
        for key in sorted(set(ours) | set(theirs)):
            where = f"{path}.{key}" if path else str(key)
            if key not in ours or key not in theirs:
                side = "this tree" if key not in ours else "the other revision"
                out.append(f"{where}: missing in {side}")
            else:
                out += diff_records(ours[key], theirs[key], where)
        return out
    if (
        isinstance(ours, list) and isinstance(theirs, list)
        and len(ours) == len(theirs)
        and any(isinstance(x, dict) for x in ours)
    ):
        return [
            line
            for k, (a, b) in enumerate(zip(ours, theirs))
            for line in diff_records(a, b, f"{path}[{k}]")
        ]
    return [] if ours == theirs else [f"{path}: {theirs!r} -> {ours!r}"]


def _run_tree(src: str) -> dict:
    """The enumeration's records with ``src`` first on the import path."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--enumerate"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        stdout=subprocess.PIPE, text=True,
    )
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def compare(rev: str) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", root, "archive", "--format=tar", rev, "src"],
            check=True, stdout=subprocess.PIPE,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        theirs = _run_tree(os.path.join(tmp, "src"))
    ours = _run_tree(os.path.join(root, "src"))
    lines = diff_records(ours, theirs)
    for line in lines:
        print(line)
    changed = {line.split(".", 1)[0].split(":", 1)[0] for line in lines}
    verdict = f"{len(changed)} differ" if lines else "identical"
    print(f"{len(ours)} configurations against {rev}: {verdict}")
    return 1 if lines else 0


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV",
                      help="the git revision to compare this tree with")
    mode.add_argument("--enumerate", action="store_true",
                      help="print this tree's records, one JSON pair a line")
    args = ap.parse_args(argv)
    if args.enumerate:
        for pair in enumerate_records():
            print(json.dumps(pair))
        return 0
    return compare(args.against)


if __name__ == "__main__":
    sys.exit(main())
