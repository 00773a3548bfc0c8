#!/usr/bin/env python
"""The equivalence lattice: what every execution path must agree on.

One enumeration of engine configurations, declared here once, is checked
two ways, each record being the result's sha256 and every *simulated*
statistic (``RunStats`` totals, every ``IterationStats`` field,
``SCRStats``, the pipeline totals) plus the resolved
``extra["execution"]`` values — nothing measured on the wall clock, and
nothing that depends on the machine's CPU count (``kernel_threads``):

* across trees: ``--against <rev>`` exports ``<rev>`` with ``git
  archive``, runs the enumeration on both trees (a subprocess each,
  ``PYTHONPATH`` pointing at the tree's ``src/``) and diffs the records.
  Exit 1 on any difference, each printed field by field.  Keys of
  revisions that also varied a ``workers`` setting (``depth<d>-workers<w>``)
  are read as ``depth<d>``.
* within this tree: :func:`lattice_violations` asserts the equalities the
  axes promise (one answer per algorithm, graph and budget; one simulated
  run per selective mode; dense sweeps bounding selective demand), and
  ``tests/test_equiv_lattice.py`` runs it in tier-1 beside independent
  oracles for every distinct answer.

The enumeration, every engine run at one lowered shard floor
(``tests/shard_floor.py``), so the ~2 000-edge batches of these budgets
still cut into several shards:

* 11 algorithms + direction-optimising BFS on three graphs — an
  undirected R-MAT, a directed R-MAT keeping its self-loops, and a
  directed graph of the format's edge cases — × selective on/off × the
  24 KB/4 KB and 8 KB/4 KB budgets × the prefetch depths
  (``EXECUTIONS``: 0, 2, 1, 4 — 576 runs).  MultiBFS runs on the kernel
  pool wherever the machine has two CPUs.  That an answer does not
  depend on where a batch is cut into shards is a property of the kernel
  contract, checked in ``tests/test_fused_equivalence.py``.
* one private-context run and one checkpoint resume of BFS and PageRank
  per graph (12).
* SCC over the directed graph, payload resident and left on disk (2).
* the comparators: X-Stream, FlashGraph and GridGraph × BFS / PageRank / CC
  × undirected/directed × a thrashing and a resident page-cache budget ×
  ``overlap`` on/off (72 runs: result digest, every ``RunStats`` and
  ``IterationStats`` field, the model's clock, page-cache counters).

662 records in all.  Every answer, float sums included, is the same
bits under any cut of a batch into shards: PageRank and SpMV add in edge
order (``pagerank.scatter_add``), reading each batch's SNB payload
(tile form) rather than widened global IDs, which reorders nothing, so
trees that scattered over the widened IDs give the same records.  That
edge order is a declared behaviour change against trees whose scatter
summed per-shard vertex windows: against them the 54 ``pagerank/*``
result digests differ, and nothing else does.

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
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGETS = ((24 * 1024, 4 * 1024), (8 * 1024, 4 * 1024))
#: ``prefetch_depth`` of the engine runs: the serial baseline (what the
#: default resolves to over page-cached reads), then the prefetch thread
#: at depths 2, 1 and 4.
EXECUTIONS = (0, 2, 1, 4)
#: (memory, segment) of the comparator runs: 8 and 64 pages of page cache
#: under a graph of 32 (CSR) to 64 (full tuples) pages.
COMPARATOR_BUDGETS = ((32 * 1024, 4 * 1024), (256 * 1024, 16 * 1024))


# ---------------------------------------------------------------------- #
# Enumeration (runs against whatever ``repro`` is importable)
# ---------------------------------------------------------------------- #

def algorithms():
    """Every algorithm of the lattice, by name, as a factory."""
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
        "pagerank": lambda: PageRank(max_iterations=10, tolerance=1e-12),
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


def _edge_cases():
    """One directed graph carrying the format's edge cases at
    ``tile_bits=6``: self-loops, duplicate edges, the max-ID vertex (in a
    partial last tile row), two hubs on either side of a tile-row boundary
    whose spokes land in every row, and — the random edges being confined
    to a vertex prefix — many empty tiles."""
    import numpy as np

    from repro.format.edgelist import EdgeList

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


def edge_lists():
    """The lattice's graphs, by kind, as the edge lists :func:`tiled`
    stores."""
    from repro.graphgen.rmat import rmat

    return {
        "undirected": rmat(9, edge_factor=8, seed=31),
        "directed": rmat(9, edge_factor=8, seed=32, directed=True),
        "edge-cases": _edge_cases(),
    }


def tiled(el):
    """One lattice graph as the engine reads it: 64-vertex tiles, so the
    ~500-vertex graphs span an 8 × 8 grid."""
    from repro.format.tiles import TiledGraph

    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


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
    # The statistics dataclasses are flat: vars() copies them without
    # asdict's recursive deep copy, ~5 % of the enumeration's time.
    rec["iterations"] = [dict(vars(it)) for it in stats.iterations]
    return rec


def _stats_record(stats) -> dict:
    """Every simulated field of one run; nothing from the wall clock."""
    rec = _run_fields(stats)
    for key in ("scr", "pipeline"):
        rec[key] = dict(vars(stats.extra[key]))
    return rec


def _record(algo, stats):
    """``(record, answer)`` of one engine run."""
    answer = algo.result()
    rec = {
        "result": _digest(answer),
        "stats": _stats_record(stats),
        # lane_wait_s is the wall clock's; kernel_threads the machine's.
        "execution": {
            k: v for k, v in stats.extra["execution"].items()
            if k not in ("lane_wait_s", "kernel_threads")
        },
    }
    if hasattr(algo, "rounds"):  # MIS: a changed set shows how, not just that
        rec["rounds"] = algo.rounds
        rec["members"] = algo.in_set().tolist()
    return rec, answer


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
    }, res.labels


def _comparator_records():
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
    for (kind, el), budget, overlap, (label, make), (name, program) in (
        itertools.product(
            graphs.items(), COMPARATOR_BUDGETS, (True, False),
            engines.items(), programs.items(),
        )
    ):
        engine = make(el, BaselineConfig(
            memory_bytes=budget[0], segment_bytes=budget[1], overlap=overlap,
        ))
        result, stats = program(engine)
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
            rec, result,
        )


def enumerate_records():
    """Yield ``(key, record, answer)`` for every configuration: the record
    the trees are diffed on and the result array its digest names.

    An engine run's key is ``algorithm/graph/budget/fused/variant/mode``
    — variant ``depth<d>``, ``private`` or ``resumed``, mode
    ``selective`` or ``dense``.  The constant ``fused`` segment keeps the
    keys those of earlier revisions, which also ran per-tile dispatch.
    """
    from repro.engine.config import EngineConfig
    from repro.engine.gstore import GStoreEngine
    from repro.errors import AlgorithmError
    from repro.format.tiles import TiledGraph
    from tests.shard_floor import lowered

    algos = algorithms()
    graphs = {kind: tiled(el) for kind, el in edge_lists().items()}

    def config(budget, **kw):
        return EngineConfig(memory_bytes=budget[0], segment_bytes=budget[1], **kw)

    def key(name, kind, budget, variant, selective=True):
        return (
            f"{name}/{kind}/{budget[0] >> 10}K/fused/{variant}/"
            f"{'selective' if selective else 'dense'}"
        )

    with lowered():
        for (kind, tg), budget, selective, depth in itertools.product(
            graphs.items(), BUDGETS, (True, False), EXECUTIONS,
        ):
            cfg = config(budget, prefetch_depth=depth, selective=selective)
            variant = f"depth{depth}"
            with GStoreEngine(tg, cfg) as engine:
                for name, make in algos.items():
                    algo = make()
                    yield (key(name, kind, budget, variant, selective),
                           *_record(algo, engine.run(algo)))

        budget = BUDGETS[0]
        for (kind, tg), name in itertools.product(
            graphs.items(), ("bfs", "pagerank"),
        ):
            with GStoreEngine(tg, config(budget)) as engine:
                algo = algos[name]()
                stats = engine.run(algo, context=engine.query_context())
                yield (key(name, kind, budget, "private"), *_record(algo, stats))
            with tempfile.TemporaryDirectory() as ckpt:
                try:
                    with GStoreEngine(
                        tg, config(budget, max_iterations=3)
                    ) as engine:
                        engine.run(algos[name](), checkpoint=ckpt)
                except AlgorithmError:
                    pass  # the interruption: iteration 3 is checkpointed
                with GStoreEngine(tg, config(budget)) as engine:
                    algo = algos[name]()
                    stats = engine.run(algo, checkpoint=ckpt)
                yield (key(name, kind, budget, "resumed"), *_record(algo, stats))

        directed = graphs["directed"]
        cfg = config((64 * 1024, 8 * 1024))
        yield ("scc/directed/resident", *_scc(directed, cfg))
        with tempfile.TemporaryDirectory() as d:
            external = TiledGraph.load(directed.save(d), resident=False)
            yield ("scc/directed/external", *_scc(external, cfg))

    yield from _comparator_records()


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


def _declared_execution(variant, mode) -> dict:
    """The ``extra["execution"]`` values an engine run's key declares: the
    configuration, and what the engine must resolve it to (a private run
    is one thread at depth 0; an unset depth runs the prefetch thread only
    when reads block)."""
    from repro.engine.config import EngineConfig
    from repro.runtime.prefetch import BLOCKING_IO_DEPTH

    default = EngineConfig()
    depth = default.prefetch_depth
    if variant.startswith("depth"):
        depth = int(variant[len("depth"):])
    private = variant == "private"
    resolved = depth
    if depth is None:
        resolved = BLOCKING_IO_DEPTH if default.realize_io else 0
    return {
        "selective": mode == "selective",
        "prefetch_depth": depth,
        "prefetch_depth_resolved": 0 if private else resolved,
        "realize_io": default.realize_io,
        "degraded": False,
        "private_context": private,
    }


def _demand(stats) -> int:
    """Bytes a run (or one iteration) asked for: fetched plus rewound."""
    return stats["bytes_read"] + stats["bytes_from_cache"]


def lattice_violations(records: dict) -> "list[str]":
    """The within-tree equalities of the enumeration's engine runs, one
    line per broken field, naming the key (and the key it was held to):

    * one answer (result digest; MIS rounds and members) per algorithm,
      graph and budget across every run — depth, selective on/off,
      private context, checkpoint resume;
    * one simulated run (every ``stats`` field) per selective mode across
      depth and private context, and ``execution`` as
      each key declares it;
    * dense skips nothing and every dense iteration is one full sweep; no
      selective iteration asks for more, and a selective run asks for no
      more than the dense one — plus one sweep for live kernels, whose
      dense sweeps also relax what the frontier has not reached yet.
    """
    factories = algorithms()
    live = {name: make().live_kernel for name, make in factories.items()}
    # SCC and the comparators are diffed across trees only.
    runs = {key: key.split("/") for key in records
            if key.split("/", 1)[0] in factories}
    answer_of, run_of = {}, {}  # the first run of each group is its reference
    for key, (name, kind, budget, _, variant, mode) in runs.items():
        answer_of.setdefault((name, kind, budget), key)
        if variant != "resumed":  # a resumed run starts with a cold cache
            run_of.setdefault((name, kind, budget, mode), key)

    out: "list[str]" = []

    def differ(key, ours, ref_key, theirs):
        out.extend(f"{line} (against {ref_key})"
                   for line in diff_records(ours, theirs, key))

    for key, (name, kind, budget, _, variant, mode) in runs.items():
        rec = records[key]
        ref_key = answer_of[name, kind, budget]
        answer, ref = (
            {k: v for k, v in r.items() if k not in ("stats", "execution")}
            for r in (rec, records[ref_key])
        )
        differ(key, answer, ref_key, ref)
        out += diff_records(
            rec["execution"],
            _declared_execution(variant, mode),
            f"{key}.execution",
        )
        if variant == "resumed":
            continue
        ref_key = run_of[name, kind, budget, mode]
        differ(f"{key}.stats", rec["stats"], ref_key, records[ref_key]["stats"])

    for key in run_of.values():
        if not key.endswith("/dense"):
            continue
        dense = records[key]["stats"]
        sel_key = key[:-len("dense")] + "selective"
        sel = records[sel_key]["stats"]
        sweep = _demand(dense["iterations"][0])
        if dense["tiles_skipped"]:
            out.append(f"{key}.stats.tiles_skipped: {dense['tiles_skipped']} > 0")
        for k, it in enumerate(dense["iterations"]):
            if _demand(it) != sweep:
                out.append(f"{key}.stats.iterations[{k}]: demand "
                           f"{_demand(it)} is not one sweep ({sweep})")
        for k, it in enumerate(sel["iterations"]):
            if _demand(it) > sweep:
                out.append(f"{sel_key}.stats.iterations[{k}]: demand "
                           f"{_demand(it)} > one dense sweep ({sweep})")
        is_live = live[key.split("/", 1)[0]]
        bound = _demand(dense) + (sweep if is_live else 0)
        if _demand(sel) > bound:
            out.append(f"{sel_key}.stats: demand {_demand(sel)} > {bound} "
                       f"(dense {key})")
        if not is_live and len(sel["iterations"]) != len(dense["iterations"]):
            out.append(f"{sel_key}.stats.iterations: {len(sel['iterations'])} "
                       f"iterations, dense {len(dense['iterations'])}")
    return out


def _tree_env(src: str) -> dict:
    """The environment of a run of the tree at ``src``: this one, with
    ``src`` put first on ``PYTHONPATH`` and the caller's entries kept after
    it (a ``sitecustomize`` there that blocks cffi runs both trees on the
    NumPy tier)."""
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, *rest]))


def _run_tree(src: str) -> dict:
    """The enumeration's records with ``src`` first on the import path."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--enumerate"],
        env=_tree_env(src), check=True, stdout=subprocess.PIPE, text=True,
    )
    return dict(
        (re.sub(r"/(depth\d+)-workers\d+/", r"/\1/", key), rec)
        for key, rec in map(json.loads, proc.stdout.splitlines())
    )


def compare(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
            check=True, stdout=subprocess.PIPE,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        theirs = _run_tree(os.path.join(tmp, "src"))
    ours = _run_tree(os.path.join(ROOT, "src"))
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
        for key, rec, _ in enumerate_records():
            print(json.dumps([key, rec]))
        return 0
    return compare(args.against)


if __name__ == "__main__":
    sys.path.insert(0, ROOT)  # for tests.shard_floor
    sys.exit(main())
