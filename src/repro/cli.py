"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered datasets and their paper counterparts.
``info NAME``
    Generate a dataset and print its shape and tile-skew profile.
``convert NAME --out DIR``
    Build the tile format on disk (data file + start-edge + metadata).
``run ALGO NAME``
    Run an algorithm semi-externally and print the statistics summary.
``trace ALGO [NAME]``
    Run with the observability layer on and export the trace — Chrome
    ``trace_event`` JSON (load in Perfetto) or JSONL.  ``--rmat-scale N``
    substitutes the 2^N R-MAT reference graph (the geometry of the overlap
    gate in ``tools/wall_smoke.py``) for a registered dataset.
``profile ALGO [NAME]``
    Run once, traced, and print where the wall time went: the run's layer
    table (``RunStats.extra["layers"]``), each row in seconds and as a
    share of ``wall_seconds``; the last line is the table as one JSON
    object.  ``--rmat-scale N`` as for ``trace``.
``bench [LABEL ...] [--results DIR]``
    Regenerate paper tables/figures (all of them without a label), print
    each, write it to ``DIR/<stem>.txt`` and exit 1 if a paper claim of
    any of them fails.
``serve NAME``
    Start the concurrent query service (docs/SERVING.md) over a dataset
    (or ``--rmat-scale N`` reference graph) on a local HTTP port.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.util.humanize import fmt_bytes

_ALGORITHMS = ("bfs", "async-bfs", "pagerank", "cc", "sssp", "spmv", "kcore")


def _make_algorithm(label: str, root: int, k: int = 2):
    from repro.algorithms import (
        BFS,
        ConnectedComponents,
        KCore,
        PageRank,
        SpMV,
        SSSP,
    )
    from repro.algorithms.async_bfs import AsyncBFS

    if label == "kcore":
        return KCore(k=k)
    if label == "bfs":
        return BFS(root=root)
    if label == "async-bfs":
        return AsyncBFS(root=root)
    if label == "pagerank":
        return PageRank()
    if label == "cc":
        return ConnectedComponents()
    if label == "sssp":
        return SSSP(root=root)
    if label == "spmv":
        return SpMV()
    raise SystemExit(f"unknown algorithm {label!r}; choose from {_ALGORITHMS}")


def cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.graphgen.datasets import dataset_names, get_spec

    for name in dataset_names():
        spec = get_spec(name)
        kind = "directed" if spec.directed else "undirected"
        print(f"{name:<22} {kind:<10} ~ {spec.paper_counterpart}")
        print(f"{'':<22} {spec.description}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.format.tiles import TiledGraph
    from repro.graphgen.datasets import get_spec

    spec = get_spec(args.name)
    el = spec.load(args.tier)
    tb, q = spec.geometry(args.tier)
    tg = TiledGraph.from_edge_list(el, tile_bits=tb, group_q=q)
    counts = tg.tile_edge_counts()
    print(el)
    print(
        f"tiles: {tg.n_tiles:,} ({tg.p}x{tg.p} grid, tile_bits={tb}, q={q})"
    )
    print(f"payload: {fmt_bytes(tg.storage_bytes())} "
          f"(+{fmt_bytes(tg.start_edge.storage_bytes())} start-edge)")
    print(
        f"tile skew: {(counts == 0).mean():.0%} empty, "
        f"{(counts < 1000).mean():.0%} under 1000 edges, "
        f"largest {int(counts.max()):,} edges"
    )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from repro.format.convert import convert_to_tiles
    from repro.graphgen.datasets import get_spec

    spec = get_spec(args.name)
    el = spec.load(args.tier)
    tb, q = spec.geometry(args.tier)
    tb = args.tile_bits if args.tile_bits is not None else tb
    q = args.group_q if args.group_q is not None else q
    tg, seconds = convert_to_tiles(el, tile_bits=tb, group_q=q)
    tg.save(args.out)
    print(
        f"converted {args.name} in {seconds:.2f}s -> {args.out} "
        f"({fmt_bytes(tg.total_disk_bytes())})"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.harness import graphs, scaled_config
    from repro.engine.gstore import GStoreEngine
    from repro.faults import FaultPlan
    from repro.memory.scr import CachePolicy

    tg = graphs().tiled(args.name, tier=args.tier)
    algo = _make_algorithm(args.algorithm, root=args.root, k=args.k)
    cfg = scaled_config(
        tg,
        memory_fraction=args.memory_fraction,
        n_ssds=args.ssds,
        cache_policy=CachePolicy.BASE if args.no_scr else CachePolicy.SCR,
    )
    if args.faults is not None:
        cfg.faults = FaultPlan.parse(args.faults)
        print(f"fault injection: {cfg.faults.describe()}")
    with GStoreEngine(tg, cfg) as engine:
        stats = engine.run(algo, checkpoint=args.checkpoint)
    print(stats.summary())
    return 0


def _run_setup(args: argparse.Namespace):
    """The graph, algorithm and config a ``trace`` or ``profile`` runs."""
    from repro.bench.harness import graphs, scaled_config

    if args.rmat_scale is not None:
        from repro.format.tiles import TiledGraph
        from repro.graphgen.rmat import rmat

        # The overlap smoke's graph (tools/wall_smoke.py) at any scale.
        el = rmat(args.rmat_scale, edge_factor=8, seed=42)
        tg = TiledGraph.from_edge_list(el, tile_bits=10, group_q=16)
    elif args.name is not None:
        tg = graphs().tiled(args.name, tier=args.tier)
    else:
        raise SystemExit(
            f"{args.command} needs a dataset NAME or --rmat-scale"
        )
    algo = _make_algorithm(args.algorithm, root=args.root, k=args.k)
    cfg = scaled_config(tg, memory_fraction=args.memory_fraction,
                        n_ssds=args.ssds)
    cfg.prefetch_depth = args.depth
    return tg, algo, cfg


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.engine.gstore import GStoreEngine
    from repro.obs import write_chrome, write_jsonl

    tg, algo, cfg = _run_setup(args)
    cfg.trace = True
    cfg.realize_io = args.device_paced
    with GStoreEngine(tg, cfg) as engine:
        stats = engine.run(algo)
        records = engine.tracer.records()
        counters = engine.tracer.registry.as_dict()
    if args.format == "jsonl":
        write_jsonl(records, args.out)
    else:
        write_chrome(records, args.out, clock=args.clock, counters=counters)
    print(stats.summary())
    tracks = sorted({r.track for r in records if r.ts is not None})
    print(
        f"trace: {len(records)} spans on {len(tracks)} wall tracks "
        f"({', '.join(tracks)}) + simulated lanes"
    )
    print(f"wrote {args.out} — open it at https://ui.perfetto.dev "
          f"(or chrome://tracing)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.engine.gstore import GStoreEngine

    tg, algo, cfg = _run_setup(args)
    cfg.trace = True  # the layer table is kept by traced runs
    with GStoreEngine(tg, cfg) as engine:
        stats = engine.run(algo)
    print(stats.summary())
    layers = stats.extra["layers"]
    wall = stats.wall_seconds
    print(f"{'layer':<16}{'seconds':>12}{'of wall':>10}")
    for row, seconds in layers.items():
        print(f"{row:<16}{seconds:>12.6f}{seconds / wall:>10.1%}")
    print(json.dumps({"wall_seconds": wall, "layers": layers}))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Exit codes: 0 = clean, 1 = corrupt (graph or checkpoint), 2 =
    unable to verify (the checksum pass was requested but the graph
    predates checksums, or ``--checkpoint`` named an empty directory)."""
    from repro.errors import FormatError
    from repro.format.tiles import TiledGraph
    from repro.format.validate import check_tiled_graph

    try:
        # Semi-external: the audit streams the payload, a slab at a time.
        tg = TiledGraph.load(args.directory, resident=False)
    except FormatError as exc:
        # Unreadable or inconsistent files fail load's own audit.
        print(f"tile graph CORRUPT: {exc}")
        return 1
    rep = check_tiled_graph(
        tg, deep=not args.shallow, checksums=args.checksums
    )
    print(rep)
    corrupt = not rep.ok and not rep.checksums_unavailable
    unable = rep.checksums_unavailable
    if rep.checksums_unavailable:
        print(
            "checksums unavailable: graph saved before format version 2; "
            "re-save it to add them"
        )
    if args.checkpoint is not None:
        from repro.engine.checkpoint import check_checkpoint

        crep = check_checkpoint(args.checkpoint, graph=tg)
        print(crep)
        if crep.present:
            corrupt = corrupt or not crep.ok
        else:
            unable = True
    if corrupt:
        return 1
    return 2 if unable else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.harness import graphs, scaled_config
    from repro.engine.gstore import GStoreEngine
    from repro.errors import QueryError
    from repro.serve import QueryService, ServiceConfig
    from repro.serve.http import make_server

    try:
        service_config = ServiceConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            cache_entries=args.cache_entries,
            default_deadline=args.deadline,
            trace_queries=args.trace_queries,
        )
    except QueryError as exc:
        raise SystemExit(f"serve: {exc}") from None
    if args.rmat_scale is not None:
        from repro.format.tiles import TiledGraph
        from repro.graphgen.rmat import rmat

        el = rmat(args.rmat_scale, edge_factor=16, seed=5)
        tg = TiledGraph.from_edge_list(el, tile_bits=10, group_q=8)
    elif args.name is not None:
        tg = graphs().tiled(args.name, tier=args.tier)
    else:
        raise SystemExit("serve needs a dataset NAME or --rmat-scale")
    cfg = scaled_config(tg, memory_fraction=args.memory_fraction)
    engine = GStoreEngine(tg, cfg)
    service = QueryService(engine, service_config)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"serving {tg.info.name} ({tg.n_vertices:,} vertices) "
        f"on http://{host}:{port} — "
        f"{args.workers} workers, queue depth {args.queue_depth}"
    )
    print("endpoints: GET /healthz, GET /stats, POST /query "
          "(see docs/SERVING.md)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        engine.close()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import EXPERIMENTS

    entries = {entry[0]: entry for entry in EXPERIMENTS}
    failed = []
    for label in args.labels or list(entries):
        _, runner, (stem, _), verdict = entries[label]
        table, data = runner()
        text = table.render()
        print(text)
        if args.results:
            os.makedirs(args.results, exist_ok=True)
            with open(os.path.join(args.results, f"{stem}.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(text + "\n")
        failed += [f"{label}: {claim}" for claim in verdict(data)]
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import build_report

    text, status = build_report(args.results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"wrote {args.out}: {len(status.found)} experiments, "
            f"{len(status.missing)} missing"
        )
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="G-Store (SC'16) reproduction command line",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets").set_defaults(
        fn=cmd_datasets
    )

    pi = sub.add_parser("info", help="dataset shape and tile skew")
    pi.add_argument("name")
    pi.add_argument("--tier", default=None, choices=["tiny", "small", "large"])
    pi.set_defaults(fn=cmd_info)

    pc = sub.add_parser("convert", help="build the tile format on disk")
    pc.add_argument("name")
    pc.add_argument("--out", required=True)
    pc.add_argument("--tier", default=None, choices=["tiny", "small", "large"])
    pc.add_argument("--tile-bits", type=int, default=None)
    pc.add_argument("--group-q", type=int, default=None)
    pc.set_defaults(fn=cmd_convert)

    pr = sub.add_parser("run", help="run an algorithm semi-externally")
    pr.add_argument("algorithm", choices=_ALGORITHMS)
    pr.add_argument("name")
    pr.add_argument("--tier", default=None, choices=["tiny", "small", "large"])
    pr.add_argument("--root", type=int, default=0)
    pr.add_argument("--k", type=int, default=2, help="k for kcore")
    pr.add_argument("--memory-fraction", type=float, default=0.25)
    pr.add_argument("--ssds", type=int, default=1)
    pr.add_argument("--faults", default=None, metavar="SEED_OR_SPEC",
                    help="inject storage faults: an integer seed, or a "
                         "comma-separated event spec such as "
                         "'transient@3,spike@5:0.01,slow:0:4' "
                         "(see docs/RELIABILITY.md)")
    pr.add_argument("--checkpoint", default=None, metavar="DIR",
                    help="checkpoint algorithm state here every iteration; "
                         "resumes automatically when DIR already holds one")
    pr.add_argument("--no-scr", action="store_true",
                    help="use the two-segment base policy instead of SCR")
    pr.set_defaults(fn=cmd_run)

    def run_arguments(parser: argparse.ArgumentParser) -> None:
        """What ``trace`` and ``profile`` take to set a run up."""
        parser.add_argument("algorithm", choices=_ALGORITHMS)
        parser.add_argument("name", nargs="?", default=None)
        parser.add_argument("--tier", default=None,
                            choices=["tiny", "small", "large"])
        parser.add_argument("--rmat-scale", type=int, default=None,
                            help="run on the 2^N R-MAT reference graph "
                                 "instead of a registered dataset")
        parser.add_argument("--root", type=int, default=0)
        parser.add_argument("--k", type=int, default=2, help="k for kcore")
        parser.add_argument("--memory-fraction", type=float, default=0.25)
        parser.add_argument("--ssds", type=int, default=1)
        parser.add_argument("--depth", type=int, default=None,
                            help="prefetch depth (0 = serial baseline; "
                                 "default: 2 with --device-paced, else 0)")

    pt = sub.add_parser(
        "trace", help="run with tracing on and export a Chrome/JSONL trace"
    )
    run_arguments(pt)
    pt.add_argument("--device-paced", action="store_true",
                    help="sleep simulated I/O time for real (realize_io)")
    pt.add_argument("--out", default="trace.json")
    pt.add_argument("--format", default="chrome", choices=["chrome", "jsonl"])
    pt.add_argument("--clock", default="wall", choices=["wall", "sim"],
                    help="chrome export timeline: real threads (wall) or "
                         "the deterministic simulated lanes (sim)")
    pt.set_defaults(fn=cmd_trace)

    pp = sub.add_parser(
        "profile", help="run once and print the run's layer table"
    )
    run_arguments(pp)
    pp.set_defaults(fn=cmd_profile)

    pf = sub.add_parser("fsck", help="audit an on-disk tile graph")
    pf.add_argument("directory")
    pf.add_argument("--checksums", action="store_true",
                    help="deep-verify every tile extent against its stored "
                         "CRC32C (exit 2 when the graph predates checksums)")
    pf.add_argument("--shallow", action="store_true",
                    help="metadata checks only (skip payload walk)")
    pf.add_argument("--checkpoint", default=None, metavar="DIR",
                    help="also validate the checkpoint in DIR "
                         "(state.npz/meta.json integrity, iteration "
                         "cross-check, cache-pool membership against "
                         "this graph); exit 1 if corrupt, 2 if absent")
    pf.set_defaults(fn=cmd_fsck)

    ps = sub.add_parser(
        "serve", help="start the concurrent query service over HTTP"
    )
    ps.add_argument("name", nargs="?", default=None)
    ps.add_argument("--tier", default=None, choices=["tiny", "small", "large"])
    ps.add_argument("--rmat-scale", type=int, default=None,
                    help="serve the 2^N R-MAT reference graph instead of a "
                         "registered dataset")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8080)
    ps.add_argument("--workers", type=int, default=4,
                    help="query worker threads")
    ps.add_argument("--queue-depth", type=int, default=16,
                    help="admission bound: max queries admitted at once; "
                         "beyond it submissions fail fast (HTTP 429)")
    ps.add_argument("--cache-entries", type=int, default=128,
                    help="LRU result-cache entries (0 disables)")
    ps.add_argument("--deadline", type=float, default=None,
                    help="default per-query deadline in seconds "
                         "(HTTP 504 when exceeded)")
    ps.add_argument("--memory-fraction", type=float, default=0.25)
    ps.add_argument("--trace-queries", action="store_true",
                    help="give each query a tracing private context and "
                         "attach its counter snapshot to the result")
    ps.set_defaults(fn=cmd_serve)

    pb = sub.add_parser(
        "bench", help="regenerate paper tables/figures and check their claims"
    )
    from repro.bench.experiments import EXPERIMENTS

    labels = [entry[0] for entry in EXPERIMENTS]

    def experiment(label: str) -> str:
        # Validated per label rather than by ``choices``: with ``nargs="*"``
        # argparse (3.11) checks an empty list against the choices too.
        if label not in labels:
            raise argparse.ArgumentTypeError(f"unknown experiment {label!r}")
        return label

    pb.add_argument("labels", nargs="*", type=experiment, metavar="LABEL",
                    help="experiments to run (default: all, in this order): "
                         + ", ".join(labels))
    pb.add_argument("--results", default=None, metavar="DIR",
                    help="also write each table to DIR/<stem>.txt")
    pb.set_defaults(fn=cmd_bench)

    pr2 = sub.add_parser(
        "report", help="collate benchmarks/results into one markdown report"
    )
    pr2.add_argument("--results", default="benchmarks/results")
    pr2.add_argument("--out", default=None)
    pr2.set_defaults(fn=cmd_report)

    return p


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
