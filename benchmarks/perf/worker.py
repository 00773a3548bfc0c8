"""One phase of one workload, run in a process of its own by ``run.py``.

``prepare`` generates the input from the seed and writes it (timed as
``setup_s``); ``measure`` loads it in a fresh process, warms up once, runs
ops for the measured window and checks every output; ``trace`` is the
separate per-layer run.  Each phase prints one JSON object as the last
line of its standard output.

The end-to-end path (``prepare`` + ``measure``) touches only
``TiledGraph.from_edge_list/save/load``, ``EngineConfig(memory_bytes,
segment_bytes)``, ``GStoreEngine.run`` and ``QueryService``; everything
that reaches deeper lives in ``layer_walk.py`` and the ``trace`` phase.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_load  # noqa: E402
import spec  # noqa: E402

sys.path.insert(0, spec.SRC)


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _read_meta(workdir: str) -> dict:
    with open(os.path.join(workdir, "meta.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _edge_list(workdir: str, meta: dict):
    from repro.format.edgelist import EdgeList

    src, dst = np.load(os.path.join(workdir, "edges.npy"))
    return EdgeList(src, dst, meta["n_vertices"], directed=False,
                    name=meta["name"])


def _engine_config(w: spec.Workload, payload_bytes: int, **extra):
    from repro.engine.config import EngineConfig

    segment = max(payload_bytes // 16, 4096)
    memory = max(int(payload_bytes * w.mem_factor), 2 * segment)
    return EngineConfig(memory_bytes=memory, segment_bytes=segment, **extra)


def _make_algorithm(w: spec.Workload, meta: dict):
    if w.algo == "pagerank":
        from repro.algorithms.pagerank import PageRank

        return PageRank(max_iterations=spec.PAGERANK_ITERATIONS, tolerance=0.0)
    if w.algo == "bfs":
        from repro.algorithms.bfs import BFS

        return BFS(root=meta["root"])
    from repro.algorithms.sssp import SSSP

    return SSSP(root=meta["root"])


def _check_batch_result(w: spec.Workload, meta: dict, workdir: str,
                        result: np.ndarray) -> "str | None":
    """Compare one op's result with the scipy oracle; ``None`` if it agrees."""
    import oracles

    src, dst = np.load(os.path.join(workdir, "edges.npy"))
    adj = oracles.simple_undirected(src, dst, meta["n_vertices"])
    if w.algo == "pagerank":
        ref = oracles.pagerank(adj, spec.PAGERANK_ITERATIONS)
        if not np.allclose(result, ref, rtol=1e-9, atol=1e-15):
            return f"pagerank differs from scipy by {np.abs(result - ref).max():.3e}"
        return None
    if w.algo == "bfs":
        ref = oracles.bfs_depths(adj, meta["root"])
        got = result.astype(np.float64)
        got[result == np.iinfo(result.dtype).max] = np.inf
        if not np.array_equal(got, ref):
            return f"bfs depths differ from scipy on {int((got != ref).sum())} vertices"
        if np.isfinite(ref).sum() * 2 < meta["n_vertices"]:
            return "bfs root reaches fewer than half the vertices"
        return None
    from repro.algorithms.sssp import edge_weights

    ref = oracles.sssp_distances(adj, meta["root"], edge_weights)
    if not np.allclose(result, ref, rtol=1e-12, atol=0.0):
        return "sssp distances differ from scipy dijkstra"
    return None


class Timings:
    """The wall time of each op of a run: as measured (``raw``) and in
    seconds of the reference machine (``ref``, see ``spec.normalised``),
    with the machine slowdown measured around each op (``cal``)."""

    def __init__(self, cal_calls: float) -> None:
        self.cal_calls = cal_calls
        self.raw: "list[float]" = []
        self.ref: "list[float]" = []
        self.cal: "list[float]" = [spec.slowdown(cal_calls)]

    def add(self, elapsed: float, latencies: "list[float] | None" = None) -> float:
        """Record the op that ended just now after ``elapsed`` seconds (or
        the ``latencies`` of the queries of one serve pass); runs the
        calibration that follows it and returns the factor that took the
        wall times to reference-machine seconds."""
        self.cal.append(spec.slowdown(self.cal_calls, elapsed))
        scale = spec.normalised(1.0, self.cal[-2], self.cal[-1])
        seconds = [elapsed] if latencies is None else latencies
        self.raw += seconds
        self.ref += [dt * scale for dt in seconds]
        return scale

    def metrics(self, busy_s: "float | None" = None) -> dict:
        """``busy_s`` is the reference-machine time a closed loop of
        several clients took to complete the ops; without it one op ran
        at a time and ``qps`` is what the median op time sustains."""
        wall_s = median(self.ref)
        return {
            "wall_s": wall_s,
            "qps": 1.0 / wall_s if busy_s is None else len(self.ref) / busy_s,
            "latency_p50_ms": wall_s * 1e3,
            "latency_p95_ms": spec.supported_p95(self.ref) * 1e3,
        }

    def report(self) -> dict:
        """What the run's record keeps beside the metrics."""
        return {"op_latencies_s": self.ref, "op_latencies_raw_s": self.raw,
                "machine_slowdown": median(self.cal)}


def _timed_ops(seconds: float, min_ops: int, op, timings: Timings):
    """Call ``op()`` until ``seconds`` have passed and ``min_ops`` ran,
    timing each call into ``timings``; yields what each call returned."""
    t_start = time.perf_counter()
    while len(timings.raw) < min_ops or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        value = op()
        timings.add(time.perf_counter() - t0)
        yield value


def _window(seconds: float, min_ops: int):
    """Yield op indices until ``seconds`` have passed and ``min_ops`` ran."""
    t0 = time.perf_counter()
    n = 0
    while n < min_ops or time.perf_counter() - t0 < seconds:
        yield n
        n += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# prepare
# --------------------------------------------------------------------- #


def prepare(w: spec.Workload, seed: int, workdir: str, smoke: bool) -> dict:
    from repro.format.tiles import TiledGraph
    from repro.graphgen.rmat import rmat

    scale, tile_bits = w.geometry(smoke)
    slow = spec.slowdown(spec.SETUP_CAL_CALLS)
    t0 = time.perf_counter()
    el = rmat(scale, edge_factor=w.edge_factor, seed=seed)
    np.save(os.path.join(workdir, "edges.npy"), np.stack([el.src, el.dst]))
    meta = {
        "name": el.name,
        "n_vertices": int(el.n_vertices),
        "generated_edges": int(el.n_edges),
        "tile_bits": tile_bits,
    }
    if w.kind != "ingest":
        tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits,
                                       group_q=spec.GROUP_Q)
        tg.save(os.path.join(workdir, "graph"))
        meta["disk_bytes"] = int(tg.total_disk_bytes())
    setup_s = time.perf_counter() - t0
    setup_ref_s = spec.normalised(
        setup_s, slow, spec.slowdown(spec.SETUP_CAL_CALLS, setup_s))
    if w.algo in ("bfs", "sssp"):
        # The highest-degree vertex of the seeded graph: always in the
        # giant component, and its distance to everything else varies
        # little from seed to seed, so the op costs about the same.
        # Choosing it is making the input, not setting the system up.
        deg = np.bincount(el.src, minlength=el.n_vertices)
        deg += np.bincount(el.dst, minlength=el.n_vertices)
        meta["root"] = int(np.argmax(deg))
    with open(os.path.join(workdir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return {"setup_s": setup_ref_s, "setup_raw_s": setup_s}


# --------------------------------------------------------------------- #
# measure
# --------------------------------------------------------------------- #


def measure_ingest(w, meta, workdir, seconds, min_ops) -> dict:
    from repro.algorithms.pagerank import PageRank
    from repro.engine.gstore import GStoreEngine
    from repro.format.tiles import TiledGraph

    el = _edge_list(workdir, meta)
    graph_dir = os.path.join(workdir, "graph")

    def op():
        tg = TiledGraph.from_edge_list(el, tile_bits=meta["tile_bits"],
                                       group_q=spec.GROUP_Q)
        tg.save(graph_dir)
        return tg, TiledGraph.load(graph_dir)

    built, loaded = op()  # warm-up
    reference = _digest(built.payload)
    failures: "list[str]" = []
    timings = Timings(w.cal_calls)
    for built, loaded in _timed_ops(seconds, min_ops, op, timings):
        # What load() read back is what from_edge_list() built, and what
        # is on disk is that payload, byte for byte.
        with open(loaded.payload_path, "rb") as fh:
            on_disk = hashlib.sha256(fh.read()).hexdigest()
        if not (
            _digest(loaded.payload) == reference
            and on_disk == reference
            and loaded.n_edges == built.n_edges
        ):
            failures.append("loaded payload differs from the built one")
    rss = _peak_rss_mb()

    # Independent edge count: unique undirected non-loop edges of the input.
    src, dst = el.src.astype(np.int64), el.dst.astype(np.int64)
    keep = src != dst
    lo, hi = np.minimum(src, dst)[keep], np.maximum(src, dst)[keep]
    expected_edges = int(np.unique(lo * el.n_vertices + hi).size)
    if loaded.n_edges != expected_edges:
        failures.append(
            f"stored {loaded.n_edges} edges, input has {expected_edges}"
        )

    # What the engine pays to read back what ingest wrote: one cold full
    # scan.  This is where a format change that grows bytes shows.
    semi_external = TiledGraph.load(graph_dir, resident=False)
    with GStoreEngine(
        semi_external, _engine_config(w, semi_external.storage_bytes())
    ) as engine:
        scan = engine.run(PageRank(max_iterations=1, tolerance=0.0))
    if scan.edges_processed != expected_edges:
        failures.append("cold scan did not visit every stored edge once")

    metrics = timings.metrics()
    metrics.update(
        sim_s=scan.sim_elapsed,
        bytes_read=scan.bytes_read,
        bytes_per_edge=loaded.total_disk_bytes() / meta["generated_edges"],
        peak_rss_mb=rss,
    )
    return {"metrics": metrics, "attempted": len(timings.raw) + 1,
            "failures": failures, **timings.report()}


def measure_batch(w, meta, workdir, seconds, min_ops) -> dict:
    from repro.engine.gstore import GStoreEngine
    from repro.format.tiles import TiledGraph

    g = TiledGraph.load(os.path.join(workdir, "graph"), resident=False)
    failures: "list[str]" = []
    timings = Timings(w.cal_calls)
    sims: "list[float]" = []
    reads: "list[int]" = []
    digests: "list[str]" = []
    with GStoreEngine(g, _engine_config(w, g.storage_bytes())) as engine:

        def op():
            algo = _make_algorithm(w, meta)
            return algo, engine.run(algo)

        algo, _ = op()  # warm-up
        first = np.array(algo.result(), copy=True)
        digests.append(_digest(first))
        for algo, stats in _timed_ops(seconds, min_ops, op, timings):
            sims.append(stats.sim_elapsed)
            reads.append(stats.bytes_read)
            digests.append(_digest(algo.result()))
    rss = _peak_rss_mb()

    wrong = sum(d != digests[0] for d in digests)
    if wrong:
        failures += ["op result differs from the first op's"] * wrong
    if len(set(sims)) > 1 or len(set(reads)) > 1:
        failures.append("sim_s or bytes_read changed between ops of one run")
    mismatch = _check_batch_result(w, meta, workdir, first)
    if mismatch:
        # Every op produced this same wrong result.
        failures += [mismatch] * (len(digests) - wrong)

    metrics = timings.metrics()
    metrics.update(
        sim_s=sims[0],
        bytes_read=reads[0],
        bytes_per_edge=meta["disk_bytes"] / meta["generated_edges"],
        peak_rss_mb=rss,
    )
    return {"metrics": metrics, "attempted": len(digests),
            "failures": failures, **timings.report()}


def _open_engine(w, workdir):
    from repro.engine.gstore import GStoreEngine
    from repro.format.tiles import TiledGraph

    g = TiledGraph.load(os.path.join(workdir, "graph"), resident=False)
    return GStoreEngine(g, _engine_config(w, g.storage_bytes()))


def _service(engine, trace_queries: bool = False):
    from repro.serve import QueryService, ServiceConfig

    return QueryService(
        engine,
        ServiceConfig(workers=spec.SERVE_WORKERS,
                      queue_depth=spec.SERVE_QUEUE_DEPTH, cache_entries=0,
                      trace_queries=trace_queries),
    )


def _serve_load(w, service, mix, expected, clients, seconds, min_passes) -> dict:
    """Whole passes of the mix through ``clients`` closed-loop clients until
    ``seconds`` have passed and ``min_passes`` ran, the machine's slowdown
    measured between passes (the clients are idle then, so that times the
    machine, not the contention)."""
    timings = Timings(w.cal_calls)
    kinds: "list[str]" = []
    busy_s = 0.0
    attempted = failed = 0
    for _ in _window(seconds, min_passes):
        p = serve_load.one_pass(service, mix, expected, clients)
        busy_s += p["elapsed"] * timings.add(
            p["elapsed"], [dt for _, dt in p["latencies"]])
        kinds += [kind for kind, _ in p["latencies"]]
        attempted += len(mix)
        failed += p["failed"]
    return {"timings": timings, "kinds": kinds, "busy_s": busy_s,
            "attempted": attempted, "failed": failed}


def measure_serve(w, meta, workdir, seconds, min_ops) -> dict:
    with _open_engine(w, workdir) as engine:
        mix = serve_load.query_mix(
            np.asarray(engine.graph.out_degrees), meta["seed"])
        # One client, every query of the mix once: the warm-up, the
        # reference digests, and (from each query's private counters) the
        # device bytes and simulated device time one pass costs.
        expected: dict = {}
        device_bytes = 0
        device_sim_s = 0.0
        with _service(engine, trace_queries=True) as service:
            for q in mix:
                r = service.execute(q)
                expected[q] = r.sha256
                device_bytes += r.counters.get("aio.bytes_read", 0)
                device_sim_s += r.counters.get("aio.io_time_sim", 0.0)
        with _service(engine) as service:
            load = _serve_load(w, service, mix, expected,
                               spec.SERVE_CLIENTS, seconds, min_ops)
            rejected = service.stats().get("serve.rejected", 0)
    rss = _peak_rss_mb()

    metrics = load["timings"].metrics(load["busy_s"])
    metrics.update(
        sim_s=device_sim_s / len(mix),
        bytes_read=device_bytes / len(mix),
        bytes_per_edge=meta["disk_bytes"] / meta["generated_edges"],
        peak_rss_mb=rss,
    )
    failures = ["query failed, was refused, or returned a wrong digest"] * load["failed"]
    if rejected and not failures:
        failures.append(f"{rejected} queries refused at admission")
    return {"metrics": metrics, "attempted": load["attempted"],
            "failures": failures, **load["timings"].report()}


def measure(w, seed, workdir, seconds, smoke) -> dict:
    meta = _read_meta(workdir)
    meta["seed"] = seed
    # An op of ``serve_mix`` is, for this count, one pass of the mix.
    min_ops = 1 if smoke else (
        spec.SERVE_MIN_PASSES if w.kind == "serve" else spec.MIN_OPS)
    fn = {"ingest": measure_ingest, "batch": measure_batch,
          "serve": measure_serve}[w.kind]
    out = fn(w, meta, workdir, seconds, min_ops)
    out["metrics"]["fail_frac"] = min(1.0, len(out["failures"]) / out["attempted"])
    return out


# --------------------------------------------------------------------- #
# trace
# --------------------------------------------------------------------- #


def _medians(rows: "list[dict]") -> dict:
    return {k: median([r[k] for r in rows]) for k in rows[0]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: The walk metrics that add up over the queries of a serve mix (with
#: the walk's timers, which all do).
WALK_ADDITIVE = (
    "algorithms.iterations", "algorithms.tiles_dispatched",
    "storage.requests", "storage.bytes_read", "storage.sim_io_s",
    "engine.walk_s", "engine.unattributed_s",
)


def _walk_metrics(seconds: dict, counts: dict, wall: float) -> dict:
    """Per-layer metrics of one layer walk: its timers plus what its
    counts and wall time derive."""
    c = counts.get
    moved = c("bytes_read", 0) + c("bytes_from_cache", 0)
    return {
        **seconds,
        "algorithms.iterations": c("iterations", 0),
        "algorithms.tiles_dispatched": c("tiles_dispatched", 0),
        "algorithms.kernel_medges_per_s": _ratio(
            c("edges", 0) / 1e6, seconds["algorithms.kernel_s"]),
        "format.decode_tiles_per_s": _ratio(
            c("tiles_fetched", 0), seconds["format.decode_s"]),
        "format.decode_medges_per_s": _ratio(
            c("edges_decoded", 0) / 1e6, seconds["format.decode_s"]),
        "storage.requests": c("requests", 0),
        "storage.tiles_per_request": _ratio(
            c("tiles_fetched", 0), c("requests", 0)),
        "storage.bytes_read": c("bytes_read", 0),
        "storage.sim_io_s": c("sim_io_s", 0.0),
        "memory.tiles_cached": c("tiles_cached", 0),
        "memory.cache_hit_frac": _ratio(c("bytes_from_cache", 0), moved),
        "engine.skipped_bytes_frac": _ratio(
            c("bytes_skipped", 0), moved + c("bytes_skipped", 0)),
        "engine.walk_s": wall,
        "engine.unattributed_s": wall - sum(seconds.values()),
    }


def _walk_failed(exc, names) -> "tuple[dict, dict]":
    """Every walk-derived metric reads null; the failing layer is named."""
    errors = {}
    for name in names:
        if name.split(".")[0] == exc.layer:
            errors[name] = exc.error
        else:
            errors[name] = f"layer walk stopped in {exc.layer}: {exc.error}"
    return dict.fromkeys(names), errors


def _checked_walk(engine, algorithm, reference, stats, serial_wall):
    """One layer walk as a metrics row, checked against the ``engine.run``
    (``reference`` result, ``stats``) of the same op."""
    import layer_walk

    wr = layer_walk.walk(engine, algorithm)
    failures = []
    exact = np.issubdtype(reference.dtype, np.integer)
    same = (np.array_equal(wr.result, reference) if exact
            else np.allclose(wr.result, reference, rtol=1e-12, atol=0.0))
    if not same:
        failures.append("layer walk result differs from engine.run")
    if wr.counts.get("bytes_read", 0) != stats.bytes_read:
        failures.append("layer walk read different bytes than engine.run")
    row = _walk_metrics(wr.seconds, wr.counts, wr.wall)
    row["engine.walk_over_run"] = wr.wall / serial_wall
    return row, failures


def trace_batch(w, meta, workdir, seconds, min_ops) -> dict:
    import layer_walk
    from repro.engine.gstore import GStoreEngine
    from repro.format.tiles import TiledGraph

    g = TiledGraph.load(os.path.join(workdir, "graph"), resident=False)
    payload = g.storage_bytes()
    failures: "list[str]" = []
    walk_error = None
    walks: "list[dict]" = []
    runtime: "list[dict]" = []
    untraced: "list[float]" = []
    attempted = 0
    with GStoreEngine(g, _engine_config(w, payload)) as engine, \
            GStoreEngine(g, _engine_config(w, payload, prefetch_depth=0)) as serial:
        engine.run(_make_algorithm(w, meta))  # warm-up
        for _ in _window(seconds, min_ops):
            # The same op three ways: the engine without prefetch (the
            # walk's yardstick), the layer walk, the engine as configured.
            # A walk that cannot run costs only the walk's own metrics.
            if walk_error is None:
                algo = _make_algorithm(w, meta)
                t0 = time.perf_counter()
                stats = serial.run(algo)
                serial_wall = time.perf_counter() - t0
                try:
                    row, wrong = _checked_walk(
                        engine, _make_algorithm(w, meta),
                        np.array(algo.result(), copy=True), stats, serial_wall)
                except layer_walk.WalkUnavailable as exc:
                    walk_error = exc
                else:
                    walks.append(row)
                    failures += wrong
                    attempted += 2
            t0 = time.perf_counter()
            stats = engine.run(_make_algorithm(w, meta))
            untraced.append(time.perf_counter() - t0)
            attempted += 1
            pw = stats.extra["pipeline_wall"]
            runtime.append({
                "runtime.io_busy_s": pw["io_busy"],
                "runtime.compute_busy_s": pw["compute_busy"],
                "runtime.io_stall_s": pw["io_stall"],
                "runtime.prefetched_frac": _ratio(pw["prefetched"], pw["batches"]),
            })
        if w.name == "pr_stream":
            with GStoreEngine(g, _engine_config(w, payload, trace=True)) as traced:
                traced.run(_make_algorithm(w, meta))  # warm-up
                t0 = time.perf_counter()
                traced.run(_make_algorithm(w, meta))
                traced_wall = time.perf_counter() - t0
            attempted += 1
    metrics = _medians(runtime)
    errors: "dict[str, str]" = {}
    if walk_error is None:
        metrics.update(_medians(walks))
    else:
        names = _walk_metrics(dict.fromkeys(layer_walk.TIMERS, 0.0), {}, 0.0)
        nulls, errors = _walk_failed(
            walk_error, (*names, "engine.walk_over_run"))
        metrics.update(nulls)
    if w.name == "pr_stream":
        metrics["obs.trace_overhead_frac"] = (
            traced_wall / median(untraced) - 1.0
        )
    return {"metrics": metrics, "errors": errors, "attempted": attempted,
            "failures": failures}


def trace_ingest(w, meta, workdir, seconds, min_ops) -> dict:
    from repro.format.tiles import TiledGraph

    el = _edge_list(workdir, meta)
    graph_dir = os.path.join(workdir, "graph")
    rows: "list[dict]" = []
    failures: "list[str]" = []
    for n in _window(seconds, min_ops + 1):
        t0 = time.perf_counter()
        tg = TiledGraph.from_edge_list(el, tile_bits=meta["tile_bits"],
                                       group_q=spec.GROUP_Q)
        t1 = time.perf_counter()
        tg.save(graph_dir)
        t2 = time.perf_counter()
        loaded = TiledGraph.load(graph_dir)
        t3 = time.perf_counter()
        if _digest(loaded.payload) != _digest(tg.payload):
            failures.append("loaded payload differs from the built one")
        if n:  # the first pass is the warm-up
            rows.append({
                "format.encode_s": t1 - t0,
                "format.save_s": t2 - t1,
                "format.load_s": t3 - t2,
                "format.encode_medges_per_s":
                    meta["generated_edges"] / 1e6 / (t1 - t0),
            })
    return {"metrics": _medians(rows), "errors": {},
            "attempted": len(rows) + 1, "failures": failures}


def trace_serve(w, meta, workdir, seconds, min_ops) -> dict:
    import layer_walk
    from repro.algorithms.bfs import BFS
    from repro.algorithms.pagerank import PageRank
    from repro.algorithms.reachability import Reachability
    from repro.algorithms.sssp import SSSP
    from repro.serve.queries import payload_digest

    engine = _open_engine(w, workdir)
    service = _service(engine)
    failures: "list[str]" = []
    errors: "dict[str, str]" = {}
    try:
        mix = serve_load.query_mix(
            np.asarray(engine.graph.out_degrees), meta["seed"])
        expected = {q: service.execute(q).sha256 for q in mix}
        # Load metrics are in reference-machine seconds, like the
        # end-to-end ones; the timers further down are as measured.
        one = _serve_load(w, service, mix, expected, 1, seconds / 2, 1)
        two = _serve_load(w, service, mix, expected, spec.SERVE_CLIENTS,
                          seconds / 2, 1)
        failed = one["failed"] + two["failed"]
        failures += ["query failed or returned a wrong digest"] * failed
        qps1 = (one["attempted"] - one["failed"]) / one["busy_s"]
        qps2 = (two["attempted"] - two["failed"]) / two["busy_s"]
        metrics = {
            "serve.qps_1client": qps1,
            "serve.concurrency_scaling": _ratio(qps2, qps1),
            "serve.rejected": service.stats().get("serve.rejected", 0),
        }
        for kind in serve_load.KINDS:
            metrics[f"serve.latency_p50_ms.{kind}"] = 1e3 * median(
                [dt for k, dt in zip(one["kinds"], one["timings"].ref)
                 if k == kind])

        # What the service adds on top of the query itself, and what the
        # reply digest costs, per query.
        overhead: "list[float]" = []
        digest: "list[float]" = []
        for q in mix:
            t0 = time.perf_counter()
            service.execute(q)
            t1 = time.perf_counter()
            payload = q.run(engine, engine.query_context())
            t2 = time.perf_counter()
            payload_digest(payload)
            t3 = time.perf_counter()
            overhead.append((t1 - t0) - (t2 - t1))
            digest.append(t3 - t2)
        metrics["serve.overhead_ms"] = 1e3 * median(overhead)
        metrics["serve.digest_ms"] = 1e3 * median(digest)

        # Where the engine time of one pass of the mix goes: walk every
        # algorithm-backed query once and add the layers up.
        algorithms = {
            "bfs": lambda q: BFS(root=q.root),
            "sssp": lambda q: SSSP(root=q.root),
            "pagerank_topk": lambda q: PageRank(
                max_iterations=q.max_iterations, tolerance=q.tolerance),
            "reachability": lambda q: Reachability(seeds=[q.source]),
        }
        additive = (*layer_walk.TIMERS, *WALK_ADDITIVE)
        total = dict.fromkeys(additive, 0.0)
        walked = 0
        try:
            for q in mix:
                if q.name not in algorithms:
                    continue
                wr = layer_walk.walk(engine, algorithms[q.name](q))
                row = _walk_metrics(wr.seconds, wr.counts, wr.wall)
                walked += 1
                for key in additive:
                    total[key] += row[key]
        except layer_walk.WalkUnavailable as exc:
            total, errors = _walk_failed(exc, additive)
        metrics.update(total)
    finally:
        service.close()
        engine.close()
    attempted = len(mix) * 3 + one["attempted"] + two["attempted"] + walked
    return {"metrics": metrics, "errors": errors, "attempted": attempted,
            "failures": failures}


def trace(w, seed, workdir, seconds, smoke) -> dict:
    meta = _read_meta(workdir)
    meta["seed"] = seed
    min_ops = 1 if smoke else 2
    fn = {"ingest": trace_ingest, "batch": trace_batch,
          "serve": trace_serve}[w.kind]
    return fn(w, meta, workdir, seconds, min_ops)


# --------------------------------------------------------------------- #


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=("prepare", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    w = spec.WORKLOADS[args.workload]
    if args.phase == "prepare":
        out = prepare(w, args.seed, args.dir, args.smoke)
    elif args.phase == "measure":
        out = measure(w, args.seed, args.dir, args.seconds, args.smoke)
    else:
        out = trace(w, args.seed, args.dir, args.seconds, args.smoke)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
