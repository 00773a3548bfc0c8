"""The observability layer: spans, counters, exporters, engine wiring.

What these tests pin down:

* the trace schema round-trips losslessly through JSONL and (per clock)
  through Chrome ``trace_event`` JSON;
* spans nest and record correctly from multiple threads — including the
  real prefetcher at ``prefetch_depth >= 1``;
* the simulated-clock export is byte-identical across prefetch depths
  (the determinism contract, made diffable);
* the counter registry agrees with ``RunStats`` (it subsumes the ad-hoc
  accounting, it does not fork it);
* disabled tracing (the default) is a true no-op: no records, no metric
  state, and wall overhead within the ≤2 % budget.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.cache.llc import SetAssocCache
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.faults.plan import FaultPlan
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    SpanRecord,
    Tracer,
    parse_chrome,
    parse_jsonl,
    to_chrome,
    to_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.storage.device import DeviceProfile
from repro.util.timer import SimClock


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    el = rmat(9, edge_factor=8, seed=77)
    return TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)


def _traced_run(tg, factory, depth, **cfg_kw):
    kw = dict(
        memory_bytes=24 * 1024,
        segment_bytes=4 * 1024,
        prefetch_depth=depth,
        trace=True,
    )
    kw.update(cfg_kw)
    with GStoreEngine(tg, EngineConfig(**kw)) as engine:
        stats = engine.run(factory())
        records = engine.tracer.records()
        counters = engine.tracer.registry.as_dict()
    return stats, records, counters


# --------------------------------------------------------------------- #
# Counters / registry
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("x").add(3)
        reg.counter("x").add(4)
        assert reg.value("x") == 7

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(5)
        reg.gauge("g").set(2)
        assert reg.value("g") == 2

    def test_as_dict_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").add(1)
        reg.counter("a").add(1)
        assert list(reg.as_dict()) == ["a", "b"]

    def test_counter_thread_safe(self):
        reg = MetricsRegistry()
        n, per = 8, 2000

        def bump():
            c = reg.counter("shared")
            for _ in range(per):
                c.add(1)

        threads = [threading.Thread(target=bump) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("shared") == n * per

    def test_null_registry_absorbs(self):
        reg = NullRegistry()
        reg.counter("x").add(10)
        reg.gauge("y").set(3)
        assert reg.as_dict() == {}
        assert len(reg) == 0


# --------------------------------------------------------------------- #
# Tracer semantics
# --------------------------------------------------------------------- #


class TestTracer:
    def test_span_records_wall_interval(self):
        tr = Tracer()
        with tr.span("work", cat="test", k=1):
            time.sleep(0.002)
        (rec,) = tr.records()
        assert rec.name == "work"
        assert rec.cat == "test"
        assert rec.args == {"k": 1}
        assert rec.track == threading.current_thread().name
        assert rec.dur >= 0.002
        assert rec.sim_dur is None

    def test_span_nesting_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        by_name = {r.name: r for r in tr.records()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_span_samples_sim_clock(self):
        clock = SimClock()
        clock.advance(1.5)
        tr = Tracer(clock=clock)
        with tr.span("s"):
            pass
        assert tr.records()[0].sim_ts == 1.5

    def test_sim_span(self):
        tr = Tracer()
        tr.sim_span("io", 0.5, 0.25, track="sim:io", batch=3)
        (rec,) = tr.records()
        assert (rec.sim_ts, rec.sim_dur) == (0.5, 0.25)
        assert rec.ts is None and rec.dur is None
        assert rec.track == "sim:io"

    def test_exception_still_records(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert len(tr.records()) == 1
        # depth unwound: a following span is top-level again
        with tr.span("after"):
            pass
        assert tr.records()[1].depth == 0

    def test_threaded_spans_get_own_tracks(self):
        tr = Tracer()

        def work(i):
            with tr.span("t", i=i):
                time.sleep(0.001)

        threads = [
            threading.Thread(target=work, args=(i,), name=f"tk-{i}")
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracks = {r.track for r in tr.records()}
        assert tracks == {f"tk-{i}" for i in range(4)}

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x", cat="y", a=1):
            pass
        NULL_TRACER.sim_span("s", 0, 1)
        NULL_TRACER.instant("i")
        NULL_TRACER.counter("c").add(5)
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.registry.as_dict() == {}
        # stable repr: it appears as a dataclass default in docs/API.md
        assert repr(NULL_TRACER) == "NULL_TRACER"
        assert repr(NullTracer()) == "NULL_TRACER"


# --------------------------------------------------------------------- #
# Export round-trips
# --------------------------------------------------------------------- #


def _sample_records():
    return [
        SpanRecord(
            name="compute", cat="compute", track="MainThread",
            ts=0.001, dur=0.5, sim_ts=0.25, sim_dur=None,
            depth=1, args={"batch": 2},
        ),
        SpanRecord(
            name="fetch", cat="io", track="repro-prefetch",
            ts=0.002, dur=0.4, sim_ts=None, sim_dur=None,
            depth=0, args={"bytes": 4096},
        ),
        SpanRecord(
            name="io", cat="sim", track="sim:io",
            ts=None, dur=None, sim_ts=0.0, sim_dur=0.125,
            depth=0, args={},
        ),
    ]


class TestExport:
    def test_jsonl_round_trip(self):
        recs = _sample_records()
        assert parse_jsonl(to_jsonl(recs)) == recs

    def test_jsonl_file_round_trip(self, tmp_path):
        recs = _sample_records()
        path = str(tmp_path / "t.jsonl")
        write_jsonl(recs, path)
        assert parse_jsonl(path) == recs

    def test_chrome_wall_selects_wall_spans(self):
        obj = to_chrome(_sample_records(), clock="wall")
        xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"compute", "fetch"}
        # microseconds, wall pid, sim_ts carried in args
        compute = next(e for e in xs if e["name"] == "compute")
        assert compute["ts"] == pytest.approx(1000.0)
        assert compute["dur"] == pytest.approx(500000.0)
        assert compute["args"]["sim_ts"] == 0.25

    def test_chrome_sim_selects_sim_spans(self):
        obj = to_chrome(_sample_records(), clock="sim")
        xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["io"]
        assert obj["metadata"]["clock"] == "sim"

    def test_chrome_thread_metadata(self):
        obj = to_chrome(_sample_records(), clock="wall")
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"MainThread", "repro-prefetch"}

    def test_chrome_round_trip_wall(self):
        recs = [r for r in _sample_records() if r.ts is not None]
        back = parse_chrome(json.dumps(to_chrome(recs, clock="wall")))
        assert [(r.name, r.track, r.args) for r in back] == [
            (r.name, r.track, r.args) for r in recs
        ]
        for orig, rt in zip(recs, back):
            assert rt.ts == pytest.approx(orig.ts, abs=1e-6)
            assert rt.dur == pytest.approx(orig.dur, abs=1e-6)
            assert rt.sim_ts == (
                pytest.approx(orig.sim_ts) if orig.sim_ts is not None else None
            )

    def test_chrome_round_trip_sim(self):
        recs = [r for r in _sample_records() if r.sim_dur is not None]
        back = parse_chrome(to_chrome(recs, clock="sim"))
        assert back[0].sim_ts == pytest.approx(0.0)
        assert back[0].sim_dur == pytest.approx(0.125)
        assert back[0].ts is None

    def test_counters_embedded(self):
        obj = to_chrome([], counters={"engine.bytes_read": 7})
        assert obj["metadata"]["counters"] == {"engine.bytes_read": 7}

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            to_chrome([], clock="cpu")


# --------------------------------------------------------------------- #
# Engine wiring
# --------------------------------------------------------------------- #


class TestEngineTracing:
    def test_run_emits_span_hierarchy(self, graph):
        _, records, _ = _traced_run(graph, lambda: BFS(root=0), depth=0)
        names = {r.name for r in records}
        assert {"run", "iteration", "select", "compute",
                "prepare", "decode", "fetch"} <= names
        cats = {r.name: r.cat for r in records}
        assert cats["fetch"] == "io"
        assert cats["decode"] == "decode"
        assert cats["prepare"] == "pipeline"

    def test_prefetcher_spans_on_own_track(self, graph):
        _, records, counters = _traced_run(
            graph, lambda: PageRank(max_iterations=5, tolerance=0.0), depth=2
        )
        by_track = {}
        for r in records:
            if r.ts is not None:
                by_track.setdefault(r.track, set()).add(r.name)
        assert "repro-prefetch" in by_track
        assert {"prefetch.job", "prepare", "fetch"} <= by_track["repro-prefetch"]
        # the engine thread computes and (sometimes) stalls, never fetches
        assert "compute" in by_track["MainThread"]
        assert "fetch" not in by_track["MainThread"]
        assert counters["prefetch.jobs"] > 0

    def test_wall_overlap_visible_at_depth(self, graph):
        """Prefetch fetch/decode intervals really overlap engine compute —
        and at depth 0, where each batch is prepared inside ``get()`` on
        the engine thread, never do.  The budget is far under the 7 KiB
        payload, so every iteration streams ≥ 5 batches from a
        device-paced 20 MB/s device (``tools/wall_smoke.py``'s overlap
        setup): dozens of ``prepare`` spans each slower than a compute
        span, not two that overlap by scheduling luck."""

        def overlaps(depth):
            stats, records, counters = _traced_run(
                graph, lambda: PageRank(max_iterations=5, tolerance=0.0),
                depth=depth, memory_bytes=4096, segment_bytes=1024,
                realize_io=True,
                device_profile=DeviceProfile(read_bandwidth=20e6),
            )
            assert counters["engine.batches"] >= 25
            assert all(it.tiles_fetched for it in stats.iterations)
            compute = [
                (r.ts, r.ts + r.dur) for r in records
                if r.name == "compute" and r.track == "MainThread"
            ]
            prepared = [
                (r.ts, r.ts + r.dur) for r in records if r.name == "prepare"
            ]
            assert compute and prepared
            return sum(
                1 for p0, p1 in prepared
                for c0, c1 in compute
                if max(p0, c0) < min(p1, c1)
            )

        assert overlaps(2) > 0
        assert overlaps(0) == 0

    def test_sim_trace_deterministic_across_depths(self, graph):
        """The simulated-clock export is identical bytes at any depth."""
        exports = []
        for depth in (0, 1, 3):
            _, records, _ = _traced_run(
                graph, lambda: BFS(root=0), depth=depth
            )
            exports.append(
                json.dumps(to_chrome(records, clock="sim"), sort_keys=True)
            )
        assert exports[0] == exports[1] == exports[2]

        # ... and on a budget tight enough that every iteration slides
        # through five or more batches (the payload is 7 KiB), whether the
        # batches are prepared inside get() or on the prefetch thread.
        sources = {
            "depth 0": dict(depth=0),
            "depth 2": dict(depth=2),
        }
        for factory in (
            lambda: BFS(root=0),
            lambda: PageRank(max_iterations=5, tolerance=0.0),
        ):
            exports = {}
            for name, kw in sources.items():
                stats, records, counters = _traced_run(
                    graph, factory, memory_bytes=4096, segment_bytes=1024,
                    **kw,
                )
                assert counters["engine.batches"] >= 25
                exports[name] = json.dumps(
                    to_chrome(records, clock="sim"), sort_keys=True
                )
            assert len(set(exports.values())) == 1, {
                name: len(e) for name, e in exports.items()
            }

    def test_counters_match_runstats(self, graph):
        stats, _, counters = _traced_run(
            graph, lambda: PageRank(max_iterations=5, tolerance=0.0), depth=1
        )
        assert counters["engine.bytes_read"] == stats.bytes_read
        assert counters["engine.bytes_from_cache"] == stats.bytes_from_cache
        assert counters["engine.tiles_fetched"] == stats.tiles_fetched
        assert counters["engine.tiles_from_cache"] == stats.tiles_from_cache
        assert counters["engine.edges_processed"] == stats.edges_processed
        assert counters["engine.iterations"] == len(stats.iterations)
        assert counters["engine.io_time_sim"] == pytest.approx(stats.io_time)
        assert counters["engine.compute_time_sim"] == pytest.approx(
            stats.compute_time
        )
        assert counters["engine.bytes_skipped"] == stats.bytes_skipped
        assert counters["engine.tiles_skipped"] == stats.tiles_skipped
        # source-level counters agree with the engine-level rollups
        assert counters["aio.bytes_read"] == stats.bytes_read
        assert counters["device.bytes_read"] >= stats.bytes_read
        # the pool's own tallies are added once, from SCRStats
        scr = stats.extra["scr"]
        assert counters["scr.tiles_cached"] == scr.tiles_cached
        assert counters["scr.tiles_evicted"] == scr.tiles_evicted
        assert counters["scr.analyses"] == scr.analyses
        # rewound and skipped tiles have one name each, the engine's
        for gone in ("scr.cache_hits", "scr.bytes_from_cache",
                     "scr.bytes_skipped", "selective.tiles_skipped"):
            assert gone not in counters
        # and the snapshot rides along on the stats object
        assert stats.extra["counters"] == counters

    def test_trace_results_identical_to_untraced(self, graph):
        cfg_kw = dict(memory_bytes=24 * 1024, segment_bytes=4 * 1024,
                      prefetch_depth=1)
        with GStoreEngine(graph, EngineConfig(**cfg_kw)) as engine:
            plain = BFS(root=0)
            engine.run(plain)
        with GStoreEngine(graph, EngineConfig(trace=True, **cfg_kw)) as engine:
            traced = BFS(root=0)
            engine.run(traced)
        assert np.array_equal(plain.result(), traced.result())

    def test_disabled_leaves_no_state(self, graph):
        cfg = EngineConfig(memory_bytes=24 * 1024, segment_bytes=4 * 1024)
        with GStoreEngine(graph, cfg) as engine:
            stats = engine.run(BFS(root=0))
            assert engine.tracer is NULL_TRACER
            assert engine.tracer.records() == []
        assert "counters" not in stats.extra


# --------------------------------------------------------------------- #
# docs/OBSERVABILITY.md's counter table
# --------------------------------------------------------------------- #

#: The families the runs below emit.  ``serve.`` is left out: it is the
#: query service's shared registry, not a run's.
RUN_FAMILIES = (
    "engine.", "scr.", "aio.", "device.", "prefetch.", "llc.", "fault.",
    "retry.",
)


def _documented_counters() -> "set[str]":
    """Every counter name the reference table lists for ``RUN_FAMILIES``
    (each backticked word of a row's counters column, after its prefix)."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "OBSERVABILITY.md"
    )
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    names = set()
    for line in text.split("## Counter reference", 1)[1].splitlines():
        cells = line.split("|")
        if len(cells) < 4:
            continue
        prefix = cells[1].strip().strip("`")
        if prefix in RUN_FAMILIES:
            names |= {prefix + w for w in re.findall(r"`([^`]+)`", cells[2])}
    return names


def _emitted_counters(graph) -> "set[str]":
    """Every counter name a set of traced runs emits: clean PageRank and
    BFS at prefetch depth 1; two faulted PageRank runs on a tight budget
    (in one every fault recovers, the flipped payload failing its
    checksum on the prefetch thread; in the other a persistent fault
    exhausts its retries there), each of which finishes at depth 0; and
    an LLC model with a registry."""
    names = set()
    for factory in (lambda: PageRank(max_iterations=3), lambda: BFS(root=0)):
        _, _, counters = _traced_run(graph, factory, depth=1)
        names |= set(counters)
    for spec in (
        "transient@1,short@3,spike@5:0.01,bitflip@7,slow:0:2",
        "persistent@2,dead:1",
    ):
        _, _, counters = _traced_run(
            graph, lambda: PageRank(max_iterations=3), depth=1,
            memory_bytes=4096, segment_bytes=1024, n_ssds=2,
            faults=FaultPlan.parse(spec),
        )
        names |= set(counters)
    reg = MetricsRegistry()
    SetAssocCache(64 * 1024, counters=reg).access(np.arange(0, 8192, 8))
    return names | set(reg.as_dict())


def test_counter_table_matches_emitted_names(graph):
    """Every counter the table lists is emitted by one of the runs, and
    every counter they emit is listed."""
    documented = _documented_counters()
    emitted = {
        n for n in _emitted_counters(graph) if n.startswith(RUN_FAMILIES)
    }
    assert documented - emitted == set(), "listed but never emitted"
    assert emitted - documented == set(), "emitted but not listed"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestTraceCLI:
    def test_trace_chrome_export(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "trace.json")
        rc = main(["trace", "bfs", "--rmat-scale", "9", "--depth", "2",
                   "--out", out])
        assert rc == 0
        with open(out, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["metadata"]["trace_format"] == "repro.obs v1"
        names = {e["name"] for e in obj["traceEvents"] if e["ph"] == "X"}
        assert {"run", "compute", "fetch"} <= names
        assert "counters" in obj["metadata"]
        assert "perfetto" in capsys.readouterr().out.lower()

    def test_trace_jsonl_export(self, tmp_path):
        from repro.cli import main

        out = str(tmp_path / "trace.jsonl")
        rc = main(["trace", "bfs", "--rmat-scale", "9", "--depth", "0",
                   "--format", "jsonl", "--out", out])
        assert rc == 0
        recs = parse_jsonl(out)
        assert any(r.name == "run" for r in recs)

    def test_trace_requires_a_graph(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "bfs"])


def test_public_reexports():
    import repro.obs as obs

    for name in ("Tracer", "NullTracer", "NULL_TRACER", "SpanRecord",
                 "MetricsRegistry", "NullRegistry", "Counter", "Gauge",
                 "to_chrome", "write_chrome", "parse_chrome",
                 "to_jsonl", "write_jsonl", "parse_jsonl"):
        assert hasattr(obs, name), name
