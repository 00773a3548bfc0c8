"""The serving layer: concurrent queries over one shared engine.

What these tests pin down:

* engine re-entrancy — two threads running ``engine.run`` with private
  contexts on *one* engine produce results bit-identical to serial runs
  (the RunContext refactor's contract);
* concurrent-query correctness — N client threads x the full mixed
  query surface, every payload sha256-equal to its serial baseline;
* the typed failure paths — :class:`AdmissionError` raised
  synchronously at the bound, :class:`DeadlineError` raised
  cooperatively at iteration boundaries, and the service staying
  healthy after both;
* result-cache semantics — hits under one graph fingerprint, misses
  when the fingerprint changes (a different graph can never serve
  another's cached results);
* per-query counter isolation — concurrent traced queries accumulate
  into private registries with no cross-query bleed, while the shared
  ``serve.*`` registry loses no updates under contention;
* the HTTP front-end (skipped where sockets are unavailable).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AdmissionError, DeadlineError, QueryError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.serve import (
    BFSQuery,
    NeighborhoodQuery,
    PageRankTopKQuery,
    QueryService,
    ReachabilityQuery,
    ResultCache,
    ServiceConfig,
    SSSPQuery,
    graph_fingerprint,
    payload_digest,
    query_from_dict,
)


@pytest.fixture(scope="module")
def edge_list():
    return rmat(10, edge_factor=8, seed=77)


@pytest.fixture(scope="module")
def graph(edge_list) -> TiledGraph:
    return TiledGraph.from_edge_list(edge_list, tile_bits=7, group_q=4)


@pytest.fixture(scope="module")
def engine(graph):
    # Tight budget: several slide batches per query, so rewind and
    # multi-batch dispatch run inside every private context.
    eng = GStoreEngine(
        graph, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    yield eng
    eng.close()


@pytest.fixture()
def service(engine):
    svc = QueryService(
        engine, ServiceConfig(workers=4, queue_depth=64)
    )
    yield svc
    svc.close()


MIX = (
    [BFSQuery(root=r) for r in (0, 3, 17)]
    + [SSSPQuery(root=r) for r in (1, 9)]
    + [PageRankTopKQuery(k=5, max_iterations=6)]
    + [NeighborhoodQuery(vertex=v) for v in (2, 40)]
    + [ReachabilityQuery(source=0, target=5)]
)


class TestEngineReentrancy:
    """The RunContext refactor: concurrent ``run()`` on one engine."""

    def test_private_context_matches_batch_run(self, engine):
        batch = BFS(root=4)
        engine.run(batch)
        private = BFS(root=4)
        engine.run(private, context=engine.query_context())
        assert np.array_equal(batch.result(), private.result())

    def test_concurrent_runs_match_serial(self, engine):
        def run_bfs(root):
            algo = BFS(root=root)
            engine.run(algo, context=engine.query_context())
            return algo.result()

        roots = [0, 3, 7, 11]
        serial = {r: run_bfs(r) for r in roots}
        out: dict = {}

        def worker(root):
            out[root] = run_bfs(root)

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in roots
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in roots:
            assert np.array_equal(out[r], serial[r])

    def test_private_run_reports_serial_execution(self, engine):
        stats = engine.run(BFS(root=0), context=engine.query_context())
        execution = stats.extra["execution"]
        assert execution["private_context"] is True
        assert execution["kernel_threads"] == 1

    def test_private_run_spawns_no_engine_threads(
        self, graph, monkeypatch, cpus
    ):
        """A private run that both rewinds and slides is exactly one
        thread — fetch, decode and kernels all on the caller's (the
        ``query_context`` contract) — on an engine whose batch path would
        start both kinds (a prefetch depth, and two CPUs for a kernel
        that declares the pool): no ``Thread.start`` at all."""
        cpus(2)
        started: "list[str]" = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        cfg = EngineConfig(
            memory_bytes=10 * 1024, segment_bytes=2 * 1024,
            prefetch_depth=2,
        )
        with GStoreEngine(graph, cfg) as eng:
            stats = eng.run(
                PageRank(max_iterations=3, tolerance=0.0),
                context=eng.query_context(),
            )
            assert any(
                it.tiles_from_cache and it.tiles_fetched
                for it in stats.iterations
            )
            pooled = MultiSourceBFS([0, 5, 9])
            assert pooled.pooled
            eng.run(pooled, context=eng.query_context())
            assert started == []
            assert eng._pool is None
            execution = stats.extra["execution"]
            assert execution["prefetch_depth"] == 2
            assert execution["prefetch_depth_resolved"] == 0
            # The spy sees what it should: the batch path prefetches.
            eng.run(PageRank(max_iterations=1, tolerance=0.0))
            assert any(name.startswith("repro-prefetch") for name in started)

    def test_private_context_rejects_fault_injection(self, graph):
        from repro.faults import FaultPlan

        eng = GStoreEngine(
            graph,
            EngineConfig(
                memory_bytes=64 * 1024,
                segment_bytes=8 * 1024,
                faults=FaultPlan.parse("3"),
            ),
        )
        try:
            with pytest.raises(Exception):
                eng.query_context()
        finally:
            eng.close()


class TestQueries:
    def test_mixed_queries_match_serial_baselines(self, service):
        baselines = {q: service.execute(q).sha256 for q in MIX}
        service.cache.clear()
        results: dict = {}
        errors: list = []

        def client(tid):
            try:
                for q in MIX:
                    results[(tid, q)] = service.execute(q).sha256
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(tid,)) for tid in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6 * len(MIX)
        for (_tid, q), digest in results.items():
            assert digest == baselines[q], f"corrupted result for {q}"
        # The six clients did queue for the engine lane, and left it empty.
        stats = service.stats()
        assert stats["serve.lane_wait_s"] > 0
        assert stats["serve.lane_waiting"] == 0

    def test_neighborhood_matches_edge_list(self, service, edge_list):
        v = 2
        nbrs = service.execute(NeighborhoodQuery(vertex=v)).payload[
            "neighbors"
        ]
        src = edge_list.src.astype(np.int64)
        dst = edge_list.dst.astype(np.int64)
        expect = np.unique(
            np.concatenate([dst[src == v], src[dst == v]])
        )
        assert np.array_equal(np.sort(nbrs.astype(np.int64)), expect)

    @pytest.mark.parametrize("directed", [False, True])
    def test_neighborhood_digest_by_direction(self, directed):
        # The lookup reads through the engine's decode step; whatever
        # shape its views take, the payload is the stored tuples' answer.
        el = rmat(9, edge_factor=8, seed=5, directed=directed)
        tg = TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)
        stored = tg.to_edge_list()
        src, dst = stored.src, stored.dst
        cfg = EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
        with GStoreEngine(tg, cfg) as eng:
            for v in (0, 1, 77, 300, tg.n_vertices - 1):
                sides = {"out": [dst[src == v]], "in": [src[dst == v]]}
                sides["both"] = sides["out"] + sides["in"]
                for direction, parts in sides.items():
                    if not directed:
                        parts = sides["both"]
                    payload = NeighborhoodQuery(
                        vertex=v, direction=direction
                    ).run(eng, eng.query_context())
                    expect = {"neighbors": np.unique(np.concatenate(parts))}
                    assert payload_digest(payload) == payload_digest(expect), (
                        v, direction,
                    )

    def test_pagerank_topk_is_deterministic_and_ordered(self, service):
        q = PageRankTopKQuery(k=8, max_iterations=6)
        a = service.execute(q)
        service.cache.clear()
        b = service.execute(q)
        assert a.sha256 == b.sha256
        ranks = a.payload["ranks"]
        assert np.all(np.diff(ranks) <= 0)
        assert a.payload["vertices"].shape == (8,)

    def test_reachability_payload(self, service):
        r = service.execute(ReachabilityQuery(source=0, target=0))
        assert r.payload["reachable"] is True
        assert r.payload["visited_count"] >= 1

    def test_out_of_range_vertex_is_typed(self, service):
        with pytest.raises(QueryError):
            service.execute(BFSQuery(root=10**9))

    def test_query_from_dict_round_trip(self):
        q = query_from_dict({"type": "bfs", "root": 3})
        assert q == BFSQuery(root=3)
        with pytest.raises(QueryError):
            query_from_dict({"type": "nope"})
        with pytest.raises(QueryError):
            query_from_dict({"type": "bfs", "bogus": 1})


@pytest.mark.parametrize("field, value", [
    ("workers", 0), ("queue_depth", 0), ("cache_entries", -1),
    ("retry_attempts", -1), ("health_error_threshold", 0),
    ("health_recovery_threshold", 0), ("workers", 2.0), ("queue_depth", True),
    ("cache_entries", "8"), ("default_deadline", -1.0),
    ("default_deadline", 0), ("default_deadline", float("nan")),
    ("default_deadline", True), ("default_deadline", "1"),
])
def test_service_config_rejects_what_no_service_can_run(field, value):
    """An out-of-range or mistyped value fails at construction, typed and
    naming its field — not as a pool error, or a service that rejects or
    times out every query."""
    with pytest.raises(QueryError, match=field):
        ServiceConfig(**{field: value})
    ServiceConfig(cache_entries=0, retry_attempts=0, default_deadline=0.5)


class TestAdmissionAndDeadlines:
    def test_admission_rejection_is_synchronous_and_typed(self, engine):
        release = threading.Event()
        started = threading.Event()

        class _Stall(BFSQuery):
            def run(self, eng, ctx):
                started.set()
                release.wait(timeout=30)
                return super().run(eng, ctx)

        svc = QueryService(engine, ServiceConfig(workers=1, queue_depth=1))
        try:
            blocker = svc.submit(_Stall(root=0))
            started.wait(timeout=30)
            with pytest.raises(AdmissionError):
                svc.submit(BFSQuery(root=1))
            assert svc.stats()["serve.rejected"] == 1
            release.set()
            assert blocker.result().sha256
            # The slot freed: the service is healthy again.
            assert svc.execute(BFSQuery(root=1)).sha256
        finally:
            release.set()
            svc.close()

    def test_deadline_exceeded_is_typed_and_non_sticky(self, service):
        converge_slowly = PageRankTopKQuery(
            k=4, max_iterations=200, tolerance=0.0
        )
        with pytest.raises(DeadlineError):
            service.execute(converge_slowly, deadline=1e-4)
        assert service.stats()["serve.deadline_exceeded"] == 1
        # The shared engine survived the cancelled query.
        assert service.execute(BFSQuery(root=0)).sha256

    def test_cancel_event_stops_a_query(self, service):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(DeadlineError):
            service.execute(
                PageRankTopKQuery(k=4, max_iterations=50, tolerance=0.0),
                cancel_event=cancel,
            )


class TestResultCache:
    def test_hit_and_counters(self, service):
        q = BFSQuery(root=5)
        miss = service.execute(q)
        hit = service.execute(q)
        assert not miss.cache_hit
        assert hit.cache_hit
        assert hit.sha256 == miss.sha256
        stats = service.stats()
        assert stats["serve.cache_hits"] >= 1
        assert stats["serve.cache_misses"] >= 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("f", 1), "a")
        cache.put(("f", 2), "b")
        assert cache.get(("f", 1)) == "a"  # refresh 1; 2 is now LRU
        cache.put(("f", 3), "c")
        assert cache.get(("f", 2)) is None
        assert cache.get(("f", 1)) == "a"
        assert len(cache) == 2

    def test_fingerprint_change_invalidates(self, engine):
        # Two graphs, one shared cache: the second service must not see
        # the first's entries because the fingerprint half of the key
        # differs.
        shared = ResultCache(capacity=32)
        svc_a = QueryService(
            engine, ServiceConfig(workers=1, queue_depth=4), cache=shared
        )
        other_graph = TiledGraph.from_edge_list(
            rmat(9, edge_factor=8, seed=3), tile_bits=7, group_q=4
        )
        eng_b = GStoreEngine(
            other_graph,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        )
        svc_b = QueryService(
            eng_b, ServiceConfig(workers=1, queue_depth=4), cache=shared
        )
        try:
            assert svc_a.fingerprint != svc_b.fingerprint
            q = BFSQuery(root=0)
            a = svc_a.execute(q)
            b = svc_b.execute(q)
            assert not b.cache_hit  # different fingerprint, different key
            assert a.sha256 != b.sha256  # genuinely different graphs
            assert svc_b.execute(q).cache_hit  # but b now hits its own
        finally:
            svc_a.close()
            svc_b.close()
            eng_b.close()

    def test_refresh_fingerprint_is_stable_on_unchanged_graph(self, service):
        before = service.fingerprint
        assert service.refresh_fingerprint() == before


class TestCounterIsolation:
    """Both halves of the MetricsRegistry contract (docs/SERVING.md)."""

    def test_private_registries_do_not_bleed(self, engine):
        svc = QueryService(
            engine,
            ServiceConfig(workers=4, queue_depth=16, trace_queries=True),
        )
        roots = (0, 3, 7, 11)
        try:
            # Serial reference snapshots: what each query's counters look
            # like with nothing else running.
            svc.cache.clear()
            serial = {
                r: svc.execute(BFSQuery(root=r)).counters for r in roots
            }
            svc.cache.clear()
            futures = [svc.submit(BFSQuery(root=r)) for r in roots]
            results = [f.result() for f in futures]
        finally:
            svc.close()
        for result in results:
            counters = result.counters
            assert counters is not None
            # Bit-for-bit the serial snapshot: had any other in-flight
            # query written to this registry, the merged totals would
            # exceed one run's worth of work.
            root = result.query.root
            for key in (
                "engine.iterations",
                "engine.bytes_read",
                "engine.bytes_from_cache",
                "engine.edges_processed",
            ):
                assert counters[key] == serial[root][key], (root, key)

    def test_shared_registry_loses_no_updates(self, engine):
        svc = QueryService(engine, ServiceConfig(workers=8, queue_depth=64))
        n = 40
        try:
            futures = [
                svc.submit(NeighborhoodQuery(vertex=i)) for i in range(n)
            ]
            for f in futures:
                f.result()
            stats = svc.stats()
        finally:
            svc.close()
        assert stats["serve.admitted"] == n
        assert stats["serve.completed"] == n
        assert stats["serve.inflight"] == 0


class TestDigestsAndFingerprints:
    def test_payload_digest_is_canonical(self):
        a = {"x": np.arange(4, dtype=np.int64), "y": 2}
        b = {"y": 2, "x": np.arange(4, dtype=np.int64)}
        assert payload_digest(a) == payload_digest(b)
        c = {"x": np.arange(4, dtype=np.int32), "y": 2}
        assert payload_digest(a) != payload_digest(c)

    def test_graph_fingerprint_tracks_payload(self, graph):
        other = TiledGraph.from_edge_list(
            rmat(10, edge_factor=8, seed=78), tile_bits=7, group_q=4
        )
        assert graph_fingerprint(graph) == graph_fingerprint(graph)
        assert graph_fingerprint(graph) != graph_fingerprint(other)


class TestHTTP:
    def test_http_round_trip(self, engine):
        import json
        import urllib.error
        import urllib.request

        from repro.serve.http import make_server

        svc = QueryService(engine, ServiceConfig(workers=2, queue_depth=8))
        try:
            try:
                server = make_server(svc, host="127.0.0.1", port=0)
            except OSError:
                pytest.skip("sockets unavailable in this environment")
            host, port = server.server_address[:2]
            t = threading.Thread(target=server.serve_forever, daemon=True)
            t.start()
            base = f"http://{host}:{port}"
            try:
                with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                    health = json.load(r)
                assert health["status"] == "healthy"
                assert health["reasons"] == []
                assert health["fingerprint"] == svc.fingerprint

                req = urllib.request.Request(
                    base + "/query",
                    data=json.dumps({"type": "bfs", "root": 0}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req, timeout=30) as r:
                    body = json.load(r)
                assert body["sha256"] == svc.execute(BFSQuery(root=0)).sha256
                assert body["reached"] >= 1
                assert 0 <= body["queue_seconds"] < body["wall_seconds"]

                bad = urllib.request.Request(
                    base + "/query",
                    data=json.dumps({"type": "nope"}).encode(),
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(bad, timeout=10)
                assert exc_info.value.code == 400

                with urllib.request.urlopen(base + "/stats", timeout=10) as r:
                    stats = json.load(r)
                assert stats["serve.completed"] >= 2
                assert stats["serve.lane_waiting"] == 0
            finally:
                server.shutdown()
                server.server_close()
        finally:
            svc.close()
