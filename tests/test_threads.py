"""Unit tests for the runtime's mechanisms: row-parallel kernel dispatch
(``execute_batch`` over the engine's thread pool, and which kernels the
engine hands it to), the bounded prefetcher, and the shard structure (and
the edge floor under it)."""

import gc
import hashlib
import importlib
import json
import os
import pkgutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms
from repro.algorithms.base import (
    SHARDS_PER_BATCH,
    TileAlgorithm,
    chunk_by_edges,
)
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.tiles import DecodedBatch, TiledGraph, TileView, shard_cuts
from repro.runtime.prefetch import PREFETCH_THREAD_NAME, Prefetcher
from repro.runtime.threads import (
    WORKER_THREAD_PREFIX,
    available_cpus,
    execute_batch,
)
from repro.types import MIN_SHARD_EDGES, shard_pieces
from tools import equiv_matrix


class _FakeView:
    """Minimal stand-in for TileView: a row index and an edge count."""

    __slots__ = ("i", "lsrc")

    def __init__(self, i: int, n_edges: int):
        self.i = i
        self.lsrc = np.empty(n_edges, dtype=np.uint16)


class _Recorder(TileAlgorithm):
    """A snapshot kernel over a batch whose IDs it never reads: a shard's
    partial is its edge range ``(a, b)`` (computed after ``work(a, b)``),
    and applying it appends it to ``applied`` — so ``applied`` is the
    commit order.  ``shard_partial`` stands in for the kernel the
    contract's other three methods would feed."""

    def __init__(self, work=lambda a, b: None):
        super().__init__()
        self.work = work
        self.applied: "list[tuple[int, int]]" = []
        self.threads: "set[str]" = set()

    def _setup(self) -> None:
        pass

    def end_iteration(self, iteration: int) -> bool:
        return False

    def result(self):
        return self.applied

    def kernel_state(self):
        return {}

    def kernel_params(self):
        return {}

    @staticmethod
    def kernel_partial(state, params, gsrc, gdst):
        raise AssertionError("shard_partial is overridden")

    def shard_partial(self, batch, a, b):
        self.threads.add(threading.current_thread().name)
        self.work(a, b)
        return a, b

    def apply_partial(self, partial) -> int:
        self.applied.append(partial)
        a, b = partial
        return b - a


def _views(counts):
    return [_FakeView(i, n) for i, n in enumerate(counts)]


def _batch(counts) -> DecodedBatch:
    """A batch of runs with these edge counts (IDs all zero)."""
    bounds = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    ids = np.zeros(int(bounds[-1]), dtype=np.uint32)
    return DecodedBatch.of_runs(ids, ids, bounds, bounds[:-1])


def _worker_threads():
    gc.collect()  # unclosed engines of earlier tests join their pools
    return {
        t for t in threading.enumerate()
        if t.name.startswith(WORKER_THREAD_PREFIX)
    }


class TestDynamicRowMap:
    """``execute_batch``'s row-parallel map: handed a pool, shard partials
    are computed on its work queue and committed in shard order."""

    def test_preserves_order(self):
        batch = _batch([1024] * 40)  # eight shards' worth of edges
        serial = _Recorder()
        assert execute_batch(serial, batch) == 40960
        assert len(serial.applied) == SHARDS_PER_BATCH

        # Earlier shards take longer, so they finish last.
        slow_first = _Recorder(work=lambda a, b: time.sleep(
            0.002 * (40 - a // 1024)
        ))
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert execute_batch(slow_first, batch, pool=pool) == 40960
        assert slow_first.applied == serial.applied
        assert len(slow_first.threads) > 1

    def test_serial_path(self):
        algo = _Recorder()
        execute_batch(algo, _batch([10, 20, 30]))
        assert algo.threads == {threading.current_thread().name}
        assert algo.applied == [(0, 60)]

    def test_single_item(self):
        algo = _Recorder()
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert execute_batch(algo, _batch([7]), pool=pool) == 7
        assert algo.threads == {threading.current_thread().name}

    def test_empty(self):
        algo = _Recorder()
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert execute_batch(algo, _batch([]), pool=pool) == 0
        assert algo.applied == []

    def test_skewed_work(self):
        # Mimics skewed tile rows: some shards much heavier than others.
        counts = [10, 10_000, 10, 10_000, 10]
        batch = _batch(counts)

        def work(a, b):
            return sum(range(b - a))

        serial, parallel = _Recorder(work), _Recorder(work)
        with ThreadPoolExecutor(max_workers=3) as pool:
            assert execute_batch(parallel, batch, pool=pool) == sum(counts)
        assert execute_batch(serial, batch) == sum(counts)
        assert parallel.applied == serial.applied


class TestAvailableCpus:
    def test_available_cpus_positive(self):
        cpus = available_cpus()
        assert 1 <= cpus <= (os.cpu_count() or 1)


def _multibfs():
    return MultiSourceBFS([0, 7, 300])


class TestWorkerPool:
    """The engine's kernel pool: a bare ``ThreadPoolExecutor`` it holds
    lazily, for the kernels that declare ``pooled``."""

    @staticmethod
    def _engine(graph):
        return GStoreEngine(graph, EngineConfig(
            memory_bytes=64 * 1024, segment_bytes=8 * 1024,
        ))

    def test_lazy_creation(self, tiled_undirected, low_shard_floor, cpus):
        # (floor lowered: a single-shard batch never needs the pool)
        before = _worker_threads()
        cpus(2)
        with self._engine(tiled_undirected) as engine:
            assert _worker_threads() == before
            engine.run(_multibfs())
            assert _worker_threads() > before
        assert _worker_threads() == before
        cpus(1)
        with self._engine(tiled_undirected) as serial:
            stats = serial.run(_multibfs())
            assert _worker_threads() == before
        assert stats.extra["execution"]["kernel_threads"] == 1

    def test_reused_across_calls(self, tiled_undirected, low_shard_floor, cpus):
        cpus(2)
        with self._engine(tiled_undirected) as engine:
            stats = engine.run(_multibfs())
            first = engine.pool
            assert first is not None
            engine.run(_multibfs())
            assert engine.pool is first  # no per-batch churn
        assert stats.extra["execution"]["kernel_threads"] == 2


class TestPooledDeclaration:
    """The kernel declares the pool (``TileAlgorithm.pooled``); the engine
    sizes it from the CPUs it may run on, and nothing else starts it."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return {
            kind: equiv_matrix.tiled(el)
            for kind, el in equiv_matrix.edge_lists().items()
        }

    @staticmethod
    def _config():
        budget = equiv_matrix.BUDGETS[1]
        return EngineConfig(memory_bytes=budget[0], segment_bytes=budget[1])

    def test_multibfs_same_bits_at_any_cpu_count(
        self, graphs, low_shard_floor, cpus
    ):
        """MultiBFS's answer and every simulated statistic hash the same at
        1, 2 and 3 CPUs on the lattice's graphs — and the pool really ran
        at 2 and 3."""
        for kind, tg in graphs.items():
            digests = set()
            for n in (1, 2, 3):
                cpus(n)
                with GStoreEngine(tg, self._config()) as engine:
                    algo = equiv_matrix.algorithms()["multibfs"]()
                    stats = engine.run(algo)
                    threads = _worker_threads()
                assert algo.pooled
                assert stats.extra["execution"]["kernel_threads"] == n
                assert (len(threads) > 0) == (n > 1), (kind, n)
                rec, _ = equiv_matrix._record(algo, stats)
                digests.add(hashlib.sha256(
                    json.dumps(rec, sort_keys=True).encode()
                ).hexdigest())
            assert len(digests) == 1, kind

    def test_serial_where_not_declared(self, graphs, low_shard_floor, cpus):
        """At four CPUs: a one-root MultiBFS, a private context and every
        kernel that does not declare ``pooled`` start no pool thread."""
        cpus(4)
        tg = graphs["undirected"]
        runs = [
            (name, make, False)
            for name, make in equiv_matrix.algorithms().items()
            if name != "multibfs"
        ]
        runs += [
            ("multibfs, one root", lambda: MultiSourceBFS([0]), False),
            ("multibfs, private context", _multibfs, True),
        ]
        before = _worker_threads()
        for name, make, private in runs:
            with GStoreEngine(tg, self._config()) as engine:
                algo = make()
                assert not (algo.pooled and not private), name
                ctx = engine.query_context() if private else None
                stats = engine.run(algo, context=ctx)
                assert _worker_threads() == before, name
                assert engine._pool is None, name
            assert stats.extra["execution"]["kernel_threads"] == 1, name

    def test_pool_never_exceeds_the_shard_count(
        self, graphs, low_shard_floor, cpus
    ):
        cpus(64)
        before = _worker_threads()
        with GStoreEngine(graphs["undirected"], self._config()) as engine:
            assert engine.kernel_threads == SHARDS_PER_BATCH
            stats = engine.run(_multibfs())
            assert 0 < len(_worker_threads() - before) <= SHARDS_PER_BATCH
        assert stats.extra["execution"]["kernel_threads"] == SHARDS_PER_BATCH

    def test_live_and_one_shard_kernels_never_declare(self):
        for info in pkgutil.iter_modules(repro.algorithms.__path__):
            importlib.import_module(f"repro.algorithms.{info.name}")
        kernels, todo = [], [TileAlgorithm]
        while todo:
            cls = todo.pop()
            kernels.append(cls)
            todo.extend(cls.__subclasses__())
        exempt = [k for k in kernels if k.live_kernel or k.one_shard]
        assert len(exempt) >= 5  # SSSP, AsyncBFS, PageRank, SpMV, SCC's
        for cls in exempt:
            assert cls.pooled is TileAlgorithm.pooled, cls.__name__

    def test_workers_is_no_setting(self):
        with pytest.raises(TypeError, match="workers"):
            EngineConfig(workers=2)


class TestPrefetcher:
    def test_in_order_delivery(self):
        jobs = [lambda i=i: i * i for i in range(20)]
        for depth in (0, 3):  # 0: each job runs inside its get(), no thread
            with Prefetcher(jobs, depth=depth) as pf:
                assert pf.overlapped == (depth > 0)
                assert pf.overlapped == any(
                    t.name.startswith(PREFETCH_THREAD_NAME)
                    for t in threading.enumerate()
                )
                assert [pf.get() for _ in jobs] == [i * i for i in range(20)]

    def test_bounded_depth(self):
        """The producer never runs more than depth jobs ahead of consumption."""
        started: "list[int]" = []
        gate = threading.Event()

        def job(i):
            started.append(i)
            return i

        pf = Prefetcher([lambda i=i: job(i) for i in range(10)], depth=2)
        try:
            deadline = time.time() + 2.0
            while len(started) < 2 and time.time() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # give an over-eager producer time to overrun
            assert len(started) <= 2  # nothing consumed yet -> at most depth
            assert pf.get() == 0
            deadline = time.time() + 2.0
            while len(started) < 3 and time.time() < deadline:
                time.sleep(0.005)
            assert len(started) <= 3
        finally:
            gate.set()
            pf.close()

    def test_job_exception_surfaces_on_get(self):
        def boom():
            raise ValueError("job failed")

        pf = Prefetcher([lambda: 1, boom, lambda: 3], depth=2)
        assert pf.get() == 1
        with pytest.raises(ValueError, match="job failed"):
            pf.get()
        assert not any(
            t.name.startswith(PREFETCH_THREAD_NAME) for t in threading.enumerate()
        )

    def test_close_midway_leaves_no_thread(self):
        pf = Prefetcher([lambda i=i: i for i in range(100)], depth=1)
        assert pf.get() == 0
        pf.close()
        assert not any(
            t.name.startswith(PREFETCH_THREAD_NAME) for t in threading.enumerate()
        )

    def test_close_while_blocked_on_full_queue(self):
        """close() must unstick a producer waiting for a free slot."""
        slow = [lambda i=i: i for i in range(50)]
        pf = Prefetcher(slow, depth=1)
        time.sleep(0.05)  # producer fills its single slot and blocks
        pf.close()
        assert not any(
            t.name.startswith(PREFETCH_THREAD_NAME) for t in threading.enumerate()
        )

    def test_get_past_end_raises(self):
        pf = Prefetcher([lambda: 42], depth=1)
        assert pf.get() == 42
        with pytest.raises(IndexError):
            pf.get()
        pf.close()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            Prefetcher([], depth=-1)


# ---------------------------------------------------------------------- #
# Shard-structure invariants (property-based)
# ---------------------------------------------------------------------- #


@st.composite
def view_batches(draw):
    spec = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 500)),
            min_size=0,
            max_size=40,
        )
    )
    return [_FakeView(i, n) for i, n in spec]


class TestShardInvariants:
    """The properties parallel execution's determinism rests on: shards
    concatenate back to the original batch order, respect the shard
    ceiling, and are edge-balanced — independent of any worker count."""

    @given(views=view_batches(), max_shards=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_chunk_by_edges(self, views, max_shards):
        shards = chunk_by_edges(views, max_shards=max_shards)
        # Concatenation preserves the exact object sequence.
        flat = [tv for shard in shards for tv in shard]
        assert flat == views
        assert all(shard for shard in shards)
        assert len(shards) <= max(1, max_shards)
        if len(views) > 1 and max_shards > 1:
            total = sum(tv.lsrc.shape[0] for tv in views)
            target = max(1, -(-total // max_shards))
            # Every shard closed early reached the balance target.
            for shard in shards[:-1]:
                assert sum(tv.lsrc.shape[0] for tv in shard) >= target

    @given(views=view_batches(), max_shards=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_chunking_is_worker_independent(self, views, max_shards):
        """Identical inputs give identical structure — the split never
        consults the environment, so any worker count sees the same
        shards (and hence the same partial-application order)."""
        a = chunk_by_edges(views, max_shards=max_shards)
        b = chunk_by_edges(list(views), max_shards=max_shards)
        assert [[id(v) for v in s] for s in a] == [
            [id(v) for v in s] for s in b
        ]

    def test_default_ceiling(self):
        views = [_FakeView(0, 10) for _ in range(100)]
        assert len(chunk_by_edges(views)) <= SHARDS_PER_BATCH


# ---------------------------------------------------------------------- #
# The edge floor under fused shards
# ---------------------------------------------------------------------- #


def _run_view(n_edges: int, edge_lo: int = 0) -> TileView:
    """A run-level view over ``n_edges`` distinguishable edges."""
    ids = (np.arange(n_edges) % 65536).astype(np.uint16)
    return TileView(
        i=0, j=0, lsrc=ids, ldst=ids[::-1], src_base=0, dst_base=0,
        pos=0, edge_lo=edge_lo,
    )


def _edges(views) -> "list[int]":
    return [int(tv.lsrc.shape[0]) for tv in views]


class TestShardFloor:
    """``MIN_SHARD_EDGES`` under both halves of the batch split
    (``TiledGraph.split_run_views``, then ``chunk_by_edges``): a batch is
    cut into ``min(SHARDS_PER_BATCH, edges // MIN_SHARD_EDGES)`` shards."""

    def test_below_the_floor_is_one_shard(self):
        views = _views([100] * 40)  # 4 000 edges in 40 views
        assert chunk_by_edges(views) == [views]
        run = [_run_view(MIN_SHARD_EDGES - 1)]
        assert TiledGraph.split_run_views(run, SHARDS_PER_BATCH) is run
        assert chunk_by_edges(run) == [run]
        assert shard_pieces(SHARDS_PER_BATCH, 0) == 1

    @pytest.mark.parametrize("edges, shards", [
        (MIN_SHARD_EDGES, 1),
        (2 * MIN_SHARD_EDGES - 1, 1),
        (2 * MIN_SHARD_EDGES, 2),
        (14_000, 3),  # one serve_mix tile
        (SHARDS_PER_BATCH * MIN_SHARD_EDGES - 1, SHARDS_PER_BATCH - 1),
        (SHARDS_PER_BATCH * MIN_SHARD_EDGES, SHARDS_PER_BATCH),
        (70_000, SHARDS_PER_BATCH),  # a pr_stream batch: as before the floor
    ])
    def test_one_extent_cuts_by_its_edge_count(self, edges, shards):
        pieces = TiledGraph.split_run_views(
            [_run_view(edges)], SHARDS_PER_BATCH
        )
        assert len(pieces) == shards
        assert min(_edges(pieces)) >= MIN_SHARD_EDGES
        # (chunking may pair pieces a rounding short of its balance target)
        assert 1 <= len(chunk_by_edges(pieces)) <= shards

    @given(
        counts=st.lists(st.integers(0, 30_000), min_size=0, max_size=12),
        pieces=st.integers(1, 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_then_chunk(self, counts, pieces):
        """Whatever the batch: the pieces concatenate back to the original
        edge order, the shard count respects both the ceiling and the
        floor, and asking twice gives the same structure."""
        lo = np.concatenate([[0], np.cumsum(counts)]).tolist()
        views = [_run_view(n, edge_lo=a) for n, a in zip(counts, lo)]
        total = sum(counts)
        split = TiledGraph.split_run_views(views, pieces)
        assert np.array_equal(
            np.concatenate([tv.lsrc for tv in split] or [[]]),
            np.concatenate([tv.lsrc for tv in views] or [[]]),
        )
        assert np.array_equal(
            np.concatenate([tv.ldst for tv in split] or [[]]),
            np.concatenate([tv.ldst for tv in views] or [[]]),
        )
        # Each piece still knows where its edges sit in disk-edge order.
        kept = [tv for tv in split if tv.lsrc.shape[0]]
        assert [tv.edge_lo for tv in kept[1:]] == [
            tv.edge_lo + tv.lsrc.shape[0] for tv in kept[:-1]
        ]
        shards = chunk_by_edges(split, max_shards=pieces)
        assert [tv for shard in shards for tv in shard] == split
        assert len(shards) <= shard_pieces(pieces, total) <= pieces
        for shard in shards[:-1]:  # only the remainder may fall short
            assert sum(_edges(shard)) >= MIN_SHARD_EDGES
        again = chunk_by_edges(
            TiledGraph.split_run_views(views, pieces), max_shards=pieces
        )
        assert [_edges(s) for s in again] == [_edges(s) for s in shards]

    @given(
        counts=st.lists(st.integers(0, 30_000), min_size=0, max_size=40),
        pieces=st.integers(1, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_record_cuts_equal_split_then_chunk(self, counts, pieces):
        """The decoded batch's shard cuts are the list-of-views split's
        edge offsets: ``split_run_views`` + ``chunk_by_edges`` over runs of
        the same edge counts cut at the same edges (no runs, no shards)."""
        views = [_run_view(n) for n in counts]
        shards = chunk_by_edges(
            TiledGraph.split_run_views(views, pieces), max_shards=pieces
        )
        want = np.cumsum([0] + [sum(_edges(s)) for s in shards])
        bounds = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        assert shard_cuts(bounds, pieces).tolist() == want.tolist()

    def test_engine_structure_is_worker_independent(self, kron_small, cpus):
        """The engine's batches, at the shipped floor: the same shards
        serial and on a three-thread pool, several of them, none under the
        floor."""
        tg = TiledGraph.from_edge_list(kron_small, tile_bits=10, group_q=2)

        def structure(n_cpus: int) -> "list[list[int]]":
            seen: "list[list[int]]" = []
            cpus(n_cpus)

            class Recording(PageRank):
                one_shard = False  # take the batch's cuts, as CC would
                pooled = True

                @classmethod
                def shard_cuts(cls, batch):
                    cuts = super().shard_cuts(batch)
                    seen.append(np.diff(cuts).tolist())
                    return cuts

            cfg = EngineConfig(
                memory_bytes=256 * 1024, segment_bytes=64 * 1024,
            )
            with GStoreEngine(tg, cfg) as engine:
                engine.run(Recording(max_iterations=2, tolerance=0.0))
            return seen

        one, three = structure(1), structure(3)
        assert one == three
        assert any(len(batch) > 1 for batch in one)
        assert all(len(batch) <= SHARDS_PER_BATCH for batch in one)
        assert all(
            edges >= MIN_SHARD_EDGES for batch in one for edges in batch[:-1]
        )
