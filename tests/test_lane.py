"""The engine lane: private-context runs go one at a time, in arrival order.

What these tests pin down (docs/SERVING.md "Concurrency model"):

* :class:`~repro.runtime.lane.FifoLane` itself — mutual exclusion, strict
  hand-off and a clean queue under a stress run where waiters give up at
  random;
* ``GStoreEngine.run(context=<private>)`` — waiters served in arrival
  order, a deadline or a cancel event that fires *in the queue* raises
  :class:`DeadlineError` before the run touched anything, an algorithm
  that raises mid-run gives the lane back, the batch path never takes it;
* the service on top — the typed failure is counted, the lane stays
  usable, a :class:`NeighborhoodQuery` (no engine run) is served while a
  run is held open, and the wait shows in ``queue_seconds`` / ``/stats``.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.algorithms.bfs import BFS
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import DeadlineError
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.runtime.lane import FifoLane
from repro.serve import (
    BFSQuery,
    NeighborhoodQuery,
    QueryService,
    ServiceConfig,
)

#: Bound on every wait and join below: a lane bug fails, never hangs.
TIMEOUT = 30.0


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    return TiledGraph.from_edge_list(
        rmat(10, edge_factor=8, seed=77), tile_bits=7, group_q=4
    )


@pytest.fixture()
def engine(graph):
    cfg = EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    with GStoreEngine(graph, cfg) as eng:
        yield eng


class _HeldBFS(BFS):
    """A BFS whose run stays open — lane held — until ``release`` is set."""

    def __init__(self, root: int = 0) -> None:
        super().__init__(root=root)
        self.started = threading.Event()
        self.release = threading.Event()

    def _setup(self) -> None:
        super()._setup()
        self.started.set()
        assert self.release.wait(TIMEOUT)


def _hold(engine) -> "tuple[_HeldBFS, threading.Thread]":
    """Start a private run and return once it holds the lane."""
    algo = _HeldBFS()
    t = threading.Thread(
        target=lambda: engine.run(algo, context=engine.query_context())
    )
    t.start()
    assert algo.started.wait(TIMEOUT)
    return algo, t


def _let_go(algo: _HeldBFS, t: threading.Thread) -> None:
    algo.release.set()
    t.join(TIMEOUT)
    assert not t.is_alive()


def _wait_for_waiters(engine, n: int) -> None:
    deadline = time.monotonic() + TIMEOUT
    while engine.lane.waiting < n:
        assert time.monotonic() < deadline, "waiter never reached the queue"
        time.sleep(0.001)


def _bounded():
    """A lane ``check`` that waits ``TIMEOUT`` once, then fails the test."""
    waits = iter([TIMEOUT])

    def check() -> float:
        for wait in waits:
            return wait
        raise AssertionError("the lane was never handed over")

    return check


class TestFifoLane:
    def test_free_lane_is_taken_without_asking(self):
        lane = FifoLane()

        def never_called():
            raise AssertionError("check ran on a free lane")

        lane.acquire(never_called)
        assert lane.waiting == 0
        lane.release()
        lane.acquire(never_called)  # released means free again
        lane.release()

    def test_giving_up_leaves_the_queue_and_the_lane_alone(self):
        lane = FifoLane()
        lane.acquire(_bounded())
        calls = []

        def check():
            calls.append(lane.waiting)
            if len(calls) == 3:
                raise DeadlineError("enough")
            return 0.001

        with pytest.raises(DeadlineError):
            lane.acquire(check)
        assert calls == [1, 1, 1]  # queued while asking, every time
        assert lane.waiting == 0
        lane.release()
        lane.acquire(_bounded())  # still a working lane
        lane.release()

    def test_stress_exclusion_and_clean_queue(self):
        """More threads than cores, a tiny switch interval, waiters that
        give up at random moments: never two holders, nobody stranded,
        and the lane ends free with an empty queue."""
        lane = FifoLane()
        holders = 0
        overlaps = []
        done = []
        stop_at = time.monotonic() + 1.0

        def worker(seed: int) -> None:
            nonlocal holders
            rng = random.Random(seed)
            taken = gave_up = 0
            while time.monotonic() < stop_at:
                patience = rng.randrange(1, 4)

                def check():
                    nonlocal patience
                    patience -= 1
                    if patience < 0:
                        raise DeadlineError("gave up")
                    return rng.random() * 1e-4

                try:
                    lane.acquire(check)
                except DeadlineError:
                    gave_up += 1
                    continue
                holders += 1
                if holders != 1:
                    overlaps.append(holders)
                time.sleep(0)  # invite a switch while holding
                holders -= 1
                lane.release()
                taken += 1
            done.append((taken, gave_up))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(s,)) for s in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(TIMEOUT)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not overlaps
        assert len(done) == 8
        assert sum(taken for taken, _ in done) > 100
        assert sum(gave_up for _, gave_up in done) > 0
        assert lane.waiting == 0
        lane.acquire(_bounded())  # free: a stranded hand-off would block here
        lane.release()


class TestEngineLane:
    def test_waiters_run_in_arrival_order(self, engine):
        held, holder = _hold(engine)
        order: "list[int]" = []

        class Recording(BFS):
            def __init__(self, tag: int) -> None:
                super().__init__(root=tag)
                self.tag = tag

            def _setup(self) -> None:
                order.append(self.tag)
                super()._setup()

        stats: dict = {}

        def run(tag: int) -> None:
            stats[tag] = engine.run(
                Recording(tag), context=engine.query_context()
            )

        threads = []
        for tag in range(6):
            t = threading.Thread(target=run, args=(tag,))
            t.start()
            threads.append(t)
            _wait_for_waiters(engine, tag + 1)  # tag is in line before tag+1
        _let_go(held, holder)
        for t in threads:
            t.join(TIMEOUT)
        assert not any(t.is_alive() for t in threads)
        assert order == list(range(6))
        assert engine.lane.waiting == 0
        # The wait is reported beside the run's wall time, not inside it.
        for tag in range(6):
            execution = stats[tag].extra["execution"]
            assert execution["lane_wait_s"] > 0
        # The last in line was queued for the whole of the five before it.
        assert stats[5].extra["execution"]["lane_wait_s"] >= sum(
            stats[tag].wall_seconds for tag in range(5)
        )

    def test_deadline_in_the_queue_touches_nothing(self, engine):
        held, holder = _hold(engine)
        try:
            late = BFS(root=1)
            ctx = engine.query_context(deadline=0.05)
            with pytest.raises(DeadlineError):
                engine.run(late, context=ctx)
            assert late.graph is None and late.iteration == -1  # never set up
            assert ctx.lane_wait >= 0.05
            assert engine.lane.waiting == 0
        finally:
            _let_go(held, holder)
        assert engine.run(BFS(root=1), context=engine.query_context())

    def test_cancel_in_the_queue_touches_nothing(self, engine):
        held, holder = _hold(engine)
        try:
            cancel = threading.Event()
            late = BFS(root=1)
            raised: list = []

            def run() -> None:
                try:
                    engine.run(
                        late,
                        context=engine.query_context(cancel_event=cancel),
                    )
                except DeadlineError as exc:
                    raised.append(exc)

            t = threading.Thread(target=run)
            t.start()
            _wait_for_waiters(engine, 1)
            cancel.set()
            t.join(TIMEOUT)
            assert not t.is_alive()
            assert len(raised) == 1 and late.graph is None
            assert engine.lane.waiting == 0
        finally:
            _let_go(held, holder)

    def test_algorithm_error_releases_the_lane(self, engine):
        class Boom(BFS):
            def end_iteration(self, iteration: int) -> bool:
                raise RuntimeError("mid-run")

        with pytest.raises(RuntimeError, match="mid-run"):
            engine.run(Boom(root=0), context=engine.query_context())
        # A held lane would time this out instead of answering.
        stats = engine.run(
            BFS(root=0), context=engine.query_context(deadline=TIMEOUT)
        )
        assert stats.extra["execution"]["lane_wait_s"] < 1.0

    def test_batch_path_does_not_take_the_lane(self, engine):
        held, holder = _hold(engine)
        try:
            stats = engine.run(BFS(root=2))  # context=None: the batch path
            assert stats.extra["execution"]["lane_wait_s"] == 0.0
            assert not stats.extra["execution"]["private_context"]
            assert not held.release.is_set()  # it ran beside the held run
        finally:
            _let_go(held, holder)


class TestServiceOverTheLane:
    @staticmethod
    def _held_query():
        algo = _HeldBFS()

        class Held(BFSQuery):
            def run(self, engine, ctx):
                engine.run(algo, context=ctx)
                return {"depth": algo.result()}

        return algo, Held(root=0)

    @pytest.mark.parametrize("how", ["deadline", "cancel"])
    def test_giving_up_in_the_queue_is_typed_counted_and_harmless(
        self, engine, how
    ):
        algo, held = self._held_query()
        with QueryService(engine, ServiceConfig(workers=2)) as svc:
            blocker = svc.submit(held)
            assert algo.started.wait(TIMEOUT)
            try:
                if how == "deadline":
                    late = svc.submit(BFSQuery(root=1), deadline=0.05)
                else:
                    cancel = threading.Event()
                    late = svc.submit(BFSQuery(root=1), cancel_event=cancel)
                    _wait_for_waiters(engine, 1)
                    assert svc.stats()["serve.lane_waiting"] == 1
                    cancel.set()
                with pytest.raises(DeadlineError):
                    late.result(TIMEOUT)
                stats = svc.stats()
                assert stats["serve.deadline_exceeded"] == 1
                assert stats["serve.lane_wait_s"] > 0
                assert stats["serve.lane_waiting"] == 0
                assert stats["serve.health"] == "healthy"
            finally:
                algo.release.set()
            assert blocker.result(TIMEOUT).queue_seconds < 0.01  # free lane
            again = svc.execute(BFSQuery(root=1))
            assert again.sha256 and again.queue_seconds < again.wall_seconds

    def test_neighborhood_is_served_while_a_run_is_held_open(self, engine):
        algo, held = self._held_query()
        with QueryService(engine, ServiceConfig(workers=2)) as svc:
            blocker = svc.submit(held)
            assert algo.started.wait(TIMEOUT)
            try:
                lookup = svc.submit(NeighborhoodQuery(vertex=2))
                result = lookup.result(TIMEOUT)  # not behind the held run
                assert result.payload["neighbors"].size
                assert result.queue_seconds == 0.0
                assert not blocker.done()
            finally:
                algo.release.set()
            assert blocker.result(TIMEOUT).sha256

    def test_queue_time_is_told_apart_from_run_time(self, engine):
        algo, held = self._held_query()
        with QueryService(engine, ServiceConfig(workers=2)) as svc:
            blocker = svc.submit(held)
            assert algo.started.wait(TIMEOUT)
            waiter = svc.submit(BFSQuery(root=3))
            _wait_for_waiters(engine, 1)
            time.sleep(0.05)
            algo.release.set()
            result = waiter.result(TIMEOUT)
            blocker.result(TIMEOUT)
            assert 0.05 <= result.queue_seconds < result.wall_seconds
            assert result.summary()["queue_seconds"] == result.queue_seconds
            assert svc.stats()["serve.lane_wait_s"] == pytest.approx(
                result.queue_seconds, abs=1e-3  # + the blocker's free take
            )
