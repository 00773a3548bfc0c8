"""The self-healing shard runtime (docs/RELIABILITY.md "Distributed
fault model").

What these tests pin down:

* the transport fault grammar — ``kill:SHARD@BATCH[:COUNT]``,
  ``drop:SHARD@BATCH[:COUNT]``, ``delay:SHARD@BATCH:SECONDS``,
  ``scatterfail@ITER`` — parses, validates, and classifies
  (``transport_only`` plans stay compatible with sharding and private
  contexts);
* supervision — a worker killed mid-run by a scripted transport fault
  is respawned and its lost lane replayed, and the run completes fully
  sharded, bit-identical to the serial baseline, at every prefetch
  depth;
* hang detection — a scripted message drop trips the heartbeat
  timeout, the silent worker is respawned, and the run still completes
  sharded and bit-identical;
* bounded degradation — when the respawn budget is exhausted (or the
  scatter itself fails) the engine falls back to its own fetch path
  and the result is *still* bit-identical;
* teardown bounds — a stopped worker can neither stall
  ``ShardGather.close`` past its deadline nor survive
  ``stop_worker_processes`` (terminate escalates to SIGKILL);
* composition — iteration-granular checkpoint/resume works under
  shard-parallel execution.

Every scenario asserts the shared-memory leak oracle
(``LIVE_SHM_SEGMENTS``) is empty after teardown.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError, StorageError
from repro.faults import TRANSPORT_KINDS, FaultKind, FaultPlan
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.runtime.shard import ShardGather, ShardRuntime
from repro.runtime.shm import LIVE_SHM_SEGMENTS


@pytest.fixture(scope="module")
def graph() -> TiledGraph:
    el = rmat(10, edge_factor=8, seed=11, directed=False)
    return TiledGraph.from_edge_list(el, tile_bits=7, group_q=2)


def _cfg(**kw) -> EngineConfig:
    # Tight memory: many slide batches per iteration across many
    # iterations, so scripted batch indices actually exist to fault.
    base = dict(memory_bytes=16 * 1024, segment_bytes=4 * 1024)
    base.update(kw)
    return EngineConfig(**base)


def _pagerank() -> PageRank:
    return PageRank(max_iterations=10, tolerance=1e-12)


@pytest.fixture(scope="module")
def serial_baseline(graph):
    algo = _pagerank()
    stats = GStoreEngine(graph, _cfg()).run(algo)
    return algo.rank.copy(), stats


# --------------------------------------------------------------------- #
# Transport fault grammar
# --------------------------------------------------------------------- #


class TestTransportGrammar:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "kill:0@2,drop:1@3:2,delay:0@1:0.5,scatterfail@4"
        )
        kinds = [e.kind for e in plan.events]
        assert kinds == [
            FaultKind.WORKER_KILL,
            FaultKind.MSG_DROP,
            FaultKind.MSG_DELAY,
            FaultKind.SCATTER_FAIL,
        ]
        kill, drop, delay, scatter = plan.events
        assert (kill.shard, kill.request, kill.count) == (0, 2, 1)
        assert (drop.shard, drop.request, drop.count) == (1, 3, 2)
        assert (delay.shard, delay.request, delay.delay) == (0, 1, 0.5)
        assert (scatter.shard, scatter.request) == (None, 4)

    def test_transport_only_classification(self):
        assert FaultPlan.parse("kill:0@2,scatterfail@1").transport_only()
        # Storage events or a seed disqualify: those plans inject real
        # storage faults and must keep forcing verification.
        assert not FaultPlan.parse("kill:0@2,transient@3").transport_only()
        assert not FaultPlan.parse("7").transport_only()
        assert not FaultPlan().transport_only()

    def test_worker_events_filter_by_shard(self):
        plan = FaultPlan.parse("kill:0@2,drop:1@3,delay:0@5:0.1,scatterfail@2")
        assert [e.kind.value for e in plan.worker_events(0)] == [
            "kill", "delay"
        ]
        assert [e.kind.value for e in plan.worker_events(1)] == ["drop"]
        assert plan.scatter_event_for(2) is not None
        assert plan.scatter_event_for(3) is None

    @pytest.mark.parametrize(
        "token",
        ["kill:0", "kill@2", "drop:x@2", "delay:0@2", "scatterfail"],
    )
    def test_malformed_tokens_are_typed(self, token):
        with pytest.raises(StorageError) as ei:
            FaultPlan.parse(token)
        assert ei.value.context["token"] == token

    def test_transport_kinds_registry(self):
        assert FaultKind.WORKER_KILL in TRANSPORT_KINDS
        assert FaultKind.TRANSIENT not in TRANSPORT_KINDS

    def test_transport_only_plan_allows_private_context(self, graph):
        eng = GStoreEngine(
            graph, _cfg(faults=FaultPlan.parse("kill:0@2"))
        )
        try:
            ctx = eng.query_context()  # must not raise
            assert ctx.private
        finally:
            eng.close()


# --------------------------------------------------------------------- #
# Supervised recovery (the tentpole scenario)
# --------------------------------------------------------------------- #


def _run_sharded(graph, faults=None, **cfg_kw):
    algo = _pagerank()
    eng = GStoreEngine(
        graph,
        _cfg(
            shards=2,
            faults=FaultPlan.parse(faults) if faults else None,
            **cfg_kw,
        ),
    )
    try:
        stats = eng.run(algo)
    finally:
        eng.close()
    return algo.rank.copy(), stats, eng


class TestSupervisedRecovery:
    def test_scripted_kill_respawns_bit_identical(
        self, graph, serial_baseline
    ):
        # The acceptance scenario: worker 0 exits right before computing
        # global batch 2; the supervisor respawns it, replays the lost
        # lane, and the run completes fully sharded — no fallback.
        ref_rank, ref_stats = serial_baseline
        rank, stats, eng = _run_sharded(graph, faults="kill:0@2")
        np.testing.assert_array_equal(ref_rank, rank)
        assert stats.extra["execution"]["shards_resolved"] == 2
        sup = stats.extra["supervisor"]
        assert sup["respawns"] == 1
        assert sup["worker_deaths"] == 1
        assert sup["replayed_batches"] >= 1
        assert not eng.shard_failed
        assert stats.sim_elapsed == pytest.approx(ref_stats.sim_elapsed)
        assert stats.bytes_read == ref_stats.bytes_read
        assert not LIVE_SHM_SEGMENTS

    @pytest.mark.parametrize("depth", [0, 2])
    def test_kill_recovery_deterministic_across_prefetch(
        self, graph, serial_baseline, depth
    ):
        ref_rank, _ = serial_baseline
        rank, stats, _ = _run_sharded(
            graph, faults="kill:1@3", prefetch_depth=depth
        )
        np.testing.assert_array_equal(ref_rank, rank)
        assert stats.extra["execution"]["shards_resolved"] == 2
        assert stats.extra["supervisor"]["respawns"] == 1
        assert not LIVE_SHM_SEGMENTS

    def test_drop_trips_heartbeat_and_respawns(
        self, graph, serial_baseline, monkeypatch
    ):
        # The worker swallows batch 3: no death to observe, just
        # silence.  The heartbeat timeout classifies it as hung, the
        # respawned incarnation recomputes the batch, and the run stays
        # sharded and bit-identical.
        ref_rank, _ = serial_baseline
        monkeypatch.setattr(ShardRuntime, "HEARTBEAT_TIMEOUT", 1.0)
        rank, stats, eng = _run_sharded(graph, faults="drop:1@3")
        np.testing.assert_array_equal(ref_rank, rank)
        assert stats.extra["execution"]["shards_resolved"] == 2
        sup = stats.extra["supervisor"]
        assert sup["respawns"] == 1
        assert sup["hangs"] == 1
        assert not eng.shard_failed
        assert not LIVE_SHM_SEGMENTS

    def test_delay_is_tolerated_without_respawn(self, graph, serial_baseline):
        # A delayed message is late, not lost: the supervisor must not
        # misclassify it (heartbeat far above the injected delay).
        ref_rank, ref_stats = serial_baseline
        rank, stats, _ = _run_sharded(graph, faults="delay:0@1:0.2")
        np.testing.assert_array_equal(ref_rank, rank)
        assert stats.extra["execution"]["shards_resolved"] == 2
        assert stats.extra["supervisor"]["respawns"] == 0
        assert stats.sim_elapsed == pytest.approx(ref_stats.sim_elapsed)
        assert not LIVE_SHM_SEGMENTS

    def test_respawn_budget_exhausted_falls_back(
        self, graph, serial_baseline
    ):
        # kill with count=999 re-kills every incarnation: after the
        # budget (2) is spent the runtime is declared broken and the
        # engine finishes on its own fetch path — still bit-identical.
        ref_rank, _ = serial_baseline
        rank, stats, eng = _run_sharded(graph, faults="kill:0@2:999")
        np.testing.assert_array_equal(ref_rank, rank)
        assert stats.extra["execution"]["shards_resolved"] == 1
        sup = stats.extra["supervisor"]
        assert sup["respawns"] == 2  # the full budget
        assert sup["worker_deaths"] >= 2
        assert eng.shard_failed
        assert eng.shard_runtime is None
        assert not LIVE_SHM_SEGMENTS

    def test_scatter_failure_falls_back_bit_identical(
        self, graph, serial_baseline
    ):
        ref_rank, _ = serial_baseline
        rank, stats, eng = _run_sharded(graph, faults="scatterfail@0")
        np.testing.assert_array_equal(ref_rank, rank)
        assert stats.extra["execution"]["shards_resolved"] == 1
        assert eng.shard_failed
        assert not LIVE_SHM_SEGMENTS


# --------------------------------------------------------------------- #
# Bounded teardown
# --------------------------------------------------------------------- #


class TestBoundedTeardown:
    def test_gather_close_bounded_on_stopped_worker(self, graph):
        # SIGSTOP parks a worker in a state SIGTERM cannot reach.  A
        # gather expecting results from it must give up at its deadline
        # (marking the runtime broken), and engine teardown must
        # escalate to SIGKILL rather than hang.
        eng = GStoreEngine(graph, _cfg(shards=2))
        try:
            eng.warm_backend()
            rt = eng.shard_runtime
            assert rt is not None
            victim = rt.processes[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                gather = ShardGather(rt, n_batches=4)
                t0 = time.monotonic()
                gather.close(timeout=0.5)
                elapsed = time.monotonic() - t0
                assert elapsed < 5.0
                assert rt._broken
            finally:
                os.kill(victim.pid, signal.SIGCONT)
        finally:
            t0 = time.monotonic()
            eng.close()
            assert time.monotonic() - t0 < 30.0
        assert not victim.is_alive()
        assert not LIVE_SHM_SEGMENTS

    def test_stop_worker_processes_escalates_to_kill(self, graph):
        # Same scenario without the SIGCONT: the stopped worker ignores
        # terminate() entirely, so only the SIGKILL escalation inside
        # stop_worker_processes can reap it.
        eng = GStoreEngine(graph, _cfg(shards=2))
        eng.warm_backend()
        rt = eng.shard_runtime
        assert rt is not None
        victim = rt.processes[1]
        os.kill(victim.pid, signal.SIGSTOP)
        eng.close()
        assert not victim.is_alive()
        assert not LIVE_SHM_SEGMENTS


# --------------------------------------------------------------------- #
# Checkpoint/resume composed with shard mode
# --------------------------------------------------------------------- #


class TestShardedCheckpointResume:
    def test_sharded_resume_matches_serial(
        self, graph, serial_baseline, tmp_path
    ):
        ref_rank, _ = serial_baseline
        ckpt = os.fspath(tmp_path / "ckpt")

        interrupted = _pagerank()
        eng = GStoreEngine(graph, _cfg(shards=2, max_iterations=3))
        try:
            with pytest.raises(AlgorithmError):
                eng.run(interrupted, checkpoint=ckpt)
        finally:
            eng.close()
        assert CheckpointManager(ckpt).exists()

        resumed = _pagerank()
        eng = GStoreEngine(graph, _cfg(shards=2))
        try:
            stats = eng.run(resumed, checkpoint=ckpt)
        finally:
            eng.close()
        np.testing.assert_array_equal(ref_rank, resumed.rank)
        assert stats.extra["execution"]["shards_resolved"] == 2
        assert not LIVE_SHM_SEGMENTS

    def test_resume_after_mid_run_kill(self, graph, serial_baseline, tmp_path):
        # Compose all three planes: the interrupted leg loses a worker
        # (and recovers via respawn) before hitting the iteration cap;
        # the resumed leg still reproduces the serial result exactly.
        ref_rank, _ = serial_baseline
        ckpt = os.fspath(tmp_path / "ckpt")

        interrupted = _pagerank()
        eng = GStoreEngine(
            graph,
            _cfg(
                shards=2,
                max_iterations=3,
                faults=FaultPlan.parse("kill:0@2"),
            ),
        )
        try:
            with pytest.raises(AlgorithmError):
                eng.run(interrupted, checkpoint=ckpt)
            assert eng.supervisor["respawns"] == 1
        finally:
            eng.close()

        resumed = _pagerank()
        eng = GStoreEngine(graph, _cfg(shards=2))
        try:
            eng.run(resumed, checkpoint=ckpt)
        finally:
            eng.close()
        np.testing.assert_array_equal(ref_rank, resumed.rank)
        assert not LIVE_SHM_SEGMENTS
