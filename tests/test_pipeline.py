"""Unit tests for the overlapped I/O-compute timeline (the *slide*) and
its wall-clock counterpart."""

import pytest

from repro.runtime.pipeline import PipelineTimeline, WallOverlap
from repro.util.timer import SimClock


class TestOverlap:
    def test_step_costs_max(self):
        t = PipelineTimeline(overlap=True)
        assert t.step(2.0, 3.0) == 3.0
        assert t.totals.elapsed == 3.0

    def test_stall_attribution(self):
        t = PipelineTimeline(overlap=True)
        t.step(5.0, 2.0)  # I/O-bound step: compute waited 3s
        assert t.totals.io_stall == pytest.approx(3.0)
        t.step(1.0, 4.0)  # CPU-bound step
        assert t.totals.compute_stall == pytest.approx(3.0)

    def test_io_bound_fraction(self):
        t = PipelineTimeline(overlap=True)
        t.step(4.0, 0.0)
        assert t.totals.io_bound_fraction == pytest.approx(1.0)

    def test_clock_advances(self):
        clock = SimClock()
        t = PipelineTimeline(clock=clock, overlap=True)
        t.step(1.0, 2.0)
        t.compute_only(0.5)
        assert clock.now == pytest.approx(2.5)


class TestSerial:
    def test_step_costs_sum(self):
        t = PipelineTimeline(overlap=False)
        assert t.step(2.0, 3.0) == 5.0

    def test_serial_slower_than_overlapped(self):
        a = PipelineTimeline(overlap=True)
        b = PipelineTimeline(overlap=False)
        for _ in range(5):
            a.step(1.0, 1.0)
            b.step(1.0, 1.0)
        assert b.totals.elapsed == 2 * a.totals.elapsed


class TestAccounting:
    def test_busy_totals(self):
        t = PipelineTimeline()
        t.step(1.0, 2.0)
        t.io_only(3.0)
        # Overlapped, each side was busy for the elapsed time less the
        # time it stalled the other (the engine's RunStats carry the busy
        # sums themselves as io_time / compute_time).
        assert t.totals.elapsed - t.totals.compute_stall == pytest.approx(4.0)
        assert t.totals.elapsed - t.totals.io_stall == pytest.approx(2.0)
        assert t.totals.steps == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PipelineTimeline().step(-1.0, 0.0)


class TestWallOverlap:
    def test_record_and_fractions(self):
        w = WallOverlap()
        w.record_fetch(0.5, 0.1, prefetched=True)
        w.record_fetch(0.5, 0.5, prefetched=False)  # serial: full stall
        w.compute_busy += 1.0
        w.elapsed = 2.0
        assert w.io_busy == pytest.approx(1.0)
        assert w.io_stall == pytest.approx(0.6)
        assert w.batches == 2 and w.prefetched == 1
        assert w.io_bound_fraction == pytest.approx(0.3)

    def test_empty_fraction(self):
        assert WallOverlap().io_bound_fraction == 0.0

    def test_as_dict_round_trip(self):
        w = WallOverlap()
        w.record_fetch(0.2, 0.0, prefetched=True)
        w.elapsed = 1.0
        d = w.as_dict()
        assert d["io_busy"] == pytest.approx(0.2)
        assert d["prefetched"] == 1
        assert d["io_bound_fraction"] == pytest.approx(0.0)
