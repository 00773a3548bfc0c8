"""Unit tests for the slide-cache-rewind scheduler state (§VI)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.format.startedge import StartEdgeIndex
from repro.memory.scr import CachePolicy, SCRScheduler
from repro.memory.segments import MemoryBudget, TileBuffer


@pytest.fixture()
def start_edge():
    # Five tiles with 10, 0, 20, 5, 15 edges at 4 bytes per tuple.
    return StartEdgeIndex.from_counts([10, 0, 20, 5, 15], tuple_bytes=4)


def _sched(policy=CachePolicy.SCR, total=400, seg=100):
    return SCRScheduler(
        budget=MemoryBudget(total_bytes=total, segment_bytes=seg), policy=policy
    )


def _buf(pos, size, i=0, j=0):
    return TileBuffer(pos=pos, i=i, j=j, data=b"e" * size)


class TestSplitCached:
    def test_nothing_cached_initially(self, start_edge):
        s = _sched()
        cached, fetch = s.split_cached([0, 2, 4], start_edge)
        assert cached.size == 0
        assert fetch.tolist() == [0, 2, 4]

    def test_returns_int64_arrays(self, start_edge):
        s = _sched()
        cached, fetch = s.split_cached(
            np.array([0, 2, 4], dtype=np.int64), start_edge
        )
        assert cached.dtype == np.int64
        assert fetch.dtype == np.int64

    def test_cached_tiles_split_out(self, start_edge):
        s = _sched()
        s.pool.add(_buf(2, 80))
        cached, fetch = s.split_cached([0, 2, 4], start_edge)
        assert cached.tolist() == [2]
        assert fetch.tolist() == [0, 4]
        # What the engine counts as this rewind's bytes_from_cache.
        assert int(start_edge.tile_bytes(cached).sum()) == 80

    def test_base_policy_never_caches(self, start_edge):
        s = _sched(policy=CachePolicy.BASE)
        s.pool.add(_buf(2, 80))  # capacity 0 -> refused anyway
        cached, fetch = s.split_cached([2], start_edge)
        assert cached.size == 0
        assert fetch.tolist() == [2]


class TestSegmentBatches:
    def test_batches_respect_segment_size(self, start_edge):
        s = _sched(seg=100)
        plan = s.segment_plan([0, 2, 3, 4], start_edge)
        for batch, nbytes in zip(plan.batches, plan.batch_bytes):
            size = sum(start_edge.byte_extent(p)[1] for p in batch.tolist())
            assert size == nbytes
            assert size <= 100 or len(batch) == 1

    def test_all_positions_covered_in_order(self, start_edge):
        s = _sched(seg=60)
        plan = s.segment_plan([0, 2, 3, 4], start_edge)
        assert np.concatenate(plan.batches).tolist() == [0, 2, 3, 4]

    def test_oversized_tile_travels_alone(self):
        se = StartEdgeIndex.from_counts([100, 1], tuple_bytes=4)
        s = _sched(seg=50)
        plan = s.segment_plan([0, 1], se)
        assert plan.batches[0].tolist() == [0]

    def test_empty(self, start_edge):
        assert _sched().segment_plan([], start_edge).batches == ()


class TestOfferAndAnalysis:
    def _geometry(self):
        tile_rows = np.array([0, 0, 1, 1, 2])
        tile_cols = np.array([0, 1, 1, 2, 2])
        return tile_rows, tile_cols

    def test_unneeded_tiles_not_cached(self):
        s = _sched()
        rows, cols = self._geometry()
        active_next = np.array([False, False, False])
        s.offer([_buf(0, 10)], rows, cols, active_next, symmetric=True)
        assert len(s.pool) == 0

    def test_needed_tiles_cached(self):
        s = _sched()
        rows, cols = self._geometry()
        active_next = np.array([True, False, False])
        s.offer([_buf(0, 10), _buf(2, 10)], rows, cols, active_next, True)
        assert 0 in s.pool  # row 0 active
        assert 2 not in s.pool  # rows 1,1 inactive

    def test_analysis_evicts_on_pressure(self):
        s = _sched(total=220, seg=100)  # pool capacity 20
        rows, cols = self._geometry()
        # Tile 0 cached while row 0 was believed active...
        s.offer([_buf(0, 15)], rows, cols, np.array([True, False, False]), True)
        assert 0 in s.pool
        # ...later knowledge says only row 2 is active; offering tile 4
        # forces the analysis, which evicts tile 0 and admits tile 4.
        s.offer([_buf(4, 15)], rows, cols, np.array([False, False, True]), True)
        assert 0 not in s.pool
        assert 4 in s.pool
        assert s.stats.analyses >= 1
        assert s.stats.tiles_evicted >= 1

    def test_drop_when_no_room_even_after_analysis(self):
        s = _sched(total=210, seg=100)  # pool capacity 10
        rows, cols = self._geometry()
        active = np.array([True, True, True])
        s.offer([_buf(0, 10)], rows, cols, active, True)
        s.offer([_buf(2, 10)], rows, cols, active, True)  # no space, all needed
        assert 0 in s.pool
        assert 2 not in s.pool

    def test_base_policy_offer_is_noop(self):
        s = _sched(policy=CachePolicy.BASE)
        rows, cols = self._geometry()
        s.offer([_buf(0, 10)], rows, cols, np.array([True, True, True]), True)
        assert len(s.pool) == 0

    def test_end_iteration_analysis(self):
        s = _sched()
        rows, cols = self._geometry()
        s.offer([_buf(0, 10)], rows, cols, np.array([True, False, False]), True)
        s.end_iteration(rows, cols, np.array([False, False, False]), True)
        assert len(s.pool) == 0

    def test_cached_buffer_lookup(self):
        s = _sched()
        rows, cols = self._geometry()
        s.offer([_buf(0, 10)], rows, cols, np.array([True, False, False]), True)
        assert [b.nbytes for b in s.cached_buffers([0])] == [10]
        with pytest.raises(KeyError):
            s.cached_buffers([3])


# --------------------------------------------------------------------- #
# Admission is order-exact
# --------------------------------------------------------------------- #


class _SequentialPool:
    """The oracle: the per-tile admission loop the vectorised ``offer``
    replaced, over a plain ``{pos: size}`` dict — one tile at a time, in
    batch order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.tiles = {}
        self.cached = self.evicted = self.analyses = 0

    @property
    def used(self):
        return sum(self.tiles.values())

    def add(self, pos, size):
        if size > self.capacity - self.used:
            return False
        self.tiles[pos] = size
        return True

    def analyse(self, keep):
        self.analyses += 1
        for pos in [p for p in self.tiles if not keep[p]]:
            del self.tiles[pos]
            self.evicted += 1

    def offer(self, batch, sizes, keep):
        analysed = False
        for pos in batch:
            if not keep[pos] or pos in self.tiles:
                continue
            if self.add(pos, sizes[pos]):
                self.cached += 1
                continue
            if not analysed:
                self.analyse(keep)
                analysed = True
                if self.add(pos, sizes[pos]):
                    self.cached += 1


def _drive_both(sizes, capacity, resident, offers, as_buffers):
    """Run the same offers through ``SCRScheduler`` and the oracle,
    comparing the full pool state after every one.  Tile ``p`` sits alone
    in row ``p`` of a directed grid, so ``row_active_next`` *is* the keep
    mask.  A batch of ``None`` is the end-of-iteration analysis.
    Positional offers carry their tiles' sizes, as the engine's carry
    its slide plan's."""
    n = len(sizes)
    grid = np.arange(n)
    s = SCRScheduler(
        budget=MemoryBudget(total_bytes=capacity + 2, segment_bytes=1),
    )
    ref = _SequentialPool(capacity)
    for pos in resident:
        if ref.add(pos, sizes[pos]):
            s.pool.add(_buf(pos, sizes[pos]))
    for batch, keep in offers:
        keep = np.asarray(keep, dtype=bool)
        if batch is None:
            s.end_iteration(grid, grid, keep, symmetric=False)
            ref.analyse(keep)
        elif as_buffers:
            s.offer([_buf(pos, sizes[pos]) for pos in batch], grid, grid,
                    keep, symmetric=False)
            ref.offer(batch, sizes, keep)
        else:
            tiles = np.asarray(batch, dtype=np.int64)
            s.offer(tiles, grid, grid, keep, symmetric=False,
                    sizes=np.asarray(sizes, dtype=np.int64)[tiles])
            ref.offer(batch, sizes, keep)
        assert sorted(s.pool.positions()) == sorted(ref.tiles)
        assert len(s.pool) == len(ref.tiles)
        assert s.pool.used_bytes == ref.used
        assert s.stats.tiles_cached == ref.cached
        assert s.stats.tiles_evicted == ref.evicted
        assert s.stats.analyses == ref.analyses
        if as_buffers:
            assert [b.pos for b in s.cached_buffers(sorted(ref.tiles))] == (
                sorted(ref.tiles)
            )
    return s


@st.composite
def _admission_cases(draw):
    n = draw(st.integers(1, 24))
    sizes = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    capacity = draw(st.integers(0, 120))
    resident = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    # Each offer and analysis reuses a keep mask drawn before or draws a
    # fresh one, so masks repeat (an analysis due under the masks of the
    # last sweep, with every admission since made under them, does not
    # sweep) as well as change at every step.
    masks = []

    def mask():
        if masks and draw(st.booleans()):
            return masks[draw(st.integers(0, len(masks) - 1))]
        masks.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        return masks[-1]

    offers = []
    for _ in range(draw(st.integers(1, 4))):
        # One iteration's worth: a disk-order subset cut into batches, each
        # offered under its own (possibly changed) keep mask, then maybe
        # the end-of-iteration analysis.
        order = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=4)))
        for a, b in zip([0, *cuts], [*cuts, len(order)]):
            offers.append((order[a:b], mask()))
        if draw(st.booleans()):
            offers.append((None, mask()))
    return sizes, capacity, resident, offers, draw(st.booleans())


#: Cases whose later offers reach a full pool settled under their masks
#: — all rows active and not — with free bytes below every tile, so the
#: offer returns before its admission arithmetic (and one, under other
#: masks, that does not).
_FULL_SETTLED = [
    ([10, 10, 10, 10], 20, [0, 1],
     [([2, 3], [True] * 4), (None, [True] * 4), ([2, 3], [True] * 4),
      ([3], [True] * 4), ([2, 3], [True, True, False, True])], as_buffers)
    for as_buffers in (False, True)
] + [
    ([10, 12, 11, 13, 14], 23, [0], [([1, 2], keep), ([3, 4], keep),
                                     (None, keep), ([3, 4], keep)], False)
    for keep in ([True, False, True, True, True], [True] * 5)
]
#: Free bytes equal to the batch's smallest tile: that tile still fits.
_FITS_EXACTLY = ([10, 10, 10, 5], 25, [0],
                 [([1, 2], [True] * 4), ([3], [True] * 4)], False)


class TestAdmissionOrderExact:
    @given(case=_admission_cases())
    @settings(max_examples=300, deadline=None)
    @example(case=_FULL_SETTLED[0])
    @example(case=_FULL_SETTLED[1])
    @example(case=_FULL_SETTLED[2])
    @example(case=_FULL_SETTLED[3])
    @example(case=_FITS_EXACTLY)
    def test_matches_sequential_rule(self, case):
        _drive_both(*case)

    @pytest.mark.parametrize("case", _FULL_SETTLED)
    def test_full_settled_pool_returns_first(self, case):
        """An offer to a settled pool whose free bytes are below the
        batch's smallest tile admits nothing and counts the analysis its
        first refusal runs without running it; the pool state and
        ``SCRStats`` stay the sequential rule's."""
        sizes, capacity, resident, offers, as_buffers = case
        n = len(sizes)
        grid = np.arange(n)
        s = SCRScheduler(
            budget=MemoryBudget(total_bytes=capacity + 2, segment_bytes=1),
        )
        for pos in resident:
            s.pool.add(_buf(pos, sizes[pos]))
        analysed = []
        real = s._analyse
        s._analyse = lambda *a, **k: analysed.append(1) or real(*a, **k)
        early = 0
        for batch, keep in offers:
            keep = np.asarray(keep, dtype=bool)
            if batch is None:
                s.end_iteration(grid, grid, keep, symmetric=False)
                continue
            tiles = np.asarray(batch, dtype=np.int64)
            settled = s._settled == s._masks(keep, False, None)
            runs, counted = len(analysed), s.stats.analyses
            s.offer(tiles, grid, grid, keep, symmetric=False,
                    sizes=np.asarray(sizes, dtype=np.int64)[tiles])
            if settled and s.pool.free_bytes < min(sizes[p] for p in batch):
                early += 1
                assert len(analysed) == runs
                assert s.stats.analyses == counted + 1
        assert early >= 1
        _drive_both(*case)

    @pytest.mark.parametrize("as_buffers", [False, True])
    def test_oversized_tile_then_smaller_ones_that_fit(self, as_buffers):
        # 50 never fits a 30-byte pool; 10, 25 (refused: 20 left) and 20
        # behind it are still tried, in order.
        s = _drive_both(
            [50, 10, 25, 20], 30, [], [([0, 1, 2, 3], [True] * 4)], as_buffers
        )
        assert s.pool.positions() == [1, 3]
        assert s.stats.analyses == 1

    @pytest.mark.parametrize("as_buffers", [False, True])
    def test_full_pool_stays_full(self, as_buffers):
        # Everything resident is still needed: each batch analyses once,
        # evicts nothing and admits nothing.
        keep = [True] * 6
        s = _drive_both(
            [10, 10, 10, 10, 10, 10], 20, [0, 1],
            [([2, 3], keep), ([4, 5], keep)], as_buffers,
        )
        assert s.pool.positions() == [0, 1]
        assert s.stats.analyses == 2 and s.stats.tiles_evicted == 0

    def test_settled_pool_is_not_swept(self):
        """Once a sweep under a mask left every resident needed, analyses
        under the same mask are counted but do not sweep: the pool is not
        read again until the mask changes or an admission is made under
        another one."""
        keep = [True] * 6
        other = [True, True, True, True, False, True]
        offers = [([2, 3], keep), ([4, 5], keep), (None, keep),
                  ([4, 5], keep), ([4, 5], other), (None, other)]
        sizes = [10] * 6
        n = len(sizes)
        grid = np.arange(n)
        s = SCRScheduler(budget=MemoryBudget(total_bytes=22, segment_bytes=1))
        for pos in (0, 1):
            s.pool.add(_buf(pos, 10))
        sweeps = []
        real = s.pool.position_array
        s.pool.position_array = lambda: sweeps.append(1) or real()
        for batch, mask in offers:
            mask = np.asarray(mask, dtype=bool)
            if batch is None:
                s.end_iteration(grid, grid, mask, symmetric=False)
                continue
            tiles = np.asarray(batch, dtype=np.int64)
            s.offer(tiles, grid, grid, mask, symmetric=False,
                    sizes=np.full(tiles.size, 10))
        # Six analyses, one per batch and one per iteration end; the pool
        # is swept by the first and by the first under the new mask.
        assert s.stats.analyses == 6 and len(sweeps) == 2
        assert s.stats.tiles_evicted == 0 and s.pool.positions() == [0, 1]
        _drive_both(sizes, 20, [0, 1], offers, False)

    def test_positions_need_sizes(self):
        s = SCRScheduler(budget=MemoryBudget(total_bytes=100, segment_bytes=10))
        grid = np.arange(2)
        with pytest.raises(TypeError, match="byte sizes"):
            s.offer(np.arange(2), grid, grid, np.ones(2, bool), symmetric=False)

    @pytest.mark.parametrize("as_buffers", [False, True])
    def test_analysis_makes_room_mid_batch(self, as_buffers):
        # Tile 0 is stale; the first refusal (tile 2) evicts it and the
        # retry admits tile 2, then 3 no longer fits.
        s = _drive_both(
            [20, 10, 15, 10], 30, [0],
            [([1, 2, 3], [False, True, True, True])], as_buffers,
        )
        assert s.pool.positions() == [1, 2]
        assert s.stats.tiles_evicted == 1
