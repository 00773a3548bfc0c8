"""Property-based tests for the selective-I/O plan invariants (§V-B).

Whatever the frontier and the tile-size distribution, the machinery that
turns activity into I/O must uphold:

* **Partition** — every selected tile lands in exactly one merged
  extent's tag (and nothing else does);
* **Geometry** — extents are byte-accurate, non-overlapping, in disk
  order, internally byte-adjacent, and maximal (two consecutive extents
  are never themselves adjacent — they would have merged);
* **Empty frontier** — no active rows means no positions, no requests,
  and an empty slide plan.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.selective import (
    dense_positions,
    merge_extents,
    merge_requests,
    select_positions,
)
from repro.format.edgelist import EdgeList
from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import TiledGraph
from repro.memory.scr import SCRScheduler
from repro.memory.segments import MemoryBudget


@st.composite
def indexed_subsets(draw):
    """A start-edge index over random tile sizes plus a needed-subset."""
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60)
    )
    idx = StartEdgeIndex.from_counts(counts, tuple_bytes=4)
    positions = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=len(counts) - 1),
                max_size=len(counts),
            )
        )
    )
    return idx, np.asarray(positions, dtype=np.int64)


@st.composite
def tiled_graphs(draw):
    n_v = draw(st.integers(min_value=2, max_value=120))
    n_e = draw(st.integers(min_value=1, max_value=250))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    directed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_v, n_e).astype(np.uint32)
    dst = rng.integers(0, n_v, n_e).astype(np.uint32)
    el = EdgeList(src, dst, n_v, directed=directed, name="prop-sel")
    if directed:
        el = el.deduped().without_self_loops()
    return TiledGraph.from_edge_list(el, tile_bits=3, group_q=2)


class TestMergeRequestsProperties:
    @given(data=indexed_subsets())
    @settings(max_examples=60, deadline=None)
    def test_partition_every_position_in_exactly_one_tag(self, data):
        idx, positions = data
        reqs = merge_requests(positions, idx)
        tagged = [p for r in reqs for p in r.tag]
        assert tagged == positions.tolist()  # each exactly once, in order

    @given(data=indexed_subsets())
    @settings(max_examples=60, deadline=None)
    def test_extents_byte_accurate_and_adjacent_within(self, data):
        idx, positions = data
        for r in merge_requests(positions, idx):
            # The extent covers exactly its tagged tiles, back to back.
            off = r.offset
            for p in r.tag:
                t_off, t_size = idx.byte_extent(p)
                assert t_off == off
                off += t_size
            assert off - r.offset == r.size

    @given(data=indexed_subsets())
    @settings(max_examples=60, deadline=None)
    def test_extents_disjoint_ordered_and_maximal(self, data):
        idx, positions = data
        reqs = merge_requests(positions, idx)
        for a, b in zip(reqs, reqs[1:]):
            # Disk order, no overlap...
            assert a.offset + a.size <= b.offset
            # ...and maximality: adjacent extents would have merged.
            assert a.offset + a.size != b.offset

    @given(data=indexed_subsets())
    @settings(max_examples=30, deadline=None)
    def test_requests_never_empty_or_zero_positions(self, data):
        idx, positions = data
        for r in merge_requests(positions, idx):
            assert r.tag
            assert r.size >= 0


def _merged_per_tile(idx, positions):
    """The reference merge: walk the tiles one at a time, extending the
    open extent while the next tile starts where it ends."""
    offsets, sizes, first = [], [], []
    for k, p in enumerate(positions.tolist()):
        off, size = idx.byte_extent(p)
        if offsets and offsets[-1] + sizes[-1] == off:
            sizes[-1] += size
        else:
            offsets.append(off)
            sizes.append(size)
            first.append(k)
    return offsets, sizes, first + [len(positions)]


class TestMergeExtentsProperties:
    @given(data=indexed_subsets())
    @example(data=(StartEdgeIndex.from_counts([3, 1, 4], 4),
                   np.empty(0, dtype=np.int64)))  # no tile
    @example(data=(StartEdgeIndex.from_counts([3, 1, 4], 4),
                   np.array([1], dtype=np.int64)))  # one tile
    @example(data=(StartEdgeIndex.from_counts([3, 1, 4], 4),
                   np.arange(3, dtype=np.int64)))  # every tile
    @example(data=(StartEdgeIndex.from_counts([3, 1, 4, 1, 5], 4),
                   np.array([0, 2, 4], dtype=np.int64)))  # gaps
    @settings(max_examples=80, deadline=None)
    def test_array_extents_equal_per_tile_merging(self, data):
        """The array merge is the per-tile ``byte_extent`` merge: the same
        extents, covering the same tiles, in the same order."""
        idx, positions = data
        ext = merge_extents(positions, idx)
        offsets, sizes, first = _merged_per_tile(idx, positions)
        assert ext.offsets.tolist() == offsets
        assert ext.sizes.tolist() == sizes
        assert ext.first.tolist() == first
        assert ext.positions.tolist() == positions.tolist()
        assert len(ext) == len(offsets) and ext.nbytes == sum(sizes)
        for r, k in zip(merge_requests(positions, idx), range(len(ext))):
            assert (r.offset, r.size, r.tag) == (
                offsets[k], sizes[k], ext.tag(k)
            )


class TestSelectPositionsProperties:
    @given(tg=tiled_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_selected_iff_active_and_nonempty(self, tg, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random(tg.p) < 0.4
        pos = select_positions(tg, rows)
        counts = tg.tile_edge_counts()
        sel = set(pos.tolist())
        for p in range(tg.n_tiles):
            active = bool(rows[tg.tile_rows[p]])
            if tg.info.symmetric:
                active = active or bool(rows[tg.tile_cols[p]])
            expected = active and counts[p] > 0
            assert (p in sel) == expected
        # Disk order, no duplicates, and a subset of the dense plan.
        assert pos.tolist() == sorted(sel)
        assert sel <= set(dense_positions(tg).tolist())

    @given(tg=tiled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_empty_frontier_empty_plan(self, tg):
        rows = np.zeros(tg.p, dtype=bool)
        pos = select_positions(tg, rows)
        assert pos.size == 0
        assert merge_requests(pos, tg.start_edge) == []
        scr = SCRScheduler(
            budget=MemoryBudget(total_bytes=4096, segment_bytes=1024)
        )
        plan = scr.segment_plan(pos, tg.start_edge)
        assert plan.n_batches == 0
        assert plan.total_bytes == 0

    @given(
        tg=tiled_graphs(),
        seed=st.integers(0, 2**31 - 1),
        seg=st.integers(min_value=64, max_value=4096),
    )
    @settings(max_examples=40, deadline=None)
    def test_slide_plan_partitions_fetch_set(self, tg, seed, seg):
        """segment_plan is a partition of the selected set, in order, with
        byte-accurate batch sizes."""
        rng = np.random.default_rng(seed)
        rows = rng.random(tg.p) < 0.5
        pos = select_positions(tg, rows)
        scr = SCRScheduler(
            budget=MemoryBudget(total_bytes=4 * seg, segment_bytes=seg)
        )
        plan = scr.segment_plan(pos, tg.start_edge)
        flat = [p for batch in plan for p in batch]
        assert flat == pos.tolist()
        for batch, nbytes in zip(plan.batches, plan.batch_bytes):
            size = sum(tg.start_edge.byte_extent(p)[1] for p in batch)
            assert size == nbytes
            assert size <= seg or len(batch) == 1
