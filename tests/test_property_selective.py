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
    batch_extents,
    dense_positions,
    merge_extents,
    merge_requests,
    select_positions,
)
from repro.format.edgelist import EdgeList
from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import TiledGraph, concat_global_edges
from repro.memory.scr import SCRScheduler
from repro.memory.segments import MemoryBudget
from repro.storage.file import TileStore


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


def _random_graph(n_v, n_e, seed, directed, snb=True):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_v, n_e).astype(np.uint32)
    dst = rng.integers(0, n_v, n_e).astype(np.uint32)
    el = EdgeList(src, dst, n_v, directed=directed, name="prop-sel")
    if directed:
        el = el.deduped().without_self_loops()
    return TiledGraph.from_edge_list(el, tile_bits=3, group_q=2, snb=snb)


@st.composite
def tiled_graphs(draw):
    return _random_graph(
        draw(st.integers(min_value=2, max_value=120)),
        draw(st.integers(min_value=1, max_value=250)),
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
        draw(st.booleans()),
        snb=draw(st.booleans()),
    )


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
        _check_plan_layouts(tg, pos, seg)


def _check_plan_layouts(tg, positions, seg):
    """The plan built with the graph carries, per batch, what
    ``merge_extents`` and ``decode_extents`` derive from that batch's
    positions alone: the same extents, tile sizes and decoded batch, whose
    edges are its tiles'.  Returns the plan."""
    scr = SCRScheduler(
        budget=MemoryBudget(total_bytes=4 * seg, segment_bytes=seg)
    )
    plan = scr.segment_plan(positions, tg.start_edge, tg)
    bare = scr.segment_plan(positions, tg.start_edge)
    assert [b.tolist() for b in plan] == [b.tolist() for b in bare]
    assert plan.batch_bytes == bare.batch_bytes and bare.layouts == ()
    assert len(plan.extents) == len(plan.layouts) == plan.n_batches
    store = TileStore.from_tiled_graph(tg)
    for k, batch in enumerate(plan.batches):
        ext, ref = plan.extents[k], merge_extents(batch, tg.start_edge)
        for field in ("offsets", "sizes", "positions", "first"):
            assert getattr(ext, field).tolist() == getattr(ref, field).tolist()
        assert plan.tile_bytes[k].tolist() == (
            tg.start_edge.tile_bytes(batch).tolist()
        )
        data = store.gather(ext.offsets, ext.sizes)
        got = tg.decode_extents(data, plan.layouts[k])
        alone, layout = batch_extents(batch, tg)
        assert alone.first.tolist() == ref.first.tolist()
        want = tg.decode_extents(data, layout)
        tiles = concat_global_edges([tg.tile_view(int(p)) for p in batch])
        assert got.gsrc.tolist() == tiles[0].tolist()
        assert got.gdst.tolist() == tiles[1].tolist()
        for field in ("gsrc", "gdst", "run_bounds", "run_edge_lo"):
            assert getattr(got, field).tolist() == getattr(want, field).tolist()
        for field in ("pairs", "counts", "src_base", "dst_base"):
            assert getattr(got.tiles, field).tolist() == (
                getattr(want.tiles, field).tolist()
            )
    return plan


class TestSlidePlanLayouts:
    """The plan's one pass at the edges of its input."""

    def test_oversized_tile_travels_alone(self):
        tg = _random_graph(64, 900, 3, directed=False)
        pos = dense_positions(tg)
        sizes = tg.start_edge.tile_bytes(pos)
        seg = int(sizes.max()) - 1
        plan = _check_plan_layouts(tg, pos, seg)
        alone = [b for b, n in zip(plan.batches, plan.batch_bytes) if n > seg]
        assert alone and all(b.size == 1 for b in alone)

    def test_byte_adjacent_run_cut_by_a_batch_bound(self):
        tg = _random_graph(64, 900, 4, directed=False)
        pos = dense_positions(tg)
        plan = _check_plan_layouts(tg, pos, 64)
        se = tg.start_edge.start_edge
        # A run that the merge would join but the batch bound cuts: the
        # last tile of batch k ends where the first of batch k + 1 starts.
        cut = [
            k for k in range(plan.n_batches - 1)
            if se[plan.batches[k][-1] + 1] == se[plan.batches[k + 1][0]]
        ]
        assert cut
        for k in cut:
            assert plan.extents[k].first[-1] == plan.batches[k].size
            assert plan.extents[k + 1].first[0] == 0

    def test_empty_fetch_set(self):
        tg = _random_graph(64, 300, 5, directed=False)
        plan = _check_plan_layouts(tg, np.empty(0, dtype=np.int64), 256)
        assert plan.n_batches == 0 and plan.total_bytes == 0
        assert plan.extents == plan.layouts == plan.tile_bytes == ()

    def test_global_id_storage(self):
        tg = _random_graph(64, 600, 6, directed=True, snb=False)
        assert not tg.snb
        pos = dense_positions(tg)
        plan = _check_plan_layouts(tg, pos[::2], 128)
        assert plan.n_batches > 1
        assert all(not lay.src_base.any() for lay in plan.layouts)
