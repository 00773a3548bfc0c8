"""The compiled kernel tier against its NumPy oracle.

:mod:`repro.algorithms.native` runs SSSP's and AsyncBFS's relaxations,
the min-commits of SSSP, AsyncBFS and CC, BFS's and Reachability's
discovery passes, the scatter-add of PageRank, SpMV and SCC's degrees
over tile form (its oracle property is in ``test_pagerank.py``; its
adversarial shapes are here) and the SNB decode in C when it loads; the
NumPy bodies it replaces stay in the algorithms and the decoder as the
fallback, and here they are the oracle: every C entry point must give
what they give, element for element and in the same order.  The build
half — the per-user cache, a damaged cached file, no ``gcc``, two first
imports at once — is checked
on throwaway cache directories.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib.util
import mmap
import os
import shutil
import stat
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs as bfs_module
from repro.algorithms import native
from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.base import gather_ids
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.spmv import SpMV
from repro.algorithms.sssp import SSSP, edge_weights
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.engine.selective import batch_extents
from repro.errors import FormatError
from repro.format.edgelist import EdgeList
from repro.format.grouping import PhysicalGrouping
from repro.format import tiles as tiles_module
from repro.format.tiles import TiledGraph, TileEdges, concat_global_edges
from repro.types import INF_DEPTH, local_dtype
from repro.util.bitops import ceil_div

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

needs_tier = pytest.mark.skipif(
    native.lib is None, reason=f"native tier not loaded: {native.status}"
)


def _numpy(fn, *args):
    """``fn(*args)`` with the NumPy tier forced."""
    lib = native.lib
    native.lib = None
    try:
        return fn(*args)
    finally:
        native.lib = lib


def test_native_tier_loaded():
    """Where the tier can be built it must be: a broken build must not
    fall back to NumPy silently."""
    if importlib.util.find_spec("cffi") is None:
        pytest.skip("cffi is not installed: the NumPy tier is the design")
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not on PATH: the NumPy tier is the design")
    assert native.lib is not None, native.status
    assert native.status == "loaded"


# ---------------------------------------------------------------------- #
# Oracle: C against the NumPy bodies
# ---------------------------------------------------------------------- #

_N = st.integers(1, 40)


def _tile_side(draw, n: int, top: int):
    """One tile's base on one side and the range of its locals, so that
    base + local lands in ``[0, n)``: a base in range, or one near 2**32
    that the locals wrap past."""
    if draw(st.booleans()):
        base = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
        return base, 0, min(top, n - 1 - base)
    r = draw(st.integers(1, top))
    return 2**32 - r, r, min(top, r + n - 1)


@st.composite
def _tile_edges(draw, n: int):
    """A shard over ``n`` vertices in tile form: 8-, 16- or 32-bit locals
    of up to five tiles, every endpoint widening into range (some through
    ``uint32`` wraparound), empty tiles included."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    top = int(np.iinfo(dtype).max)
    k = draw(st.integers(0, 5))
    counts, sb, db, pairs = [], [], [], []
    for _ in range(k):
        c = draw(st.integers(0, 14))
        (a, alo, ahi), (b, blo, bhi) = (_tile_side(draw, n, top) for _ in "ab")
        for _ in range(c):
            for lo, hi in ((alo, ahi), (blo, bhi)):
                pairs.append(draw(st.sampled_from([lo, hi]) | st.integers(lo, hi)))
        counts.append(c)
        sb.append(a)
        db.append(b)
    tiles = TileEdges(np.array(pairs, dtype), np.array(counts, np.int64),
                      np.array(sb, np.uint32), np.array(db, np.uint32))
    gsrc, gdst = _numpy(tiles.widen)
    assert (gsrc < n).all() and (gdst < n).all()
    return tiles


@st.composite
def _shard(draw, dtype):
    """A state array (some entries unreached) and a shard in tile form."""
    n = draw(_N)
    if dtype == np.float64:
        vals = st.one_of(st.just(np.inf), st.floats(0, 100, width=32))
    else:
        vals = st.one_of(st.just(int(INF_DEPTH)), st.integers(0, 30))
    state = np.array(draw(st.lists(vals, min_size=n, max_size=n)), dtype)
    return state, draw(_tile_edges(n))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _frozen_tiles(tiles: TileEdges) -> TileEdges:
    return TileEdges(*(_frozen(getattr(tiles, f.name))
                       for f in dataclasses.fields(tiles)))


def _kernel(algo, symmetric=False, tile_bits=3, **fields):
    """``algo`` with its kernel's fields set directly and a graph that
    only says whether it is stored symmetric and its tile width."""
    algo.graph = SimpleNamespace(info=SimpleNamespace(symmetric=symmetric),
                                 tile_bits=tile_bits)
    for name, value in fields.items():
        setattr(algo, name, value)
    return algo


def _rows_of(n: int, tile_bits: int = 3) -> np.ndarray:
    return np.zeros(((n - 1) >> tile_bits) + 1, bool)


def _assert_partials_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (g, w)


def _sssp_oracle(algo, tiles, w, passes):
    """Up to ``passes`` NumPy relaxation passes of ``algo`` (an SSSP over
    its own arrays), each committed with its rows, stopping after a pass
    that found nothing; the passes run."""
    if not tiles.n_edges:
        return 0
    gsrc, gdst = _numpy(tiles.widen)
    if w is None:
        w = edge_weights(gsrc, gdst)
    gsrc, gdst = gather_ids(gsrc, gdst)
    for ran in range(1, passes + 1):
        idx, vals = algo._candidates(gsrc, gdst, w)
        np.minimum.at(algo.dist, idx, vals)
        algo._rows_next[idx >> algo.graph.tile_bits] = True
        if not idx.size:
            break
    return ran


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.float64), symmetric=st.booleans(), stored=st.booleans(),
       seed=st.integers(0, 2**16))
def test_sssp_candidates_match_numpy(shard, symmetric, stored, seed):
    """One relaxation pass of a shard in tile form and its commit: the
    candidates the NumPy body finds, committed with their rows.
    Without stored weights the compiled loop hashes the widened
    endpoints, as :func:`edge_weights` does."""
    dist, tiles = shard[0], _frozen_tiles(shard[1])
    w = None
    if stored:
        w = _frozen(
            np.random.default_rng(seed).uniform(0.5, 10, tiles.n_edges)
            .astype(np.float32)
        )
    runs = []
    for compiled in (True, False):
        algo = _kernel(SSSP(), symmetric, dist=dist.copy(),
                       _rows_next=_rows_of(dist.size))
        if compiled:
            passes = native.rounds(algo.dist, tiles, symmetric, 1, w,
                                   algo._rows_next, 3)
        else:
            passes = _sssp_oracle(algo, tiles, w, 1)
        runs.append((passes, algo.dist, algo._rows_next))
    (p1, *a1), (p2, *a2) = runs
    assert p1 == p2 == (1 if tiles.n_edges else 0)
    for g, want in zip(a1, a2):
        assert g.tobytes() == want.tobytes()


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.float64), symmetric=st.booleans(),
       stored=st.sampled_from([None, np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_sssp_apply_matches_numpy(shard, symmetric, stored, seed):
    """The whole live step — the first pass and its commit, the second
    pass over what moved and its commit — rows included."""
    dist, tiles = shard
    w = None
    if stored is not None:
        w = np.random.default_rng(seed).uniform(0.5, 10, tiles.n_edges).astype(stored)
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo = _kernel(SSSP(), symmetric, dist=dist.copy(),
                       _rows_next=_rows_of(dist.size))
        partial = tier(algo.kernel_partial, tiles, w)
        edges = tier(algo.apply_partial, partial)
        runs.append((edges, algo.dist, algo._rows_next))
    (e1, *a1), (e2, *a2) = runs
    assert e1 == e2
    for g, w in zip(a1, a2):
        assert np.array_equal(g, w)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(
    n=_N, data=st.data(),
    dtype=st.sampled_from([np.float64, np.int64]), rows=st.booleans(),
    tile_bits=st.integers(0, 6),
)
def test_min_commit_matches_minimum_at(n, data, dtype, rows, tile_bits):
    """Duplicate indices included: every one of them is committed, and
    rows are marked where a value fell
    (:func:`test_min_commit_marks_the_rows_of_what_fell`)."""
    k = data.draw(st.integers(0, 80))
    idx = np.array(
        data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
        np.intp,
    )
    elems = (
        st.floats(-1e6, 1e6) | st.just(np.inf) if dtype == np.float64
        else st.integers(-2**62, 2**62)
    )
    vals = np.array(data.draw(st.lists(elems, min_size=k, max_size=k)), dtype)
    base = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)), dtype)
    got, want = base.copy(), base.copy()
    got_rows, want_rows = _rows_of(n, tile_bits), _rows_of(n, tile_bits)
    native.min_commit(got, idx, vals, got_rows if rows else None, tile_bits)
    if rows:
        want_rows[idx[vals < want[idx]] >> tile_bits] = True
    np.minimum.at(want, idx, vals)
    assert np.array_equal(got, want)
    assert np.array_equal(got_rows, want_rows)


@needs_tier
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12), data=st.data(),
    dtype=st.sampled_from([np.float64, np.int64]), tile_bits=st.integers(0, 3),
)
def test_min_commit_marks_the_rows_of_what_fell(n, data, dtype, tile_bits):
    """A row is marked exactly where some vertex's value strictly fell:
    over few vertices and small values, so indices repeat (a later
    duplicate that lowers nothing more, or an equal value, marks
    nothing new) and candidates tie the state."""
    k = data.draw(st.integers(0, 30))
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=k,
                                      max_size=k)), np.int64)
    elems = st.integers(0, 4)
    vals = np.array(data.draw(st.lists(elems, min_size=k, max_size=k)), dtype)
    base = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)), dtype)
    state, rows = base.copy(), _rows_of(n, tile_bits)
    native.min_commit(state, idx, vals, rows, tile_bits)
    fell = np.flatnonzero(state < base)
    want = _rows_of(n, tile_bits)
    want[fell >> tile_bits] = True
    assert rows.tobytes() == want.tobytes()


@needs_tier
def test_min_commit_checks_before_writing():
    """Every index, and the rows' length and dtype, before the first
    write."""
    a = np.zeros(4)
    with pytest.raises(IndexError, match="index 4 is out of bounds for axis 0 with size 4"):
        native.min_commit(a, np.array([0, 4]), np.array([-1.0, -1.0]))
    for rows in (np.zeros(1, bool), np.zeros(2, np.int64)):
        # vertex 3 is in row 1 at tile_bits 1
        with pytest.raises(ValueError, match="rows must hold the 2 rows"):
            native.min_commit(a, np.array([0]), np.array([-1.0]), rows, 1)
        assert not rows.any()
    assert a.tolist() == [0.0] * 4


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.int64), symmetric=st.booleans())
def test_async_bfs_matches_numpy(shard, symmetric):
    """The rounds to the shard's fixpoint, from depths that include
    ``INF_DEPTH``, rows included; the edges count once."""
    depth, tiles = shard
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo = _kernel(AsyncBFS(), symmetric, depth=depth.copy(),
                       _rows_next=_rows_of(depth.size))
        partial = algo.kernel_partial(tiles)
        assert partial[0] is tiles and partial[1] is None
        assert tier(algo.apply_partial, partial) == tiles.n_edges
        runs.append((algo.depth, algo._rows_next))
    for g, w in zip(*runs):
        assert np.array_equal(g, w)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.int64))
def test_cc_label_scatters_match_numpy(shard):
    """On both tiers the labels, and the rows marked where a label fell,
    are the same — the rows of every label that fell, and the labels
    ``np.minimum.at``'s over both directions' offers."""
    labels, tiles = shard
    src, dst = _numpy(tiles.widen)
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo = _kernel(ConnectedComponents(), comp=labels.copy(),
                       _prev=_frozen(labels), _rows_next=_rows_of(labels.size))
        partial = algo.kernel_partial(src, dst)
        assert tier(algo.apply_partial, partial) == src.size
        runs.append((algo.comp, algo._rows_next))
    (comp, rows), (want, want_rows) = runs
    assert comp.tobytes() == want.tobytes()
    assert rows.tobytes() == want_rows.tobytes()
    fell = _rows_of(labels.size)
    fell[np.flatnonzero(comp < labels) >> 3] = True
    assert rows.tobytes() == fell.tobytes()
    unfiltered = labels.copy()
    np.minimum.at(unfiltered, dst, labels[src])
    np.minimum.at(unfiltered, src, labels[dst])
    assert comp.tobytes() == unfiltered.tobytes()


@st.composite
def _bfs_shard(draw):
    """Depths around ``level`` — on it, one past it, unvisited — and a
    shard in tile form; the level includes 0 and the top of the
    ``uint32`` range, where it meets ``INF_DEPTH``."""
    inf = int(INF_DEPTH)
    level = draw(st.sampled_from([0, 1, inf - 1, inf]) | st.integers(0, 30))
    n = draw(_N)
    vals = st.sampled_from([inf, level, min(level + 1, inf), max(level - 1, 0)])
    depth = np.array(
        draw(st.lists(vals | st.integers(0, 30), min_size=n, max_size=n)),
        np.uint32,
    )
    return depth, draw(_tile_edges(n)), level


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_bfs_shard(), symmetric=st.booleans(),
       mode=st.sampled_from([None, "push", "pull"]))
def test_bfs_discovery_matches_numpy(shard, symmetric, mode):
    """One C loop over tile form for all three modes; each NumPy
    evaluation order gives the same targets in the same order, and the
    commit sets the same depths and rows and counts each vertex once."""
    depth, tiles, level = shard
    algo = _kernel(BFS(), symmetric, depth=_frozen(depth), level=level,
                   direction_optimizing=mode is not None, _pull=mode == "pull")
    got = algo.kernel_partial(_frozen_tiles(tiles))
    want = _numpy(algo.kernel_partial, tiles)
    assert got[0].dtype == want[0].dtype == np.intp
    _assert_partials_equal(got, want)
    if level >= int(INF_DEPTH):
        return  # no vertex is ever set to level + 1
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo.depth, algo._discovered = depth.copy(), 0
        algo._rows_next = _rows_of(depth.size)
        tier(algo.apply_partial, got)
        runs.append((algo.depth, algo._rows_next, algo._discovered))
    (d1, r1, c1), (d2, r2, c2) = runs
    assert np.array_equal(d1, d2) and np.array_equal(r1, r2)
    fresh = np.unique(got[0][depth[got[0]] != level + 1])
    assert c1 == c2 == fresh.size


@st.composite
def _reach_shard(draw):
    """Frontier, allowed and visited masks, and a shard in tile form."""
    n = draw(_N)
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    state = {
        name: _frozen(np.array(draw(masks), bool))
        for name in ("_frontier", "allowed", "visited")
    }
    return state, draw(_tile_edges(n))


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_reach_shard(), forward=st.booleans(), symmetric=st.booleans())
def test_reachability_discovery_matches_numpy(shard, forward, symmetric):
    state, tiles = shard
    algo = _kernel(Reachability([0], forward=forward), symmetric, **state)
    got = algo.kernel_partial(_frozen_tiles(tiles))
    want = _numpy(algo.kernel_partial, tiles)
    assert got[0].dtype == want[0].dtype == np.intp
    _assert_partials_equal(got, want)


def _global_ids(pairs, pos, counts, tile_bits, rows, cols):
    """``TiledGraph._global_ids`` of an SNB graph with this tile grid."""
    grid = SimpleNamespace(snb=True, tile_bits=tile_bits, tile_rows=rows,
                           tile_cols=cols)
    return TiledGraph._global_ids(grid, pairs, pos, counts)


@st.composite
def _payload(draw):
    """Interleaved local pairs of tiles, ``counts`` each, on a grid whose
    bases reach the top of the ``uint32`` range."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    bits = draw({np.uint8: st.integers(1, 8), np.uint16: st.integers(9, 16),
                 np.uint32: st.integers(17, 32)}[dtype])
    top = 2 ** (32 - bits) - 1
    p = draw(st.integers(1, 6))
    coords = st.lists(st.sampled_from([0, top]) | st.integers(0, top),
                      min_size=p, max_size=p)
    rows = np.array(draw(coords), np.uint32)
    cols = np.array(draw(coords), np.uint32)
    k = draw(st.integers(1, 8))
    pos = np.array(draw(st.lists(st.integers(0, p - 1), min_size=k,
                                 max_size=k)), np.int64)
    counts = np.array(draw(st.lists(st.integers(0, 12), min_size=k,
                                    max_size=k)), np.int64)
    local = st.sampled_from([0, 2**bits - 1]) | st.integers(0, 2**bits - 1)
    m = 2 * int(counts.sum())
    pairs = np.array(draw(st.lists(local, min_size=m, max_size=m)), dtype)
    return pairs, pos, counts, bits, rows, cols


@needs_tier
@settings(max_examples=100, deadline=None)
@given(payload=_payload())
def test_decode_matches_numpy(payload):
    got = _global_ids(*payload)
    want = _numpy(_global_ids, *payload)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.uint32 and g.flags.c_contiguous
        assert np.array_equal(g, w)


@needs_tier
@pytest.mark.parametrize("tile_bits", [6, 10, 17])  # uint8, 16, 32 locals
@pytest.mark.parametrize("runs", ["one", "per-tile", "pairs"])
def test_decode_runs_match_numpy(tile_bits, runs, kron_small):
    """Whole batches of merged extents, one run or many, decode to the
    same views in both tiers, and to every tile's own global IDs."""
    tg = TiledGraph.from_edge_list(kron_small, tile_bits=tile_bits)
    assert tg.payload_dtype().itemsize == {6: 1, 10: 2, 17: 4}[tile_bits]
    assert (tg.tile_rows != tg.tile_cols).any() or tile_bits == 17
    live = np.flatnonzero(tg.tile_edge_counts() > 0).tolist()
    cut = {"one": [live], "per-tile": [[p] for p in live],
           "pairs": [live[i : i + 2] for i in range(0, len(live), 2)]}[runs]
    payload = np.frombuffer(memoryview(tg.payload).cast("B"), np.uint8)
    extents = []
    for positions in cut:
        off, size = tg.start_edge.run_byte_extent(positions[0], positions[-1])
        extents.append(payload[off : off + size])
    positions = np.array(live, dtype=np.int64)
    first = np.cumsum([0] + [len(c) for c in cut])
    data = np.concatenate(extents)
    # The live tiles are one byte-adjacent run; cut it where ``cut`` does.
    _, layout = batch_extents(positions, tg)
    layout = dataclasses.replace(
        layout, run_bounds=layout.tile_bounds[first],
        run_edge_lo=tg.start_edge.start_edge[positions[first[:-1]]].astype(
            np.int64
        ),
    )
    got = tg.decode_extents(data, layout)
    want = _numpy(lambda: tg.decode_extents(data, layout))
    tiles = concat_global_edges([tg.tile_view(p) for p in live])
    for g, w, t in zip((got.gsrc, got.gdst), (want.gsrc, want.gdst), tiles):
        assert np.array_equal(g, w) and np.array_equal(g, t)
    assert np.array_equal(got.cuts, want.cuts)


@needs_tier
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("counts", [[1, 1], [2, 2], [-1, 4], [0, 0]])
def test_decode_counts_must_cover_the_payload(dtype, counts):
    """A payload of 3 pairs with per-tile counts that do not sum to 3 (or
    go negative): ``ValueError`` in both tiers, and the compiled pass
    checks before its first write."""
    pairs = np.arange(6, dtype=dtype)
    counts = np.array(counts, np.int64)
    args = (pairs, np.array([0, 1]), counts, 4,
            np.array([1, 2], np.uint32), np.array([3, 4], np.uint32))
    for tier in (lambda f, *a: f(*a), _numpy):
        with pytest.raises(ValueError, match="do not cover the payload"):
            tier(_global_ids, *args)
    out = [np.full(4, 7, np.uint32) for _ in range(2)]
    bits = 8 * pairs.itemsize
    buf = native.ffi.from_buffer
    rc = native.lib.widen(
        buf(f"uint{bits}_t[]", pairs), bits, 3,
        buf("int64_t[]", counts), buf("uint32_t[]", args[4]),
        buf("uint32_t[]", args[5]), 2, *(buf("uint32_t[]", a) for a in out),
    )
    assert rc == -1
    assert all((a == 7).all() for a in out)
    with pytest.raises(ValueError):  # an odd number of local IDs
        native.widen(TileEdges(pairs[:5], counts, args[4], args[5]))


# ---------------------------------------------------------------------- #
# The tile-form scatter at adversarial shapes (run under ASan + UBSan by
# CI's sanitizer leg): the raw entry point checks everything first
# ---------------------------------------------------------------------- #


def _raw_scatter(fwd, bwd, x, pairs, counts, sb, db):
    """``native.lib.scatter_add`` as called, its return code: 0, -1 (an
    endpoint not below ``len(fwd)``) or -2 (counts missing the payload)."""
    buf = native.ffi.from_buffer
    bits = 8 * pairs.itemsize
    return native.lib.scatter_add(
        buf("double[]", fwd, require_writable=True),
        native.ffi.NULL if bwd is None else buf("double[]", bwd,
                                                require_writable=True),
        fwd.shape[0], buf("double[]", x), buf(f"uint{bits}_t[]", pairs), bits,
        pairs.shape[0] // 2,
        buf("int64_t[]", counts), buf("uint32_t[]", sb), buf("uint32_t[]", db),
        counts.shape[0],
    )


def _u32(*values):
    return np.array(values, dtype=np.uint32)


@needs_tier
def test_scatter_of_nothing_onto_nothing():
    """``n = 0`` and ``m = 0``: no tiles, or empty tiles at any bases, add
    nothing and read nothing; one edge into no vertices is out of range."""
    none = np.zeros(0)
    empty = np.zeros(0, np.uint8)
    assert _raw_scatter(none, none, none, empty, np.zeros(0, np.int64),
                        _u32(), _u32()) == 0
    assert _raw_scatter(none, None, none, empty, np.zeros(3, np.int64),
                        _u32(0, 2**31, 2**32 - 1), _u32(0, 2**31, 2**32 - 1)) == 0
    assert _raw_scatter(none, None, none, np.zeros(2, np.uint8),
                        np.ones(1, np.int64), _u32(0), _u32(0)) == -1


@needs_tier
@pytest.mark.parametrize("counts", [
    [-1, 4], [4, -1], [2, 2], [1, 1],
    [2**62, 2**62, 2**62, 2**62 + 3],   # sums past int64
    [2**63 - 1, 2**63 - 1],
    [3, 2**63 - 1, -(2**63 - 1)],       # back to 3 only by overflowing
])
def test_scatter_counts_must_cover_the_payload(counts):
    counts = np.array(counts, np.int64)
    k = counts.shape[0]
    fwd, bwd = np.arange(8.0), np.arange(8.0)
    rc = _raw_scatter(fwd, bwd, np.ones(8), np.arange(6, dtype=np.uint16),
                      counts, np.zeros(k, np.uint32), np.zeros(k, np.uint32))
    assert rc == -2
    assert np.array_equal(fwd, np.arange(8.0)) and np.array_equal(bwd, fwd)


@needs_tier
@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("side", ["src", "dst", "both"])
@pytest.mark.parametrize("base, ok", [
    (10 - 255, True),          # base + local lands on |V| - 1 (11 vertices)
    (11 - 255, False),         # ... on |V|
    (2**32 - 256, False),      # ... on 2**32 - 1
    (2**32 - 255 + 10, True),  # wraps past 2**32 onto |V| - 1
    (2**32 - 255 + 11, False), # wraps past 2**32 onto |V|
])
def test_scatter_checks_widened_endpoints(bits, side, base, ok):
    """Tile 1 holds one edge whose locals are 255, under bases that put
    the ``side`` endpoint where the case names (the other on |V| - 1); a
    bad one writes nothing, and the good ones add where they widen to."""
    pairs = np.array([0, 1, 255, 255], dtype=np.dtype(f"uint{bits}"))
    good = _u32(0, 10 - 255 + 2**32)
    bad = _u32(0, base % 2**32)
    sb = bad if side in ("src", "both") else good
    db = bad if side in ("dst", "both") else good
    x = np.arange(1.0, 12.0)
    fwd, bwd = np.zeros(11), np.zeros(11)
    rc = _raw_scatter(fwd, bwd, x, pairs, np.array([1, 1], np.int64), sb, db)
    if not ok:
        assert rc == -1 and not fwd.any() and not bwd.any()
        return
    assert rc == 0
    assert fwd.tolist() == [0.0, 1.0] + [0.0] * 8 + [11.0]
    assert bwd.tolist() == [2.0] + [0.0] * 9 + [11.0]


@needs_tier
@pytest.mark.parametrize("bits", [8, 16, 32])
def test_scatter_on_two_threads_matches_serial(bits):
    """The call releases the GIL: two threads adding the same tile-form
    batch into disjoint accumulators at once get the serial bits."""
    rng = np.random.default_rng(bits)
    n, k, per = 50_000, 64, 4_000
    top = min(2**bits, n) - 1
    pairs = rng.integers(0, top + 1, 2 * k * per).astype(f"uint{bits}")
    counts = np.full(k, per, np.int64)
    sb = (rng.integers(0, n - top, k)).astype(np.uint32)
    db = (rng.integers(0, n - top, k)).astype(np.uint32)
    x = rng.standard_normal(n)
    start = rng.standard_normal(n) * 1e6

    tiles = TileEdges(pairs, counts, sb, db)

    def run(acc, back):
        for _ in range(4):
            native.scatter_add(acc, x, tiles, back)

    serial = [start.copy() for _ in range(2)]
    run(serial[0], serial[0])
    run(serial[1], None)
    pair = [start.copy() for _ in range(2)]
    threads = [threading.Thread(target=run, args=(pair[0], pair[0])),
               threading.Thread(target=run, args=(pair[1], None))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [a.tobytes() for a in pair] == [a.tobytes() for a in serial]


# ---------------------------------------------------------------------- #
# The tile-form traversal kernels at adversarial shapes (run under ASan +
# UBSan by CI's sanitizer leg): a call either raises the wrapper's typed
# error with the state and outputs untouched, or equals the NumPy oracle
# ---------------------------------------------------------------------- #


@st.composite
def _hostile_tiles(draw):
    """``(n, tiles, error)``: a batch in tile form as a corrupt file or a
    wrong caller could hand it over — no vertices, no edges, counts that
    are ragged or reach the payload only by overflowing int64, bases
    shorter than the counts, and bases that widen endpoints onto |V| - 1,
    |V| and 2**32 - 1, directly or by wrapping — and the error it must
    raise (``None``: every endpoint is below ``n``)."""
    n = draw(st.integers(0, 24) | st.sampled_from([300, 70_000]))
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    top = int(np.iinfo(dtype).max)
    m = draw(st.integers(0, 10))
    local = st.sampled_from([0, 1, top]) | st.integers(0, top)
    pairs = draw(st.lists(local, min_size=2 * m, max_size=2 * m))
    shape = draw(st.sampled_from(["cover"] * 4 + ["ragged", "overflow",
                                                  "short bases"]))
    k = draw(st.integers(1 if m else 0, 4))
    if shape == "overflow":
        counts = [2**62, 2**62, 2**62, 2**62 + m]
        k = 4
    elif shape == "ragged":
        counts = draw(st.lists(st.integers(-2, m + 2), min_size=k, max_size=k))
    else:
        cuts = sorted(draw(st.lists(st.integers(0, m), min_size=max(k - 1, 0),
                                    max_size=max(k - 1, 0))))
        counts = np.diff([0, *cuts, m]).tolist() if k else []
    near = [0, max(n - 1, 0), n, 2**32 - 1, (n - 1 - top) % 2**32,
            (n - top) % 2**32]
    base = st.sampled_from(near) | st.integers(0, 2**32 - 1)
    if draw(st.booleans()):  # bases under which every local fits
        base = st.integers(0, max(n - 1 - top, 0))
    sb = draw(st.lists(base, min_size=k, max_size=k))
    db = draw(st.lists(base, min_size=k, max_size=k))
    if shape == "short bases" and k:
        sb = sb[:-1]
    tiles = TileEdges(np.array(pairs, dtype), np.array(counts, np.int64),
                      np.array(sb, np.uint32), np.array(db, np.uint32))
    if len(sb) != k or min(counts, default=0) < 0 or sum(counts) != m:
        return n, tiles, ValueError
    ends = [(b + p) % 2**32
            for j, c in enumerate(counts)
            for e in range(sum(counts[:j]), sum(counts[:j]) + c)
            for b, p in ((sb[j], pairs[2 * e]), (db[j], pairs[2 * e + 1]))]
    return n, tiles, IndexError if any(v >= n for v in ends) else None


def _untouched(call, error, *arrays):
    """``call()`` raises ``error`` and leaves every array as it was."""
    before = [a.copy() for a in arrays]
    with pytest.raises(error):
        call()
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()


@needs_tier
@settings(max_examples=200, deadline=None)
@given(case=_hostile_tiles(), symmetric=st.booleans(), data=st.data())
def test_fuzz_discover_bfs(case, symmetric, data):
    n, tiles, error = case
    level = data.draw(st.sampled_from([0, 1, int(INF_DEPTH) - 1]))
    choice = np.array([level, level + 1, int(INF_DEPTH)], np.uint32)
    depth = choice[np.random.default_rng(level + n).integers(0, 3, n)]
    if error:
        return _untouched(
            lambda: native.discover_bfs(depth, tiles, symmetric, level),
            error, depth)
    algo = _kernel(BFS(), symmetric, depth=depth, level=level)
    _assert_partials_equal(algo.kernel_partial(tiles),
                           _numpy(algo.kernel_partial, tiles))


@needs_tier
@settings(max_examples=200, deadline=None)
@given(case=_hostile_tiles(), symmetric=st.booleans(), forward=st.booleans(),
       data=st.data())
def test_fuzz_discover_reach(case, symmetric, forward, data):
    n, tiles, error = case
    masks = {name: _mask(data, n)
             for name in ("_frontier", "allowed", "visited")}
    if error:
        return _untouched(
            lambda: native.discover_reach(
                masks["_frontier"], masks["allowed"], masks["visited"],
                tiles, symmetric, not forward),
            error, *masks.values())
    algo = _kernel(Reachability([0], forward=forward), symmetric, **masks)
    _assert_partials_equal(algo.kernel_partial(tiles),
                           _numpy(algo.kernel_partial, tiles))


def _state(data, n, dtype):
    """``n`` distances or depths, a third of them unreached."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if dtype == np.float64:
        vals = rng.uniform(0, 50, n).astype(np.float32).astype(np.float64)
        return np.where(rng.random(n) < 1 / 3, np.inf, vals)
    vals = rng.integers(0, 21, n)
    return np.where(rng.random(n) < 1 / 3, int(INF_DEPTH), vals)


def _mask(data, n):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))


def _rounds_oracle(state, tiles, symmetric, rows, tile_bits, n_rounds, w=None):
    """The NumPy relaxation passes and commits of ``native.rounds``, every
    pass over every edge: SSSP's body over ``float64`` state, AsyncBFS's
    over ``int64``; the passes run."""
    gsrc, gdst = _numpy(tiles.widen)
    if state.dtype == np.float64 and w is None:
        w = edge_weights(gsrc, gdst)
    gsrc, gdst = gather_ids(gsrc, gdst)
    passes = 0
    while tiles.n_edges and n_rounds != 0:
        ds, dd = state[gsrc], state[gdst]
        step = w if state.dtype == np.float64 else 1
        cand, back = ds + step, dd + step
        better, mirror = cand < dd, back < ds
        idx, vals = gdst[better], cand[better]
        if symmetric:
            idx = np.concatenate([idx, gsrc[mirror]])
            vals = np.concatenate([vals, back[mirror]])
        passes += 1
        n_rounds -= 1
        np.minimum.at(state, idx, vals)
        rows[idx >> tile_bits] = True
        if not idx.size:
            break
    return passes


@needs_tier
@settings(max_examples=200, deadline=None)
@given(case=_hostile_tiles(), symmetric=st.booleans(),
       dtype=st.sampled_from([np.float64, np.int64]), stored=st.booleans(),
       n_rounds=st.sampled_from([0, 1, 2, -1]), short_rows=st.booleans(),
       stale=st.booleans(), tile_bits=st.integers(0, 5), data=st.data())
def test_fuzz_rounds(case, symmetric, dtype, stored, n_rounds, short_rows,
                     stale, tile_bits, data):
    """The live relaxation: state and rows and the passes run equal the
    NumPy passes' over every edge (each pass after the first relaxes
    only what the commit before it touched), or, for a hostile batch or
    rows one row too short, the typed error with nothing written.  A mark
    left set in the scratch (``stale``) only widens the passes, and every
    mark the call sets it clears."""
    n, tiles, error = case
    state = _state(data, n, dtype)
    w = None
    if stored and dtype == np.float64:
        w = np.linspace(0.5, 9.5, tiles.n_edges).astype(np.float32)
    rows = _rows_of(n, tile_bits) if n else np.zeros(1, bool)
    if short_rows and n:
        rows = rows[:-1]
        error = (error, ValueError) if error else ValueError
    held = native.Held()
    marks = held.marks(n)
    if stale and n:
        marks[n // 2] = 1
    if error:
        return _untouched(
            lambda: native.rounds(state, tiles, symmetric, n_rounds, w, rows,
                                  tile_bits, held),
            error, state, rows)
    want = (state.copy(), rows.copy())
    passes = native.rounds(state, tiles, symmetric, n_rounds, w, rows,
                           tile_bits, held)
    assert passes == _rounds_oracle(want[0], tiles, symmetric, want[1],
                                    tile_bits, n_rounds, w)
    for got, exp in zip((state, rows), want):
        assert got.tobytes() == exp.tobytes()
    left = bytes(native.ffi.buffer(marks))
    assert not any(left[: n // 2] + left[n // 2 + 1 :])


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.float64) | _shard(np.int64), symmetric=st.booleans(),
       n_rounds=st.sampled_from([1, 2, -1]), tile_bits=st.integers(0, 3))
def test_rounds_marks_the_rows_of_what_fell(shard, symmetric, n_rounds,
                                            tile_bits):
    """With no per-vertex flags to keep, the rows are the whole record of
    what moved: after any number of passes, on both tiers, a row is
    marked exactly where some vertex's state fell."""
    state, tiles = shard
    got, rows = state.copy(), _rows_of(state.size, tile_bits)
    native.rounds(got, tiles, symmetric, n_rounds, None, rows, tile_bits)
    want, want_rows = state.copy(), _rows_of(state.size, tile_bits)
    _rounds_oracle(want, tiles, symmetric, want_rows, tile_bits, n_rounds)
    assert got.tobytes() == want.tobytes()
    assert rows.tobytes() == want_rows.tobytes()
    fell = _rows_of(state.size, tile_bits)
    fell[np.flatnonzero(got < state) >> tile_bits] = True
    assert rows.tobytes() == fell.tobytes()


@needs_tier
@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 24), level=st.sampled_from([1, 5, int(INF_DEPTH) - 1]),
       bad=st.sampled_from([None, "n", "-1", "2**63-1"]),
       short_rows=st.booleans(), tile_bits=st.integers(0, 5), data=st.data())
def test_fuzz_commit_level(n, level, bad, short_rows, tile_bits, data):
    """BFS's commit: an index out of range (``n``, negative, the top of
    int64) or rows one row too short change nothing; else depths, rows and
    the count of moved vertices equal the NumPy body's."""
    depth = np.array(data.draw(st.lists(
        st.sampled_from([level, int(INF_DEPTH)]) | st.integers(0, 9),
        min_size=n, max_size=n)), np.uint32)
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
    if bad is not None:
        at = data.draw(st.integers(0, len(idx)))
        idx.insert(at, {"n": n, "-1": -1, "2**63-1": 2**63 - 1}[bad])
    idx = np.array(idx, np.int64)
    rows = _rows_of(n, tile_bits) if n else np.zeros(1, bool)
    error = IndexError if ((idx < 0) | (idx >= n)).any() else None
    if short_rows and n:
        rows = rows[:-1]
        error = (error, ValueError) if error else ValueError
    if error:
        return _untouched(
            lambda: native.commit_level(depth, idx, level, rows, tile_bits),
            error, depth, rows)
    want, want_rows = depth.copy(), rows.copy()
    got = native.commit_level(depth, idx, level, rows, tile_bits)
    assert got == bfs_module._set_level(want, idx, np.uint32(level),
                                        want_rows, tile_bits)
    assert depth.tobytes() == want.tobytes()
    assert rows.tobytes() == want_rows.tobytes()


def _big_tiles(seed: int, n: int, bits: int, k: int = 64, per: int = 2_000):
    rng = np.random.default_rng(seed)
    top = min(2**bits, n) - 1
    return TileEdges(
        rng.integers(0, top + 1, 2 * k * per).astype(f"uint{bits}"),
        np.full(k, per, np.int64),
        rng.integers(0, n - top, k).astype(np.uint32),
        rng.integers(0, n - top, k).astype(np.uint32),
    )


@needs_tier
@pytest.mark.parametrize("kernel", ["discover_bfs", "discover_reach",
                                    "rounds", "commit_level"])
def test_tile_kernels_on_two_threads_match_serial(kernel):
    """Each call releases the GIL: two threads running one entry point
    over the same tile-form batches into disjoint states and outputs at
    once get the serial bits."""
    n = 50_000
    rng = np.random.default_rng(7)
    tiles = [_big_tiles(s, n, bits) for s, bits in enumerate((8, 16, 32))]
    depth0 = np.where(rng.random(n) < 0.1, 3, INF_DEPTH).astype(np.uint32)
    mask = rng.random(n) < 0.3
    dist0 = np.where(rng.random(n) < 0.05, rng.random(n) * 20, np.inf)

    def state():
        return {"depth": depth0.copy(), "dist": dist0.copy(),
                "hops": np.where(mask, 0, int(INF_DEPTH)).astype(np.int64),
                "rows": _rows_of(n, 9)}

    def run(st_, out):
        for t in tiles:
            if kernel == "discover_bfs":
                out.append(native.discover_bfs(st_["depth"], t, True, 3))
            elif kernel == "discover_reach":
                out.append(native.discover_reach(mask, ~mask, mask, t, True))
            elif kernel == "rounds":
                native.rounds(st_["dist"], t, True, 2, rows=st_["rows"],
                              tile_bits=9)
                native.rounds(st_["hops"], t, True, -1, rows=st_["rows"],
                              tile_bits=9)
            else:
                targets = native.discover_bfs(st_["depth"], t, True, 3)
                out.append(np.array([native.commit_level(
                    st_["depth"], targets, 4, st_["rows"], 9)]))
        out.extend(st_.values())

    serial = []
    run(state(), serial)
    pair = [[], []]
    threads = [threading.Thread(target=run, args=(state(), out))
               for out in pair]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in pair:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in serial]


@st.composite
def _undirected_lists(draw):
    """A small undirected edge list with what the encoder has to get
    right — loops, repeats, both orientations — at a tile width from one
    bit to a whole 32-bit tile (one tile, whose keys have no position
    bits), and how to store it: ``(el, tile_bits, snb)``."""
    n = draw(st.integers(1, 300))
    tile_bits = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 400))
    src = rng.integers(0, n, m).astype(np.uint32)
    dst = np.where(rng.random(m) < 0.1, src, rng.integers(0, n, m)).astype(np.uint32)
    flip = rng.random(m) < 0.3  # some repeats, half of them reversed
    src = np.concatenate([src, np.where(flip, dst, src)[: m // 4]])
    dst = np.concatenate([dst, np.where(flip, src[:m], dst)[: m // 4]])
    weights = None
    if draw(st.booleans()):
        weights = rng.permutation(src.shape[0]).astype(np.float32)
    el = EdgeList(src, dst, n, directed=False, weights=weights)
    return el, tile_bits, draw(st.booleans())


@needs_tier
@settings(max_examples=150, deadline=None)
@given(case=_undirected_lists())
def test_encode_matches_numpy(case):
    """The symmetric encoder's two C passes give the NumPy body's
    payload, start-edge offsets, degrees and weights, byte for byte."""
    el, tile_bits, snb = case

    def encode():
        tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=2,
                                       snb=snb)
        return (tg.payload, tg.start_edge.start_edge, tg.out_degrees,
                tg.in_degrees, tg.edge_weights)

    for got, want in zip(encode(), _numpy(encode)):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@needs_tier
@settings(max_examples=100, deadline=None)
@given(case=_undirected_lists(), directed=st.booleans())
def test_encode_by_position_matches_numpy(case, directed):
    """The counting sort by position (directed inputs and the
    ``symmetric=False`` ablation) gives the NumPy body's stable argsort
    byte for byte, weights included."""
    el, tile_bits, snb = case
    el = EdgeList(el.src, el.dst, el.n_vertices, directed=directed,
                  weights=el.weights)

    def encode():
        tg = TiledGraph.from_edge_list(
            el, tile_bits=tile_bits, group_q=2, snb=snb,
            symmetric=None if directed else False,
        )
        return tg.payload, tg.start_edge.start_edge, tg.edge_weights

    for got, want in zip(encode(), _numpy(encode)):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _sentinels(*specs):
    """Arrays of 7s, one per ``(length, dtype)``: outputs an encoder that
    fails must leave as they are."""
    return [np.full(n, 7, dtype) for n, dtype in specs]


def _raw_bucket_upper(src, dst, n, grid, n_tiles, tile_bits, w):
    """``lib.bucket_upper`` on sentinel outputs: ``(rc, outputs)``."""
    buf = native.ffi.from_buffer
    m = src.shape[0]
    shift, nb = native.key_buckets(n_tiles, tile_bits)
    word = native.word_dtype(shift)
    outs = _sentinels((m, word), (m, np.uint8), (m, np.float32), (m, word),
                      (m, np.float32), (nb + 1, np.int64))
    tmp, bid, w_tmp, words, w_out, off = outs
    weighted = w is not None
    rc = native.lib.bucket_upper(
        buf("uint32_t[]", src), buf("uint32_t[]", dst), m, n,
        buf("int64_t[]", grid), grid.shape[0], n_tiles, tile_bits, shift, nb,
        buf("float[]", w) if weighted else native.ffi.NULL, buf(tmp),
        buf("uint8_t[]", bid),
        buf("float[]", w_tmp) if weighted else native.ffi.NULL,
        buf(words), buf("float[]", w_out) if weighted else native.ffi.NULL,
        buf("int64_t[]", off),
    )
    return rc, outs


def _raw_by_position(src, dst, n, grid, n_tiles, tile_bits, dt, snb, w):
    """``lib.by_position`` on sentinel outputs: ``(rc, outputs)``."""
    buf = native.ffi.from_buffer
    m = src.shape[0]
    outs = _sentinels((m, np.uint32), (n_tiles + 1, np.int64), (2 * m, dt),
                      (m, np.float32))
    pos, start, payload, w_out = outs
    weighted = w is not None
    rc = native.lib.by_position(
        buf("uint32_t[]", src), buf("uint32_t[]", dst), m, n,
        buf("int64_t[]", grid), grid.shape[0], n_tiles, tile_bits, snb,
        8 * np.dtype(dt).itemsize,
        buf("float[]", w) if weighted else native.ffi.NULL,
        buf("uint32_t[]", pos), buf("int64_t[]", start), buf(payload),
        buf("float[]", w_out) if weighted else native.ffi.NULL,
    )
    return rc, outs


@needs_tier
def test_encode_checks_before_writing():
    """Every encoder pass checks its whole input before its first write,
    and the wrappers raise typed: an endpoint not below ``n_vertices``
    (named), a grid position outside the tiles, words out of order or
    decoding past the last vertex."""
    n, tile_bits = 9, 2  # a 3 x 3 grid whose last row and column are ragged
    src = np.array([1, 2, 3], np.uint32)
    for upper in (True, False):
        grouping = PhysicalGrouping(p=3, q=2, symmetric=upper)
        grid = grouping.position_grid()
        n_tiles = grouping.n_tiles
        bad_grid = np.where(grid == grid[1, 2], n_tiles, grid)
        for dst, g in (([2, 3, 9], grid), ([2, 3, 8], bad_grid)):
            dst = np.array(dst, np.uint32)
            if upper:
                rc, outs = _raw_bucket_upper(src, dst, n, g, n_tiles,
                                             tile_bits, None)
            else:
                rc, outs = _raw_by_position(src, dst, n, g, n_tiles,
                                            tile_bits, np.uint8, True, None)
            assert rc == -1 and all((a == 7).all() for a in outs)
        encode = native.bucket_upper if upper else functools.partial(
            native.by_position, dtype=np.uint8, snb=True)
        with pytest.raises(FormatError,
                           match="endpoint 9 is not below n_vertices 9"):
            encode(src, np.array([2, 3, 9], np.uint32), n, grid, n_tiles,
                   tile_bits)
        with pytest.raises(FormatError, match="position grid"):
            encode(src, np.array([2, 3, 8], np.uint32), n, bad_grid, n_tiles,
                   tile_bits)
    grouping = PhysicalGrouping(p=3, q=2, symmetric=True)
    grid = grouping.position_grid()
    rows, cols = grouping.tile_coords
    n_tiles = grouping.n_tiles
    shift, nb = native.key_buckets(n_tiles, tile_bits)
    last = int(grid[2, 2])  # tile (2, 2): global IDs 8..11 of 9 vertices
    for keys in ([5, 3], [n_tiles << 4], [last << 4 | 0 << 2 | 1]):
        words = np.array(keys, np.uint32)  # one bucket, shift 32
        offsets = np.array([0, words.shape[0]], np.int64)
        with pytest.raises(ValueError, match="do not ascend in their buckets"):
            native.unpack_buckets(words, offsets, shift, rows, cols,
                                  tile_bits, n, np.uint8, True)
        _assert_unpack_untouched(words, offsets, shift, rows, cols, tile_bits,
                                 n, np.uint8, None, 1)
    good = np.array([last << 4 | 0 << 2 | 0], np.uint32)  # the edge (8, 8)
    start, payload, deg, w = native.unpack_buckets(
        good, np.array([0, 1], np.int64), shift, rows, cols, tile_bits, n,
        np.uint8, True)
    assert start.tolist() == [0] * (last + 1) + [1] * (n_tiles - last)
    assert payload.tolist() == [0, 0] and deg.tolist() == [0] * 8 + [2]
    assert w is None


def _assert_unpack_untouched(words, offsets, shift, rows, cols, tile_bits, n,
                             dt, w, d):
    """``lib.unpack_buckets`` returns -1 on these words, counting or
    writing ``d`` keys, and leaves its sentinel outputs as they were."""
    buf = native.ffi.from_buffer
    weighted = w is not None
    args = (buf(words), words.shape[0], buf("int64_t[]", offsets),
            offsets.shape[0] - 1, shift, tile_bits, buf("int64_t[]", rows),
            buf("int64_t[]", cols), rows.shape[0], n, 1,
            8 * np.dtype(dt).itemsize,
            buf("float[]", w) if weighted else native.ffi.NULL)
    null = native.ffi.NULL
    assert native.lib.unpack_buckets(*args, 0, null, null, null, null) == -1
    outs = _sentinels((2 * d, dt), (rows.shape[0] + 1, np.int64),
                      (n, np.uint32), (d, np.float32))
    payload, start, deg, w_out = outs
    rc = native.lib.unpack_buckets(
        *args, d, buf(payload), buf("int64_t[]", start),
        buf("uint32_t[]", deg), buf("float[]", w_out) if weighted else null)
    assert rc == -1 and all((a == 7).all() for a in outs)


# ---------------------------------------------------------------------- #
# The tile encoders at adversarial shapes (run under ASan + UBSan by CI's
# sanitizer leg): a call either raises the wrapper's typed error with its
# outputs untouched, or equals the NumPy oracle
# ---------------------------------------------------------------------- #


@st.composite
def _hostile_edges(draw, upper=None, clean=False):
    """An edge list as a corrupt file or a wrong caller could hand it to an
    encoder: ``(src, dst, n, tile_bits, grouping, grid, weights, error)``.
    No edges, only repeats (both orientations) or only loops; endpoints at
    |V| - 1, |V| and 2**32 - 1; a grid entry outside ``[0, n_tiles)``, on
    (``error``) or off the cells the edges can name; one tile whose keys
    are all 2·``tile_bits`` = 64 in-tile bits; distinct weights, so which
    repeat's survived shows.  ``error`` is ``FormatError`` or ``None``;
    ``upper`` fixes the grid's kind, and ``clean`` leaves out every
    fault."""
    upper = draw(st.booleans()) if upper is None else upper
    tile_bits = draw(st.sampled_from([1, 2, 3, 5, 8, 32]))
    n = draw(st.integers(1, 40) | st.sampled_from([300, 1027]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 60))
    shape = draw(st.sampled_from(["random"] * 3 +
                                 ["repeats", "loops", "empty"]))
    src = rng.integers(0, n, m).astype(np.uint32)
    dst = rng.integers(0, n, m).astype(np.uint32)
    if shape == "empty":
        src, dst = src[:0], dst[:0]
    elif shape == "repeats":
        a, b = src[:1].repeat(m), dst[:1].repeat(m)
        flip = rng.random(m) < 0.5
        src, dst = np.where(flip, b, a), np.where(flip, a, b)
    elif shape == "loops":
        dst = src.copy()
    m = src.shape[0]
    error = None
    if m and not clean and draw(st.booleans()):
        side = src if draw(st.booleans()) else dst
        side[draw(st.integers(0, m - 1))] = draw(
            st.sampled_from([n - 1, n, 2**32 - 1]))
        if (side >= n).any():
            error = FormatError
    grouping = PhysicalGrouping(p=ceil_div(n, 1 << tile_bits),
                                q=draw(st.integers(1, 3)), symmetric=upper)
    grid = grouping.position_grid().copy()
    if not clean and draw(st.booleans()):
        p = grid.shape[0]
        r, c = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        grid[r, c] = draw(st.sampled_from([-1, grouping.n_tiles, 2**40]))
        if not upper or r <= c:  # an upper grid's lower cells are never read
            error = FormatError
    weights = None
    if draw(st.booleans()):
        weights = rng.permutation(m).astype(np.float32)
    return src, dst, n, tile_bits, grouping, grid, weights, error


#: One tile of 32-bit in-tile IDs: keys of 2·tile_bits = 64 in-tile bits
#: and no position bits, 256 buckets of uint64 words.
_ONE_TILE = (np.array([0, 1, 4], np.uint32), np.array([4, 3, 0], np.uint32),
             5, 32, PhysicalGrouping(p=1, q=1, symmetric=True),
             PhysicalGrouping(p=1, q=1, symmetric=True).position_grid(),
             None, None)


def _assert_same(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@needs_tier
@settings(max_examples=300, deadline=None)
@given(case=_hostile_edges(), snb=st.booleans())
@example(case=_ONE_TILE, snb=False)
def test_fuzz_encoders(case, snb):
    src, dst, n, tile_bits, grouping, grid, weights, error = case
    upper = grouping.symmetric
    n_tiles = grouping.n_tiles
    dt = local_dtype(tile_bits) if snb else np.dtype(np.uint32)
    event(f"{'upper' if upper else 'by position'}: {error and error.__name__}")
    if error:
        if upper:
            rc, outs = _raw_bucket_upper(src, dst, n, grid, n_tiles, tile_bits,
                                         weights)
            call = lambda: native.bucket_upper(src, dst, n, grid, n_tiles,
                                               tile_bits, weights)
        else:
            rc, outs = _raw_by_position(src, dst, n, grid, n_tiles, tile_bits,
                                        dt, snb, weights)
            call = lambda: native.by_position(src, dst, n, grid, n_tiles,
                                              tile_bits, dt, snb, weights)
        assert rc == -1 and all((a == 7).all() for a in outs)
        with pytest.raises(error):
            call()
        return
    el = EdgeList(src, dst, n, directed=not upper, weights=weights)
    if upper:
        rows, cols = grouping.tile_coords
        args = (el, grid, rows, cols, tile_bits, dt, snb)
        _assert_same(tiles_module._encode_upper_triangle(*args),
                     _numpy(tiles_module._encode_upper_triangle, *args))
    else:
        args = (el, grid, n_tiles, tile_bits, dt, snb)
        _assert_same(tiles_module._encode_by_position(*args),
                     _numpy(tiles_module._encode_by_position, *args))


@needs_tier
@pytest.mark.parametrize("tile_bits", [1, 32])
def test_repeats_keep_the_first_weight(tile_bits):
    """Of an undirected edge given three times, both ways round, the first
    in input order keeps its weight, on both tiers."""
    el = EdgeList(np.array([1, 2, 1, 0], np.uint32),
                  np.array([2, 1, 2, 3], np.uint32), 4, directed=False,
                  weights=np.array([5, 3, 9, 7], np.float32))
    encode = functools.partial(TiledGraph.from_edge_list, el,
                               tile_bits=tile_bits, group_q=1)
    for tg in (encode(), _numpy(encode)):
        assert sorted(tg.edge_weights.tolist()) == [5.0, 7.0]


def _keys_of(words, offsets, shift):
    """The keys of sorted buckets, as Python ints."""
    return [b << shift | int(x)
            for b in range(offsets.shape[0] - 1)
            for x in words[offsets[b]:offsets[b + 1]]]


def _buckets_of(keys, shift, nb):
    """Words and offsets holding ``keys``, in the order given."""
    bucket = np.array([k >> shift for k in keys], np.int64)
    words = np.array([k & ((1 << shift) - 1) for k in keys],
                     native.word_dtype(shift))
    offsets = np.zeros(nb + 1, np.int64)
    np.cumsum(np.bincount(bucket, minlength=nb)[:nb], out=offsets[1:])
    return words, offsets


@needs_tier
@settings(max_examples=500, deadline=None)
@given(case=_hostile_edges(upper=True, clean=True), fault=st.sampled_from(
    [None, "swap", "high bits", "offsets fall", "offsets short",
     "past the tiles", "past the vertices"]))
@example(case=_ONE_TILE, fault="high bits")
def test_fuzz_unpack_buckets(case, fault):
    """Sorted buckets with one fault handed to the unpack: non-ascending
    words, a word above its bucket's bits, offsets that fall or stop
    short, a key of a tile past the last, a key of a ragged tile IDs past
    the last vertex.  Each raises ``ValueError`` before anything is
    written; without a fault, the unpack is the NumPy body's."""
    src, dst, n, tile_bits, grouping, grid, weights, _ = case
    rows, cols = grouping.tile_coords
    n_tiles = grouping.n_tiles
    dt = local_dtype(tile_bits)
    words, offsets, shift, w = native.bucket_upper(
        src, dst, n, grid, n_tiles, tile_bits, weights)
    tiles_module._sort_buckets(words, offsets, w)
    nb = offsets.shape[0] - 1
    keys = _keys_of(words, offsets, shift)
    words, offsets = words.copy(), offsets.copy()
    if fault == "swap" and len(set(keys)) > 1:
        b = int(np.argmax(np.diff(offsets)))
        a, z = offsets[b], offsets[b + 1] - 1
        words[a], words[z] = words[z], words[a]
    elif fault == "high bits" and shift > 32 and keys:
        words[0] |= np.uint64(1 << shift)
    elif fault == "offsets fall":
        if nb > 1:
            offsets[1] = offsets[2] + 1
        else:
            offsets[0] = 1
    elif fault == "offsets short":
        offsets[-1] += 1 if not keys else -1
    elif fault == "past the tiles" and (
        n_tiles << 2 * tile_bits) >> shift < nb:
        words, offsets = _buckets_of(keys + [n_tiles << 2 * tile_bits],
                                     shift, nb)
        w = None if w is None else np.append(w, np.float32(1))
    elif fault == "past the vertices" and n % (1 << tile_bits):
        mask = (1 << tile_bits) - 1
        last = int(grid[-1, -1]) << 2 * tile_bits | mask << tile_bits | mask
        words, offsets = _buckets_of(sorted(keys + [last]), shift, nb)
        w = None if w is None else np.append(w, np.float32(1))
    else:
        fault = None
    event(str(fault))
    if not fault:
        el = EdgeList(src, dst, n, directed=False, weights=weights)
        _assert_same(
            native.unpack_buckets(words, offsets, shift, rows, cols,
                                  tile_bits, n, dt, True, w),
            _numpy(tiles_module._encode_upper_triangle, el, grid, rows, cols,
                   tile_bits, dt, True),
        )
        return
    with pytest.raises(ValueError, match="do not ascend in their buckets"):
        native.unpack_buckets(words, offsets, shift, rows, cols, tile_bits, n,
                              dt, True, w)
    _assert_unpack_untouched(words, offsets, shift, rows, cols, tile_bits, n,
                             dt, w, max(len(set(keys)), 1))


@pytest.fixture(scope="module")
def every_id_state(tmp_path_factory):
    """A writable all-zero ``float64`` state over every ``uint32`` ID that
    costs only the pages written: a shared mapping of a sparse 32 GiB file
    (an anonymous one that size would be refused its commit charge)."""
    path = tmp_path_factory.mktemp("state") / "dist.f64"
    with open(path, "wb") as fh:
        fh.truncate(8 * 2**32)
    with open(path, "r+b") as fh:
        mm = mmap.mmap(fh.fileno(), 0)
    yield np.frombuffer(mm, dtype=np.float64)


_MAX_ID = 2**32 - 1
_IDS = st.one_of(
    st.sampled_from([0, 1, 7, 15, 16, _MAX_ID - 1, _MAX_ID]),
    st.integers(0, _MAX_ID),
)


@needs_tier
@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_IDS, _IDS), max_size=40))
@example(pairs=[(0, 1), (0, _MAX_ID), (_MAX_ID, 0), (9, 9)])
def test_inline_hash_matches_edge_weights(pairs, every_id_state):
    """Over the whole ``uint32`` ID range, both stored orientations: the
    state spans every ID, so no endpoint is out of range, and each edge
    runs alone from a source at 0 to an unreached target, so one pass
    commits its hashed weight there (a loop offers none)."""
    dist = every_id_state
    for a, b in pairs:
        for s, t in ((a, b), (b, a)):
            dist[t] = np.inf
            dist[s] = 0.0
            native.rounds(dist, TileEdges.of_ids(_u32(s), _u32(t)), False, 1)
            got, dist[t] = dist[t], 0.0
            assert got == (0.0 if s == t else edge_weights(_u32(s), _u32(t))[0])


# ---------------------------------------------------------------------- #
# The tier forced off gives the same bits end to end
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def weighted_edges():
    rng = np.random.default_rng(31)
    v = 300
    src = rng.integers(0, v, 1500).astype(np.uint32)
    dst = rng.integers(0, v, 1500).astype(np.uint32)
    canon = EdgeList(src, dst, v, directed=False, name="w").canonicalized()
    w = rng.uniform(0.5, 10.0, canon.n_edges).astype(np.float32)
    return EdgeList(canon.src, canon.dst, v, directed=False, name="w", weights=w)


#: Per graph: the edge-list fixture it is built from, and how.
_GRAPHS = {
    "tiled_undirected": ("small_undirected", dict(tile_bits=7, group_q=2)),
    "tiled_directed": ("small_directed", dict(tile_bits=7, group_q=2)),
    "weighted_tiled": ("weighted_edges", dict(tile_bits=6)),
}


def _saved_digests(tg: TiledGraph, directory) -> dict:
    """sha256 of every file ``save`` writes and of every array in the aux
    file (whose zip container stamps the time)."""
    tg.save(directory)
    out = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as aux:
                for key in aux.files:
                    a = aux[key]
                    out[key] = (a.dtype.str, hashlib.sha256(a.tobytes()).hexdigest())
        else:
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


_ALGORITHMS = {
    "sssp": lambda: SSSP(root=0),
    "async_bfs": lambda: AsyncBFS(root=0),
    "cc": ConnectedComponents,
    "bfs": lambda: BFS(root=0),
    "bfs-direction-optimizing": lambda: BFS(root=0, direction_optimizing=True),
    "reachability": lambda: Reachability([0, 7]),
    "pagerank": lambda: PageRank(max_iterations=5),
    "spmv": lambda: SpMV(iterations=3),
}


@needs_tier
@pytest.mark.parametrize("selective", [True, False])
@pytest.mark.parametrize("graph", sorted(_GRAPHS))
@pytest.mark.parametrize("name", sorted(_ALGORITHMS))
def test_tier_off_is_bit_identical(name, graph, selective, request, monkeypatch,
                                   tmp_path):
    """Each tier encodes the graph (``from_edge_list`` + ``save``: every
    file and aux array the same bytes) and runs the algorithm on it."""
    source, build = _GRAPHS[graph]
    el = request.getfixturevalue(source)
    config = EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024,
                          selective=selective)
    runs = []
    for lib in (native.lib, None):
        monkeypatch.setattr(native, "lib", lib)
        tg = TiledGraph.from_edge_list(el, **build)
        digests = _saved_digests(tg, tmp_path / f"tier-{len(runs)}")
        algo = _ALGORITHMS[name]()
        stats = GStoreEngine(tg, config).run(algo)
        runs.append((np.array(algo.result()), digests, stats.iterations,
                     stats.bytes_read, stats.sim_elapsed, stats.edges_processed))
    (r1, *s1), (r2, *s2) = runs
    assert r1.dtype == r2.dtype and r1.tobytes() == r2.tobytes()
    assert s1 == s2


# ---------------------------------------------------------------------- #
# Build and load
# ---------------------------------------------------------------------- #


@needs_tier
def test_cache_is_private_and_keyed(tmp_path):
    cache = tmp_path / "native"
    lib, _, status = native.load(cache)
    assert status == "loaded" and lib is not None
    (so,) = cache.iterdir()
    assert so == native.library_path(cache)
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700


@needs_tier
@pytest.mark.parametrize("keep", [0.3, 0.95])
def test_truncated_library_is_rebuilt(tmp_path, keep):
    """A cut-short library is rebuilt, never opened: cut at 30 % it would
    fault inside ``dlopen``, cut at 95 % it would load."""
    so = native.library_path(tmp_path)
    native.build(so)  # not opened here: this process never maps it
    whole = so.read_bytes()
    so.write_bytes(whole[: int(len(whole) * keep)])
    assert not native.intact(so)
    lib, ffi, status = native.load(tmp_path)
    assert status == "loaded" and lib is not None
    assert native.intact(so) and so.stat().st_size == len(whole)
    assert [p.name for p in tmp_path.iterdir()] == [so.name]  # no temporaries
    assert lib.min_commit_i64(ffi.NULL, 0, ffi.NULL, ffi.NULL, 0, ffi.NULL,
                              0, 0) == 0


def test_no_gcc_falls_back_to_numpy_with_the_reason(
    tmp_path, monkeypatch, tiled_undirected
):
    pytest.importorskip("cffi")
    monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory
    lib, ffi, status = native.load(tmp_path / "cache")
    assert (lib, ffi, status) == (None, None, "gcc not on PATH")
    assert not (tmp_path / "cache").exists()
    # What the module does with that outcome: NumPy runs.
    monkeypatch.setattr(native, "lib", lib)
    monkeypatch.setattr(native, "status", status)
    algo = SSSP(root=0)
    GStoreEngine(tiled_undirected, EngineConfig(memory_bytes=64 * 1024,
                                                segment_bytes=8 * 1024)).run(algo)
    assert np.isfinite(algo.result()).any()


@needs_tier
def test_a_warning_refuses_the_build(tmp_path, monkeypatch):
    """Every warning is an error under ``FLAGS``: a C file that warns is
    not loaded, and the status names gcc's first error — what
    ``test_native_tier_loaded`` then reports."""
    source = tmp_path / "_relax.c"
    source.write_text(native.SOURCE.read_text().replace(
        "int crc32c_sse42(void) { return crc_hw; }",
        "int crc32c_sse42(void) { int planted; return crc_hw; }",
    ))
    monkeypatch.setattr(native, "SOURCE", source)
    lib, ffi, status = native.load(tmp_path / "cache")
    assert (lib, ffi) == (None, None)
    assert status.startswith("gcc failed: ") and "error: unused variable" in status
    assert "planted" in status and "-Werror=unused-variable" in status


@needs_tier
def test_concurrent_first_imports_load_whole_files(tmp_path):
    """Two interpreters import the module at once over one empty cache:
    both load (neither sees a half-written library), and one library and
    no temporary is left."""
    env = dict(os.environ, HOME=str(tmp_path), PYTHONPATH=SRC)
    code = "from repro.algorithms import native; print(native.status)"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert [o.decode().strip() for o, _ in outs] == ["loaded", "loaded"]
    cache = tmp_path / ".cache" / "repro" / "native"
    assert [p.suffix for p in cache.iterdir()] == [".so"]
