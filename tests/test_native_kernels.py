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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import native
from repro.algorithms.async_bfs import AsyncBFS
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
from repro.format.tiles import TiledGraph, concat_global_edges
from repro.types import INF_DEPTH

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


def _endpoints(draw, n: int):
    """A shard's endpoints over ``n`` vertices that hit 0 and n - 1 often."""
    ids = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    m = draw(st.integers(0, 60))
    src = np.array(draw(st.lists(ids, min_size=m, max_size=m)), np.uint32)
    dst = np.array(draw(st.lists(ids, min_size=m, max_size=m)), np.uint32)
    return src, dst


@st.composite
def _shard(draw, dtype):
    """A state array (some entries unreached) and a shard's endpoints."""
    n = draw(_N)
    src, dst = _endpoints(draw, n)
    if dtype == np.float64:
        vals = st.one_of(st.just(np.inf), st.floats(0, 100, width=32))
    else:
        vals = st.one_of(st.just(int(INF_DEPTH)), st.integers(0, 30))
    state = np.array(draw(st.lists(vals, min_size=n, max_size=n)), dtype)
    return state, src, dst


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _kernel(algo, symmetric=False, **fields):
    """``algo`` with its kernel's fields set directly and a graph that
    only says whether it is stored symmetric."""
    algo.graph = SimpleNamespace(info=SimpleNamespace(symmetric=symmetric))
    for name, value in fields.items():
        setattr(algo, name, value)
    return algo


def _assert_partials_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (g, w)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.float64), symmetric=st.booleans(), stored=st.booleans(),
       seed=st.integers(0, 2**16))
def test_sssp_candidates_match_numpy(shard, symmetric, stored, seed):
    dist, src, dst = (_frozen(a) for a in shard)
    w = None
    if stored:
        w = _frozen(
            np.random.default_rng(seed).uniform(0.5, 10, src.size).astype(np.float32)
        )
    algo = _kernel(SSSP(), symmetric, dist=dist)
    got = algo.kernel_partial(src, dst, w)
    want = _numpy(algo.kernel_partial, src, dst, w)
    _assert_partials_equal(got, want)
    if not stored:
        assert np.array_equal(got[4], edge_weights(src, dst))


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.float64), symmetric=st.booleans(),
       stored=st.sampled_from([None, np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_sssp_apply_matches_numpy(shard, symmetric, stored, seed):
    """Commit, second pass and its commit, flags included."""
    dist, src, dst = shard
    w = None
    if stored is not None:
        w = np.random.default_rng(seed).uniform(0.5, 10, src.size).astype(stored)
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo = _kernel(SSSP(), symmetric, dist=dist.copy(),
                       _changed_next=np.zeros(dist.size, bool))
        partial = tier(algo.kernel_partial, src, dst, w)
        edges = tier(algo.apply_partial, partial)
        runs.append((edges, algo.dist, algo._changed_next))
    (e1, d1, c1), (e2, d2, c2) = runs
    assert e1 == e2
    assert np.array_equal(d1, d2)
    assert np.array_equal(c1, c2)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(
    n=_N, data=st.data(),
    dtype=st.sampled_from([np.float64, np.int64]), flags=st.booleans(),
)
def test_min_commit_matches_minimum_at(n, data, dtype, flags):
    """Duplicate indices included: every one of them is committed."""
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
    got_flags, want_flags = np.zeros(n, bool), np.zeros(n, bool)
    native.min_commit(got, idx, vals, got_flags if flags else None)
    np.minimum.at(want, idx, vals)
    if flags:
        want_flags[idx] = True
    assert np.array_equal(got, want)
    assert np.array_equal(got_flags, want_flags)


@needs_tier
def test_min_commit_checks_before_writing():
    """Every index, and the flags' length and dtype, before the first
    write."""
    a = np.zeros(4)
    with pytest.raises(IndexError, match="index 4 is out of bounds for axis 0 with size 4"):
        native.min_commit(a, np.array([0, 4]), np.array([-1.0, -1.0]))
    for flags in (np.zeros(3, bool), np.zeros(4, np.int64)):
        with pytest.raises(ValueError, match="flags must be 4 bools"):
            native.min_commit(a, np.array([0]), np.array([-1.0]), flags)
    assert a.tolist() == [0.0] * 4


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.int64), symmetric=st.booleans())
def test_async_bfs_matches_numpy(shard, symmetric):
    """First pass, then the rounds to the shard's fixpoint, from depths
    that include ``INF_DEPTH``."""
    depth, src, dst = shard
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo = _kernel(AsyncBFS(), symmetric, depth=_frozen(depth),
                       _changed_next=np.zeros(depth.size, bool))
        partial = tier(algo.kernel_partial, src, dst)
        first = tuple(np.array(a) for a in partial[:2])
        algo.depth = depth.copy()
        tier(algo.apply_partial, partial)
        runs.append((first, algo.depth, algo._changed_next))
    (f1, d1, c1), (f2, d2, c2) = runs
    _assert_partials_equal(f1, f2)
    assert np.array_equal(d1, d2)
    assert np.array_equal(c1, c2)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_shard(np.int64))
def test_cc_label_scatters_match_numpy(shard):
    labels, src, dst = shard
    runs = []
    for tier in (lambda f, *a: f(*a), _numpy):
        algo = _kernel(ConnectedComponents(), comp=labels.copy(),
                       _prev=_frozen(labels))
        partial = algo.kernel_partial(src, dst)
        assert tier(algo.apply_partial, partial) == src.size
        runs.append(algo.comp)
    assert np.array_equal(*runs)


@st.composite
def _bfs_shard(draw):
    """Depths around ``level`` — on it, one past it, unvisited — and a
    shard; the level includes 0 and the top of the ``uint32`` range,
    where it meets ``INF_DEPTH``."""
    inf = int(INF_DEPTH)
    level = draw(st.sampled_from([0, 1, inf - 1, inf]) | st.integers(0, 30))
    n = draw(_N)
    vals = st.sampled_from([inf, level, min(level + 1, inf), max(level - 1, 0)])
    depth = np.array(
        draw(st.lists(vals | st.integers(0, 30), min_size=n, max_size=n)),
        np.uint32,
    )
    return depth, *_endpoints(draw, n), level


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_bfs_shard(), symmetric=st.booleans(),
       mode=st.sampled_from([None, "push", "pull"]))
def test_bfs_discovery_matches_numpy(shard, symmetric, mode):
    """One C loop for all three modes; each NumPy evaluation order gives
    the same targets in the same order."""
    depth, src, dst, level = shard
    algo = _kernel(BFS(), symmetric, depth=_frozen(depth), level=level,
                   direction_optimizing=mode is not None, _pull=mode == "pull")
    got = algo.kernel_partial(_frozen(src), _frozen(dst))
    want = _numpy(algo.kernel_partial, src, dst)
    assert got[0].dtype == want[0].dtype == np.intp
    _assert_partials_equal(got, want)


@st.composite
def _reach_shard(draw):
    """Frontier, allowed and visited masks, and a shard."""
    n = draw(_N)
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    state = {
        name: _frozen(np.array(draw(masks), bool))
        for name in ("_frontier", "allowed", "visited")
    }
    return state, *_endpoints(draw, n)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_reach_shard(), forward=st.booleans(), symmetric=st.booleans())
def test_reachability_discovery_matches_numpy(shard, forward, symmetric):
    state, src, dst = shard
    algo = _kernel(Reachability([0], forward=forward), symmetric, **state)
    got = algo.kernel_partial(_frozen(src), _frozen(dst))
    want = _numpy(algo.kernel_partial, src, dst)
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
    rc = getattr(native.lib, f"widen_u{bits}")(
        buf(f"uint{bits}_t[]", pairs), 3,
        buf("int64_t[]", counts), buf("uint32_t[]", args[4]),
        buf("uint32_t[]", args[5]), 2, *(buf("uint32_t[]", a) for a in out),
    )
    assert rc == -1
    assert all((a == 7).all() for a in out)
    with pytest.raises(ValueError):  # an odd number of local IDs
        native.widen(pairs[:5], counts, args[4], args[5])


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

    def run(acc, back):
        for _ in range(4):
            native.scatter_add(acc, x, pairs, counts, sb, db, back)

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
def test_encode_checks_before_writing():
    """Both passes check their whole input before their first write, and
    the wrappers raise typed: an endpoint not below ``n_vertices`` (named),
    a grid position outside the tiles, keys out of order or decoding past
    the last vertex."""
    buf = native.ffi.from_buffer
    n, tile_bits = 9, 2  # a 3 x 3 grid whose last row and column are ragged
    grouping = PhysicalGrouping(p=3, q=2, symmetric=True)
    grid = grouping.position_grid()
    rows, cols = grouping.tile_coords
    n_tiles = grouping.n_tiles
    src = np.array([1, 2, 3], np.uint32)
    for dst, g in (([2, 3, 9], grid), ([2, 3, 8], np.where(grid == 5, n_tiles, grid))):
        dst = np.array(dst, np.uint32)
        key = np.full(3, 7, np.uint64)
        rc = native.lib.upper_keys(
            buf("uint32_t[]", src), buf("uint32_t[]", dst), 3, n,
            buf("int64_t[]", g), 3, n_tiles, tile_bits, native.ffi.NULL,
            buf("uint64_t[]", key), native.ffi.NULL,
        )
        assert rc == -1 and (key == 7).all()
    with pytest.raises(FormatError, match="endpoint 9 is not below n_vertices 9"):
        native.upper_keys(src, np.array([2, 3, 9], np.uint32), n, grid,
                          n_tiles, tile_bits)
    last = int(grid[2, 2])  # tile (2, 2): global IDs 8..11 of 9 vertices
    for keys in ([5, 3], [n_tiles << 4], [last << 4 | 0 << 2 | 1]):
        keys = np.array(keys, np.uint64)
        payload = np.full(2 * keys.shape[0], 7, np.uint8)
        start = np.full(n_tiles + 1, 7, np.int64)
        deg = np.full(n, 7, np.uint32)
        rc = native.lib.unpack_u8(
            buf("uint64_t[]", keys), keys.shape[0], tile_bits,
            buf("int64_t[]", rows), buf("int64_t[]", cols), n_tiles, n, 1,
            buf("uint8_t[]", payload), buf("int64_t[]", start),
            buf("uint32_t[]", deg),
        )
        assert rc == -1
        assert (payload == 7).all() and (start == 7).all() and (deg == 7).all()
        with pytest.raises(ValueError, match="do not ascend or name"):
            native.unpack_keys(keys, rows, cols, tile_bits, n, np.uint8, True)
    good = np.array([last << 4 | 0 << 2 | 0], np.uint64)  # the edge (8, 8)
    start, payload, deg = native.unpack_keys(good, rows, cols, tile_bits, n,
                                             np.uint8, True)
    assert start.tolist() == [0] * (last + 1) + [1] * (n_tiles - last)
    assert payload.tolist() == [0, 0] and deg.tolist() == [0] * 8 + [2]


def _zero_state(n: int) -> np.ndarray:
    """A read-only all-zero ``float64`` state of length ``n`` that costs no
    memory: an untouched private read-only mapping is backed by the zero
    page and charged to nobody."""
    mm = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS,
                   prot=mmap.PROT_READ)
    return np.frombuffer(mm, dtype=np.float64)


_MAX_ID = 2**32 - 1
_IDS = st.one_of(
    st.sampled_from([0, 1, 7, 15, 16, _MAX_ID - 1, _MAX_ID]),
    st.integers(0, _MAX_ID),
)


@needs_tier
@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_IDS, _IDS | st.none()), max_size=40))
@example(pairs=[(0, 0), (0, _MAX_ID), (_MAX_ID, 0), (_MAX_ID, None), (9, None)])
def test_inline_hash_matches_edge_weights(pairs):
    """Over the whole ``uint32`` ID range (``None``: ``a == b``): the state
    spans every ID, so no endpoint is out of range, and all-zero distances
    leave nothing to commit, only the derived weights."""
    src = np.array([a for a, _ in pairs], np.uint32)
    dst = np.array([a if b is None else b for a, b in pairs], np.uint32)
    dist = _zero_state(2**32)
    idx, _, _, _, w = native.candidates(dist, src, dst, True)
    assert idx.size == 0
    assert w.dtype == np.float32
    assert np.array_equal(w, edge_weights(src, dst))
    assert np.array_equal(w, edge_weights(dst, src))


@needs_tier
@pytest.mark.parametrize("state", [np.zeros(5), np.zeros(5, np.int64)])
def test_candidates_convert_other_endpoint_dtypes_once(state):
    """``intp`` endpoints are range-checked, then converted: the same
    partial as ``uint32`` ones, and a negative ID is out of range."""
    src = np.array([0, 1, 4], np.intp)
    dst = np.array([4, 2, 3], np.intp)
    got = native.candidates(state, src, dst, True)
    want = native.candidates(state, src.astype(np.uint32), dst.astype(np.uint32), True)
    assert got[2].dtype == got[3].dtype == np.uint32
    _assert_partials_equal(got[:4], want[:4])
    src[1] = -1
    with pytest.raises(IndexError, match="index -1 is out of bounds"):
        native.candidates(state, src, dst, True)


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
    assert lib.min_commit_i64(ffi.NULL, 0, ffi.NULL, ffi.NULL, 0, ffi.NULL) == 0


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
