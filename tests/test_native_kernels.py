"""The compiled kernel tier against its NumPy oracle.

:mod:`repro.algorithms.native` runs SSSP's and AsyncBFS's relaxations,
the min-commits of SSSP, AsyncBFS and CC, BFS's and Reachability's
discovery passes and the SNB decode in C when it loads; the NumPy bodies
it replaces stay in the algorithms and the decoder as the fallback, and
here they are the oracle: every C entry point must give what they give,
element for element and in the same order.  The build half — the per-user cache, a
damaged cached file, no ``gcc``, two first imports at once — is checked
on throwaway cache directories.
"""

from __future__ import annotations

import importlib.util
import mmap
import os
import shutil
import stat
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import native
from repro.algorithms.async_bfs import AsyncBFS
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP, edge_weights
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.edgelist import EdgeList
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
    params = {"symmetric": symmetric}
    got = SSSP.kernel_partial({"dist": dist}, params, src, dst, w)
    want = _numpy(SSSP.kernel_partial, {"dist": dist}, params, src, dst, w)
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
        algo = SSSP()
        algo.dist = dist.copy()
        algo._changed_next = np.zeros(dist.size, bool)
        algo.graph = SimpleNamespace(info=SimpleNamespace(symmetric=symmetric))
        partial = tier(
            algo.kernel_partial, {"dist": algo.dist}, {"symmetric": symmetric},
            src, dst, w,
        )
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
        algo = AsyncBFS()
        algo.depth = depth.copy()
        algo._changed_next = np.zeros(depth.size, bool)
        algo.graph = SimpleNamespace(info=SimpleNamespace(symmetric=symmetric))
        partial = tier(
            algo.kernel_partial, {"depth": _frozen(algo.depth)},
            {"symmetric": symmetric}, src, dst,
        )
        first = tuple(np.array(a) for a in partial[:2])
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
        algo = ConnectedComponents()
        algo.comp = labels.copy()
        partial = ConnectedComponents.kernel_partial(
            {"prev": _frozen(labels)}, {}, src, dst
        )
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
    state = {"depth": _frozen(depth)}
    params = {"level": level, "symmetric": symmetric, "mode": mode}
    got = BFS.kernel_partial(state, params, _frozen(src), _frozen(dst))
    want = _numpy(BFS.kernel_partial, state, params, src, dst)
    assert got[0].dtype == want[0].dtype == np.intp
    _assert_partials_equal(got, want)


@st.composite
def _reach_shard(draw):
    """Frontier, allowed and visited masks, and a shard."""
    n = draw(_N)
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    state = {
        name: _frozen(np.array(draw(masks), bool))
        for name in ("frontier", "allowed", "visited")
    }
    return state, *_endpoints(draw, n)


@needs_tier
@settings(max_examples=100, deadline=None)
@given(shard=_reach_shard(), forward=st.booleans(), symmetric=st.booleans())
def test_reachability_discovery_matches_numpy(shard, forward, symmetric):
    state, src, dst = shard
    params = {"forward": forward, "symmetric": symmetric}
    got = Reachability.kernel_partial(state, params, _frozen(src), _frozen(dst))
    want = _numpy(Reachability.kernel_partial, state, params, src, dst)
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
    got = tg.decode_extents(positions, first, data)
    want = _numpy(lambda: tg.decode_extents(positions, first, data))
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
def weighted_tiled():
    rng = np.random.default_rng(31)
    v = 300
    src = rng.integers(0, v, 1500).astype(np.uint32)
    dst = rng.integers(0, v, 1500).astype(np.uint32)
    canon = EdgeList(src, dst, v, directed=False, name="w").canonicalized()
    w = rng.uniform(0.5, 10.0, canon.n_edges).astype(np.float32)
    el = EdgeList(canon.src, canon.dst, v, directed=False, name="w", weights=w)
    return TiledGraph.from_edge_list(el, tile_bits=6)


_ALGORITHMS = {
    "sssp": lambda: SSSP(root=0),
    "async_bfs": lambda: AsyncBFS(root=0),
    "cc": ConnectedComponents,
    "bfs": lambda: BFS(root=0),
    "bfs-direction-optimizing": lambda: BFS(root=0, direction_optimizing=True),
    "reachability": lambda: Reachability([0, 7]),
}


@needs_tier
@pytest.mark.parametrize("selective", [True, False])
@pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed", "weighted_tiled"])
@pytest.mark.parametrize("name", sorted(_ALGORITHMS))
def test_tier_off_is_bit_identical(name, graph, selective, request, monkeypatch):
    tg = request.getfixturevalue(graph)
    config = EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024,
                          selective=selective)
    runs = []
    for lib in (native.lib, None):
        monkeypatch.setattr(native, "lib", lib)
        algo = _ALGORITHMS[name]()
        stats = GStoreEngine(tg, config).run(algo)
        runs.append((np.array(algo.result()), stats.iterations,
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
