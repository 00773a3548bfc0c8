"""The single-sort encoder writes the bytes the two-argsort one did.

``_reference_encode`` below is ``TiledGraph.from_edge_list`` as it stood
before the one-sort rewrite — ``np.unique(return_index=True)`` to
canonicalise, then a stable argsort by disk position and four gathers —
frozen here as the oracle.  The format did not change, so payload,
start-edge offsets, both degree arrays and the per-edge weights must be
bit-equal on every layout the format has.  Every test holds both kernel
tiers to it: the compiled encoders (``native.by_position``, and
``native.bucket_upper`` and ``native.unpack_buckets`` around NumPy's sort
of each bucket) when they are loaded, and their NumPy bodies.
"""

import numpy as np
import pytest

from repro.algorithms import native
from repro.errors import FormatError
from repro.format.edgelist import EdgeList
from repro.format.grouping import PhysicalGrouping
from repro.format.tiles import TiledGraph
from repro.types import VERTEX_DTYPE, local_dtype
from repro.util.bitops import ceil_div

GROUP_Q = 3
#: Not a multiple of any tile span from 2**4 up, so the last tile row is
#: always ragged.
N_VERTICES = 777


def _on_each_tier(build):
    """``build()`` on the compiled tier (when it is loaded), then with
    ``native.lib = None`` on the NumPy bodies: the results, in that order."""
    out = []
    for lib in dict.fromkeys((native.lib, None)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "lib", lib)
            out.append(build())
    return out


def _reference_canonical(src, dst, weights, n_vertices):
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if weights is not None:
        weights = weights[keep]
    key = lo.astype(np.uint64) * np.uint64(n_vertices) + hi.astype(np.uint64)
    _, idx = np.unique(key, return_index=True)
    return lo[idx], hi[idx], None if weights is None else weights[idx]


def _reference_encode(el: EdgeList, tile_bits: int, symmetric, snb: bool):
    """(payload, start_edge, out_degrees, in_degrees, edge_weights)."""
    n = el.n_vertices
    if el.directed:
        symmetric = False
        src, dst, weights = el.src, el.dst, el.weights
        out_deg = np.bincount(src, minlength=n).astype(np.uint32)
        in_deg = np.bincount(dst, minlength=n).astype(np.uint32)
    else:
        lo, hi, weights = _reference_canonical(el.src, el.dst, el.weights, n)
        out_deg = in_deg = (
            np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        ).astype(np.uint32)
        if symmetric is None:
            symmetric = True
        if symmetric:
            src, dst = lo, hi
        else:
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
            if weights is not None:
                weights = np.concatenate([weights, weights])
    grouping = PhysicalGrouping(
        p=ceil_div(n, 1 << tile_bits), q=GROUP_Q, symmetric=symmetric
    )
    pos_grid = grouping.position_grid()
    ti = (src >> np.uint32(tile_bits)).astype(np.int64)
    tj = (dst >> np.uint32(tile_bits)).astype(np.int64)
    pos = pos_grid[ti, tj]
    counts = np.bincount(pos, minlength=grouping.n_tiles)
    start = np.zeros(grouping.n_tiles + 1, dtype=np.uint64)
    np.cumsum(counts, out=start[1:])
    order = np.argsort(pos, kind="stable")
    if weights is not None:
        weights = weights[order]
    dt = local_dtype(tile_bits) if snb else np.dtype(VERTEX_DTYPE)
    mask = np.uint32((1 << tile_bits) - 1)
    payload = np.empty(2 * src.shape[0], dtype=dt)
    if snb:
        payload[0::2] = (src[order] & mask).astype(dt)
        payload[1::2] = (dst[order] & mask).astype(dt)
    else:
        payload[0::2] = src[order].astype(dt)
        payload[1::2] = dst[order].astype(dt)
    return payload, start, out_deg, in_deg, weights


def _messy_edges(directed: bool, weighted: bool) -> EdgeList:
    """Random edges plus every case the encoder has to get right:
    repeated edges, both orientations of one edge, self-loops, and the
    largest vertex ID."""
    rng = np.random.default_rng(99)
    src = rng.integers(0, N_VERTICES, 4000)
    dst = rng.integers(0, N_VERTICES, 4000)
    last = N_VERTICES - 1
    extra = np.array(
        [
            (5, 9), (5, 9), (9, 5), (5, 9),          # repeats, both ways
            (12, 12), (last, last), (0, 0),          # self-loops
            (last, 0), (0, last), (last, last - 1),  # the max-ID vertex
            (300, 301), (301, 300),
        ]
    )
    src = np.concatenate([src[:2000], extra[:, 0], src[2000:], src[:500]])
    dst = np.concatenate([dst[:2000], extra[:, 1], dst[2000:], dst[:500]])
    weights = None
    if weighted:
        # Distinct per input edge, so "which duplicate's weight survived"
        # is visible.
        weights = rng.permutation(src.shape[0]).astype(np.float32)
    return EdgeList(
        src, dst, N_VERTICES, directed=directed, name="messy", weights=weights
    )


def _assert_identical(el, tile_bits, symmetric, snb):
    payload, start, out_deg, in_deg, weights = _reference_encode(
        el, tile_bits, symmetric, snb
    )
    for tg in _on_each_tier(
        lambda: TiledGraph.from_edge_list(
            el, tile_bits=tile_bits, group_q=GROUP_Q, symmetric=symmetric,
            snb=snb,
        )
    ):
        for got, want in (
            (tg.payload, payload),
            (tg.start_edge.start_edge, start),
            (tg.out_degrees, out_deg),
            (tg.in_degrees, in_deg),
        ):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        if weights is None:
            assert tg.edge_weights is None
        else:
            assert tg.edge_weights.dtype == np.float32
            assert tg.edge_weights.tobytes() == weights.tobytes()
        assert tg.info.n_edges == payload.shape[0] // 2


#: (directed, symmetric): the three layouts the format stores.
LAYOUTS = {
    "undirected-upper": (False, None),
    "undirected-full": (False, False),
    "directed": (True, None),
}


@pytest.mark.parametrize("tile_bits", range(4, 17))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_bytes_match_the_two_argsort_encoder(layout, tile_bits):
    directed, symmetric = LAYOUTS[layout]
    for weighted in (False, True):
        el = _messy_edges(directed, weighted)
        for snb in (True, False):
            _assert_identical(el, tile_bits, symmetric, snb)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_empty_graph(layout):
    directed, symmetric = LAYOUTS[layout]
    empty = np.empty(0, dtype=np.uint32)
    for weights in (None, np.empty(0, dtype=np.float32)):
        el = EdgeList(empty, empty, 40, directed=directed, weights=weights)
        for snb in (True, False):
            _assert_identical(el, 4, symmetric, snb)


def test_only_self_loops_and_one_tile():
    # Everything is dropped; and a graph inside a single tile has no
    # position bits in its sort key at all.
    loops = np.arange(10, dtype=np.uint32)
    _assert_identical(EdgeList(loops, loops, 10, directed=False), 4, None, True)
    el = _messy_edges(False, True)
    _assert_identical(el, 10, None, True)  # 777 vertices < 2**10: p == 1


@pytest.mark.parametrize("bad", [1010, 5000], ids=["last-tile", "off-grid"])
@pytest.mark.parametrize("side", ["src", "dst"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_out_of_range_endpoint_is_a_format_error(layout, side, bad):
    """An endpoint not below ``n_vertices`` is named, on every path: one
    inside the last tile's span (1010 < 1024) once went through silently
    or broke a broadcast, one beyond the grid raised a bare IndexError."""
    directed, symmetric = LAYOUTS[layout]
    src = np.array([1, 2, 5, 999, 7], dtype=np.uint32)
    dst = np.array([3, 4, 6, 0, 1200], dtype=np.uint32)
    (src if side == "src" else dst)[2] = bad
    el = EdgeList(src, dst, 1000, directed=directed)

    def build():
        with pytest.raises(FormatError, match=f"endpoint {bad} is not below "
                           "n_vertices 1000") as ei:
            TiledGraph.from_edge_list(el, tile_bits=10, symmetric=symmetric)
        return ei.value.context

    for context in _on_each_tier(build):
        assert context["edge"] == 2  # the first, not edge 4's 1200


@pytest.mark.parametrize("weighted", (False, True))
def test_canonicalized_and_deduped_match_unique(weighted):
    """``EdgeList.canonicalized``/``deduped`` share the one-sort helper."""
    el = _messy_edges(False, weighted)
    lo, hi, w = _reference_canonical(el.src, el.dst, el.weights, el.n_vertices)
    canon = el.canonicalized()
    assert np.array_equal(canon.src, lo) and np.array_equal(canon.dst, hi)
    assert (canon.weights is None) == (w is None)
    if w is not None:
        assert np.array_equal(canon.weights, w)

    d = _messy_edges(True, weighted)
    key = d.src.astype(np.uint64) * np.uint64(d.n_vertices) + d.dst
    _, idx = np.unique(key, return_index=True)
    dd = d.deduped()
    assert np.array_equal(dd.src, d.src[idx])
    assert np.array_equal(dd.dst, d.dst[idx])
    if weighted:
        assert np.array_equal(dd.weights, d.weights[idx])
