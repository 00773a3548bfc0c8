"""PageRank correctness against networkx, and its scatter-add commit on
both kernel tiers against plain in-order adds."""

import contextlib
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm
from repro.algorithms.pagerank import PageRank, scatter_add
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.tiles import TileEdges
from repro.types import local_dtype


def _run(tg, **kw):
    algo = PageRank(tolerance=kw.pop("tolerance", 1e-12), max_iterations=300)
    eng = GStoreEngine(
        tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    )
    stats = eng.run(algo)
    return algo, stats


class TestUndirected:
    def test_matches_networkx(self, tiled_undirected, nx_undirected):
        algo, _ = _run(tiled_undirected)
        ref = nx.pagerank(nx_undirected, alpha=0.85, max_iter=500, tol=1e-14)
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_sums_to_one(self, tiled_undirected):
        algo, _ = _run(tiled_undirected)
        assert float(algo.result().sum()) == pytest.approx(1.0, abs=1e-9)


class TestDirected:
    def test_matches_networkx(self, tiled_directed, nx_directed):
        algo, _ = _run(tiled_directed)
        ref = nx.pagerank(nx_directed, alpha=0.85, max_iter=500, tol=1e-14)
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_dangling_mass_redistributed(self):
        from repro.format.edgelist import EdgeList
        from repro.format.tiles import TiledGraph

        # Vertex 2 is dangling (no out-edges).
        el = EdgeList.from_pairs([(0, 1), (1, 2)], n_vertices=3, directed=True)
        tg = TiledGraph.from_edge_list(el, tile_bits=1, group_q=1)
        algo, _ = _run(tg)
        assert float(algo.result().sum()) == pytest.approx(1.0, abs=1e-9)
        g = nx.DiGraph()
        g.add_nodes_from(range(3))
        g.add_edges_from([(0, 1), (1, 2)])
        ref = nx.pagerank(g, alpha=0.85, tol=1e-14, max_iter=500)
        for v in range(3):
            assert algo.result()[v] == pytest.approx(ref[v], abs=1e-8)


class TestConvergence:
    def test_converges_before_cap(self, tiled_undirected):
        algo, stats = _run(tiled_undirected)
        assert algo.iterations_run < 300
        assert algo.delta < 1e-12

    def test_fixed_iterations(self, tiled_undirected):
        algo = PageRank(max_iterations=5, tolerance=0.0)
        eng = GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        )
        stats = eng.run(algo)
        assert algo.iterations_run == 5
        assert stats.n_iterations == 5

    def test_all_rows_active(self, tiled_undirected):
        algo = PageRank()
        algo.setup(tiled_undirected)
        assert algo.rows_active().all()
        assert algo.rows_active_next().all()
        # One read-only array per run, handed to every caller.
        assert algo.rows_active() is algo.rows_active_next()
        assert not algo.rows_active().flags.writeable

    def test_metadata_bytes(self, tiled_undirected):
        algo = PageRank()
        algo.setup(tiled_undirected)
        assert algo.metadata_bytes() >= 3 * 8 * tiled_undirected.n_vertices


class TestPersonalized:
    def _run(self, tg, personalization):
        algo = PageRank(
            tolerance=1e-12, max_iterations=500, personalization=personalization
        )
        GStoreEngine(
            tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
        ).run(algo)
        return algo

    def test_matches_networkx(self, tiled_directed, nx_directed):
        seeds = {0: 1.0, 7: 3.0}
        algo = self._run(tiled_directed, seeds)
        ref = nx.pagerank(
            nx_directed,
            alpha=0.85,
            personalization=seeds,
            max_iter=1000,
            tol=1e-14,
        )
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_undirected(self, tiled_undirected, nx_undirected):
        seeds = {3: 1.0}
        algo = self._run(tiled_undirected, seeds)
        ref = nx.pagerank(
            nx_undirected,
            alpha=0.85,
            personalization=seeds,
            max_iter=1000,
            tol=1e-14,
        )
        mine = algo.result()
        err = max(abs(mine[v] - ref[v]) for v in range(len(mine)))
        assert err < 1e-8

    def test_mass_concentrates_near_seeds(self, tiled_undirected):
        algo = self._run(tiled_undirected, {5: 1.0})
        plain = PageRank(tolerance=1e-12, max_iterations=500)
        GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        ).run(plain)
        assert algo.result()[5] > plain.result()[5]

    def test_validation(self, tiled_undirected):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            PageRank(personalization={10**9: 1.0}).setup(tiled_undirected)
        with pytest.raises(AlgorithmError):
            PageRank(personalization={0: -1.0}).setup(tiled_undirected)
        with pytest.raises(AlgorithmError):
            PageRank(personalization={0: 0.0}).setup(tiled_undirected)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tiled_undirected, weight):
        """A NaN or infinite weight fails at setup instead of turning
        every rank into NaN."""
        from repro.errors import AlgorithmError

        algo = PageRank(personalization={0: weight, 1: 1.0})
        with pytest.raises(AlgorithmError, match="finite"):
            algo.setup(tiled_undirected)


@pytest.mark.parametrize("damping", [-0.1, 1.5, np.nan, np.inf])
def test_damping_outside_unit_interval_rejected(damping):
    from repro.errors import AlgorithmError

    with pytest.raises(AlgorithmError, match="damping"):
        PageRank(damping=damping)


@pytest.mark.parametrize("damping", [0.0, 1.0])
def test_damping_bounds_accepted(tiled_undirected, damping):
    algo = PageRank(damping=damping, max_iterations=3)
    GStoreEngine(
        tiled_undirected,
        EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
    ).run(algo)
    assert np.isfinite(algo.result()).all()
    assert float(algo.result().sum()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------- #
# scatter_add: both tiers, over tile form, bit-identical to plain in-order
# adds over the widened IDs
# ---------------------------------------------------------------------- #


def _sequential(acc, x, gsrc, gdst, symmetric):
    """The oracle: ``acc`` after adding ``x[s]`` to ``acc[t]`` for each edge
    ``(s, t)`` in order, each followed on symmetric storage by ``x[t]`` to
    ``acc[s]``, one float64 add at a time."""
    out = acc.copy()
    for s, t in zip(gsrc.tolist(), gdst.tolist()):
        out[t] += x[s]
        if symmetric:
            out[s] += x[t]
    return out


#: The kernel tiers this process can run: the compiled one when it loaded,
#: and always the NumPy body.
TIERS = ([native.lib] if native.lib is not None else []) + [None]


@contextlib.contextmanager
def _tier(lib):
    """Within the block, ``scatter_add`` runs the tier ``lib`` names."""
    saved = native.lib
    native.lib = lib
    try:
        yield
    finally:
        native.lib = saved


def _accumulator(n, seed):
    """A non-zero accumulator spread over many magnitudes, so an add out
    of order changes bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)


#: How a shard's adds land: forward only (directed storage), each
#: followed by its mirror in the same array (symmetric storage), or the
#: mirror into a second array (SCC's in- and out-degrees in one pass).
MODES = ("forward", "mirrored", "two")


def _widened(tiles):
    """The oracle's IDs: the NumPy body of ``TileEdges.widen``."""
    with _tier(None):
        return tiles.widen()


def _want(start, x, tiles, mode):
    """What the accumulators hold after the in-order adds of ``mode``."""
    gsrc, gdst = _widened(tiles)
    if mode == "two":
        return (_sequential(start, x, gsrc, gdst, False),
                _sequential(start[::-1].copy(), x, gdst, gsrc, False))
    return (_sequential(start, x, gsrc, gdst, mode == "mirrored"),)


def _scatter(start, x, tiles, mode):
    """``scatter_add`` in ``mode`` onto copies of ``start`` (the second
    accumulator reversed), returning the accumulators."""
    fwd = start.copy()
    if mode == "two":
        bwd = start[::-1].copy()
        scatter_add(fwd, x, tiles, bwd)
        return fwd, bwd
    scatter_add(fwd, x, tiles, fwd if mode == "mirrored" else None)
    return (fwd,)


@st.composite
def _tile_shards(draw):
    """``(x, tiles)``: a shard over ``n`` vertices in tile form with
    ``uint8``, ``uint16`` or ``uint32`` locals (tile_bits 6, 10 or 17),
    each tile's bases at 0, inside the vertex range or just below 2**32,
    whose locals wrap past it into the range; empty tiles and empty
    shards among them; or the same edges as the one base-0 ``uint32``
    tile of a batch built from IDs (``DecodedBatch.of_runs``).  Values
    spread over many magnitudes so any reassociation shows."""
    n = draw(st.integers(1, 48))
    dtype = local_dtype(draw(st.sampled_from([6, 10, 17])))
    top = np.iinfo(dtype).max
    bases, counts, pairs = ([], []), [], []
    for _ in range(draw(st.integers(0, 6))):
        m = draw(st.integers(0, 12))
        tile = []
        for side in range(2):
            if draw(st.booleans()):  # a base near 2**32: locals wrap
                c = draw(st.integers(1, top))
                bases[side].append(2**32 - c)
                lo, hi = c, min(c + n - 1, top)
            else:
                base = draw(st.integers(0, n - 1))
                bases[side].append(base)
                lo, hi = 0, n - 1 - base
            tile.append(draw(st.lists(st.integers(lo, hi), min_size=m,
                                      max_size=m)))
        counts.append(m)
        pairs += [v for pair in zip(*tile) for v in pair]
    tiles = TileEdges(
        np.array(pairs, dtype=dtype), np.array(counts, dtype=np.int64),
        np.array(bases[0], dtype=np.uint32), np.array(bases[1], dtype=np.uint32),
    )
    if draw(st.booleans()):
        tiles = TileEdges.of_ids(*_widened(tiles))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    return x, tiles


def _shard(n, pairs):
    """Global ``(src, dst)`` pairs as a base-0 ``uint32`` tile: the form
    ``DecodedBatch.of_runs`` gives a batch of given IDs."""
    x = np.linspace(0.1, 7.3, n) ** 3
    arr = np.asarray(pairs, dtype=np.uint32).reshape(-1, 2)
    return x, TileEdges.of_ids(arr[:, 0].copy(), arr[:, 1].copy())


class TestScatterAdd:
    @settings(max_examples=300, deadline=None)
    @given(shard=_tile_shards(), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2**32 - 1))
    @example(shard=_shard(5, [(2, 3)]), mode="forward", seed=1)  # one edge
    @example(shard=_shard(5, [(2, 3)]), mode="mirrored", seed=2)
    @example(shard=_shard(6, [(0, 5), (0, 5), (5, 0), (0, 5)]),
             mode="mirrored", seed=3)
    @example(shard=_shard(6, [(0, 5), (0, 5), (3, 5)]), mode="forward", seed=4)
    @example(shard=_shard(9, [(0, 1), (1, 0), (7, 8), (8, 8)]),
             mode="two", seed=5)
    @example(shard=_shard(4, []), mode="two", seed=6)  # an empty batch
    def test_tiers_match_in_order_adds_bit_for_bit(self, shard, mode, seed):
        """Every tier adds edge after edge, straight from the tile form,
        into non-zero accumulators: the compiled loop and ``np.add.at``
        give the bits of one add at a time over ``widen``'s IDs, so each
        other's — and with two accumulators, those of two separate
        sweeps."""
        x, tiles = shard
        start = _accumulator(x.shape[0], seed)
        want = _want(start, x, tiles, mode)
        for lib in TIERS:
            with _tier(lib):
                got = _scatter(start, x, tiles, mode)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], lib

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("side", ["gather", "scatter"])
    @pytest.mark.parametrize("bad", [10, 2**31, 2**32 - 1])
    def test_corrupt_id_raises_index_error(self, symmetric, side, bad):
        """A widened endpoint past ``len(x)`` — 10, or one that would read
        negative as ``int32`` — raises NumPy's ``IndexError`` on either
        tier before the first add, so ``acc`` is untouched.  The bad
        endpoint is tile 1's base plus its local 3."""
        x = np.ones(10)
        pairs = np.array([1, 4, 2, 5, 3, 3], dtype=np.uint16)
        sb = np.zeros(2, dtype=np.uint32)
        db = np.zeros(2, dtype=np.uint32)
        (sb if side == "gather" else db)[1] = bad - 3
        tiles = TileEdges(pairs, np.array([2, 1]), sb, db)
        for lib in TIERS:
            acc = np.arange(10.0)
            with _tier(lib), pytest.raises(
                IndexError, match=f"index {bad} is out of bounds"
            ):
                scatter_add(acc, x, tiles, acc if symmetric else None)
            assert np.array_equal(acc, np.arange(10.0)), lib

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_held_buffers_still_check_every_call(self, symmetric):
        """Kept across calls (:class:`~repro.algorithms.native.Held`), the
        buffers of two accumulators that swap roles between calls — as
        PageRank's rank and accumulator do — still add where the arrays
        are, and a corrupt endpoint still raises before the first add."""
        if native.lib is None:
            pytest.skip("the compiled tier did not load")
        held = native.Held()
        x = np.linspace(1.0, 2.0, 10)
        good = TileEdges(np.array([1, 4, 2, 5], dtype=np.uint16),
                         np.array([2]), np.zeros(1, np.uint32),
                         np.zeros(1, np.uint32))
        a, b = np.zeros(10), np.zeros(10)
        for _ in range(3):
            want = _sequential(a, x, *_widened(good), symmetric)
            scatter_add(a, x, good, a if symmetric else None, held)
            assert a.tobytes() == want.tobytes()
            a, b = b, a
        bad = TileEdges(good.pairs, good.counts, np.array([9], np.uint32),
                        good.dst_base)
        before = a.copy()
        with pytest.raises(IndexError, match="index 10 is out of bounds"):
            scatter_add(a, x, bad, a if symmetric else None, held)
        assert a.tobytes() == before.tobytes()
        with pytest.raises(ValueError, match="accumulator"):
            scatter_add(a, x, good, b[:5], held)
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_empty_shard_adds_nothing(self, symmetric):
        """No edges — no tiles, or tiles of none, at any bases — adds
        nothing."""
        x = np.arange(5.0)
        top = np.full(2, 2**32 - 1, dtype=np.uint32)
        for tiles in (
            TileEdges.of_ids(*[np.zeros(0, dtype=np.uint32)] * 2),
            TileEdges(np.zeros(0, np.uint8), np.zeros(2, np.int64), top, top),
        ):
            for lib in TIERS:
                acc = np.full(5, 0.5)
                with _tier(lib):
                    scatter_add(acc, x, tiles, acc if symmetric else None)
                assert np.array_equal(acc, np.full(5, 0.5)), lib

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("counts", [[2, 2], [1, 1], [-1, 4], [4, -1]])
    def test_counts_must_cover_the_payload(self, mode, counts):
        """Counts that miss the payload's 3 edges (or go negative): a
        ``ValueError`` on either tier, accumulators untouched."""
        x = np.ones(8)
        tiles = TileEdges(np.arange(6, dtype=np.uint8), np.array(counts),
                          np.zeros(2, np.uint32), np.zeros(2, np.uint32))
        start = np.arange(8.0)
        for lib in TIERS:
            fwd, bwd = start.copy(), start.copy()
            with _tier(lib), pytest.raises(
                ValueError, match="do not cover the payload"
            ):
                scatter_add(fwd, x, tiles, {"forward": None, "mirrored": fwd,
                                            "two": bwd}[mode])
            assert np.array_equal(fwd, start) and np.array_equal(bwd, start)

    @pytest.mark.parametrize("bits", [6, 10, 17])
    @pytest.mark.parametrize("side", ["gather", "scatter"])
    def test_endpoint_wrapped_past_n_raises(self, bits, side):
        """A base just below ``2**32`` plus a local that wraps to
        ``len(x)`` (here 8) raises on either tier, naming the widened ID,
        both accumulators untouched; one that wraps to ``len(x) - 1``
        adds as the oracle does."""
        x = np.arange(1.0, 9.0)
        base = np.array([0, 2**32 - 10], dtype=np.uint32)
        zero = np.zeros(2, np.uint32)
        sb, db = (base, zero) if side == "gather" else (zero, base)
        for local in (17, 18):
            pair = [local, 3] if side == "gather" else [3, local]
            pairs = np.array([0, 1, *pair], dtype=local_dtype(bits))
            tiles = TileEdges(pairs, np.array([1, 1]), sb, db)
            start = np.zeros(8)
            for lib in TIERS:
                with _tier(lib):
                    if local == 17:
                        got = _scatter(start, x, tiles, "two")
                        want = _want(start, x, tiles, "two")
                        assert [a.tobytes() for a in got] == [
                            a.tobytes() for a in want], lib
                        continue
                    fwd, bwd = np.zeros(8), np.zeros(8)
                    with pytest.raises(IndexError, match="index 8 is out"):
                        scatter_add(fwd, x, tiles, bwd)
                    assert not fwd.any() and not bwd.any(), lib


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("prefetch", [True, False])
def test_corrupt_local_id_fails_typed(directed, prefetch):
    """A local ID patched past ``n_vertices`` in the last tile row (10
    vertices, 4-vertex tiles) reaches the kernel unverified and raises
    ``IndexError`` — never a read or write outside the kernel's arrays —
    whether or not a prefetch thread is decoding ahead of the kernel."""
    from repro.format.edgelist import EdgeList
    from repro.format.tiles import TiledGraph

    el = EdgeList.from_pairs(
        [(0, 1), (1, 5), (2, 8), (8, 9), (4, 9)],
        n_vertices=10, directed=directed,
    )
    tg = TiledGraph.from_edge_list(el, tile_bits=2, group_q=2)
    last = tg.p - 1
    pos = tg.position_of(last, last)
    lo = int(tg.start_edge.start_edge[pos])
    assert tg.tile_view(pos).global_edges()[0].tolist() == [8]
    tg.payload[2 * lo] = 3  # local source 3 of row 2: vertex 11
    eng = GStoreEngine(
        tg,
        EngineConfig(
            memory_bytes=64 * 1024, segment_bytes=8 * 1024,
            prefetch_depth=2 if prefetch else 0, verify_checksums=False,
        ),
    )
    with pytest.raises(IndexError, match="index 11 is out of bounds"):
        eng.run(PageRank())


# ---------------------------------------------------------------------- #
# The vertex passes run in place
# ---------------------------------------------------------------------- #


class _OutOfPlace(PageRank):
    """PageRank's iteration hooks as they were before the vertex passes ran
    in place, frozen: a new contribution array every iteration and the new
    ranks and ``delta`` built out of place.  The oracle of the in-place
    hooks, and the writer of the checkpoint layout they replaced."""

    def begin_iteration(self, iteration):
        TileAlgorithm.begin_iteration(self, iteration)
        self._acc.fill(0.0)
        self._contrib = self.rank * self._inv_deg

    def end_iteration(self, iteration):
        n = self.rank.shape[0]
        dangling_mass = float(self.rank[self._dangling].sum())
        if self._teleport is None:
            new_rank = (
                (1.0 - self.damping) / n
                + self.damping * (self._acc + dangling_mass / n)
            )
        else:
            new_rank = (
                (1.0 - self.damping) * self._teleport
                + self.damping * (self._acc + dangling_mass * self._teleport)
            )
        self.delta = float(np.abs(new_rank - self.rank).sum())
        self.rank = new_rank
        self.iterations_run = iteration + 1
        if self.delta < self.tolerance:
            return False
        return self.iterations_run < self.max_iterations


#: Teleport weights of the personalised runs (vertices of both graphs).
SEEDS = {0: 1.0, 7: 2.5, 311: 0.5}


class TestInPlaceHooks:
    @pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed"])
    @pytest.mark.parametrize("seeds", [None, SEEDS])
    @pytest.mark.parametrize("lib", TIERS)
    def test_bit_identical_to_the_out_of_place_formula(
        self, request, graph, seeds, lib
    ):
        """Fed the same accumulator — spread over many magnitudes, so any
        reordered operation changes bits — the in-place hooks leave the
        same contributions, ranks and ``delta`` as the frozen formula, on
        either tier, symmetric and directed storage, uniform and
        personalised, iteration after iteration (the buffers swap
        between)."""
        tg = request.getfixturevalue(graph)
        got = PageRank(personalization=seeds, tolerance=0.0)
        want = _OutOfPlace(personalization=seeds, tolerance=0.0)
        for algo in (got, want):
            algo.setup(tg)
        assert got.symmetric == (graph == "tiled_undirected")
        rng = np.random.default_rng(5)
        n = tg.n_vertices
        with _tier(lib):
            for it in range(6):
                for algo in (got, want):
                    algo.begin_iteration(it)
                assert got._contrib.tobytes() == want._contrib.tobytes()
                assert not got._acc.any()
                acc = rng.standard_normal(n) * 10.0 ** rng.integers(-9, 0, n)
                for algo in (got, want):
                    algo._acc[:] = acc
                assert got.end_iteration(it) == want.end_iteration(it)
                assert got.rank.tobytes() == want.rank.tobytes(), it
                assert np.float64(got.delta).tobytes() == (
                    np.float64(want.delta).tobytes()
                ), it
                assert got._acc is not got.rank

    @pytest.mark.parametrize("graph", ["tiled_undirected", "tiled_directed"])
    @pytest.mark.parametrize("seeds", [None, SEEDS])
    def test_engine_runs_match_the_out_of_place_formula(
        self, request, graph, seeds
    ):
        tg = request.getfixturevalue(graph)
        runs = []
        for cls in (PageRank, _OutOfPlace):
            algo = cls(personalization=seeds, max_iterations=30, tolerance=0.0)
            _, stats = _run_algo(tg, algo)
            runs.append((algo.rank.tobytes(), algo.delta, stats.sim_elapsed))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seeds", [None, SEEDS])
    @pytest.mark.parametrize("lib", TIERS)
    def test_hooks_allocate_no_vertex_sized_array(self, seeds, lib):
        """After setup, ``begin_iteration`` and ``end_iteration`` allocate
        less than one |V|-sized ``float64`` array at any moment (the
        dangling vertices' gather is all they allocate)."""
        from repro.format.tiles import TiledGraph
        from repro.graphgen.rmat import rmat

        tg = TiledGraph.from_edge_list(
            rmat(12, edge_factor=8, seed=3), tile_bits=8, group_q=4
        )
        n = tg.n_vertices
        algo = PageRank(personalization=seeds, tolerance=0.0)
        algo.setup(tg)
        with _tier(lib):
            algo.begin_iteration(0)
            algo.end_iteration(0)
            tracemalloc.start()
            try:
                for it in range(1, 4):
                    algo.begin_iteration(it)
                    algo._acc += 1e-6
                    algo.end_iteration(it)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8 * n, peak

    @pytest.mark.parametrize("lib", TIERS)
    def test_corrupt_endpoint_after_the_swap_leaves_the_accumulator(
        self, tiled_undirected, lib
    ):
        """After a run — every kernel call on the run's own arrays, whose
        compiled buffers are kept, and the rank/accumulator swap after
        every iteration — a batch with an endpoint past |V| still raises
        ``IndexError`` with the accumulator untouched."""
        algo = PageRank(max_iterations=3, tolerance=0.0)
        with _tier(lib):
            _run_algo(tiled_undirected, algo)
            algo.begin_iteration(3)
            algo._acc += 0.5
            before = algo._acc.copy()
            n = tiled_undirected.n_vertices
            tiles = TileEdges(
                np.array([1, 2, 3, 4], dtype=np.uint32), np.array([1, 1]),
                np.array([0, n], dtype=np.uint32),
                np.zeros(2, dtype=np.uint32),
            )
            with pytest.raises(IndexError, match=f"index {n + 3} is out"):
                algo.apply_partial(tiles)
            assert algo._acc.tobytes() == before.tobytes(), lib


@pytest.mark.skipif(native.lib is None, reason="the compiled tier did not load")
def test_pagerank_end_checks_before_the_first_write():
    acc, old, t = np.ones(4), np.full(4, 0.25), np.full(4, 0.25)
    for args, match in (
        ((acc, acc, None), "distinct"),
        ((acc, old[:3], None), "accumulator"),
        ((acc, old, t[:3]), "teleport"),
        ((acc, old.astype(np.float32), None), "accumulator"),
    ):
        with pytest.raises(ValueError, match=match):
            native.pagerank_end(*args, 0.5, 0.85)
        assert acc.tolist() == [1.0] * 4 and old.tolist() == [0.25] * 4


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.mark.skipif(native.lib is None, reason="the compiled tier did not load")
@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_FINITE, _FINITE, st.floats(0, 1)),
                  min_size=1, max_size=40),
    damping=st.sampled_from([0.0, 0.5, 0.85, 1.0]),
    personalised=st.booleans(),
)
@example(rows=[(-0.0, 0.0, 0.5), (0.0, -0.0, 0.5)], damping=1.0,
         personalised=False)
def test_end_iteration_tiers_agree_on_any_finite_state(rows, damping,
                                                        personalised):
    """The compiled pass against the NumPy passes on any finite state —
    signed zeros and magnitudes far apart included (every other vertex
    dangling): the same ranks, buffers and ``delta``, bit for bit."""
    acc, old, t = (np.array(col, dtype=np.float64) for col in zip(*rows))
    runs = []
    for lib in TIERS:
        algo = PageRank(damping=damping, tolerance=0.0)
        algo._teleport = t if personalised else None
        algo._acc, algo.rank = acc.copy(), old.copy()
        algo._contrib = np.empty_like(acc)
        algo._dangling = np.arange(0, acc.shape[0], 2)
        algo._held = native.Held()
        with _tier(lib), np.errstate(all="ignore"):
            algo.end_iteration(0)
        runs.append((algo.rank.tobytes(), algo._acc.tobytes(),
                     np.float64(algo.delta).tobytes()))
    assert runs[0] == runs[-1]


def _run_algo(tg, algo, checkpoint=None, **cfg):
    eng = GStoreEngine(
        tg,
        EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024, **cfg),
    )
    return algo, eng.run(algo, checkpoint=checkpoint)


class TestCheckpointLayouts:
    """A checkpoint saves every writable array (``capture_state``), so the
    in-place hooks' contribution buffer and swapped accumulator are in it;
    the layout the out-of-place hooks wrote must still resume."""

    def _resume(self, tg, writer, tmp_path, interrupt):
        from repro.errors import AlgorithmError

        clean, _ = _run_algo(tg, PageRank(max_iterations=12))
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(AlgorithmError):
            _run_algo(tg, writer, checkpoint=ckpt, max_iterations=interrupt)
        resumed, _ = _run_algo(tg, PageRank(max_iterations=12), checkpoint=ckpt)
        assert resumed.rank.tobytes() == clean.rank.tobytes()
        assert resumed.delta == clean.delta
        return ckpt

    @pytest.mark.parametrize("interrupt", [3, 4])
    def test_out_of_place_layout_resumes_to_the_same_bits(
        self, tiled_undirected, tmp_path, interrupt
    ):
        self._resume(
            tiled_undirected, _OutOfPlace(max_iterations=12), tmp_path,
            interrupt,
        )

    @pytest.mark.parametrize("interrupt", [3, 4])
    def test_checkpoint_after_the_swap_resumes_to_the_same_bits(
        self, tiled_directed, tmp_path, interrupt
    ):
        from repro.engine.checkpoint import CheckpointManager

        ckpt = self._resume(
            tiled_directed, PageRank(max_iterations=12), tmp_path, interrupt
        )
        _, arrays, _, _ = CheckpointManager(ckpt).load()
        assert {"rank", "_acc", "_contrib"} <= set(arrays)
