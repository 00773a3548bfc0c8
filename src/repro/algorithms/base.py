"""Algorithm interface for tile-based processing.

The engine drives an algorithm through a strict per-iteration protocol::

    algo.setup(graph)
    while True:
        algo.begin_iteration(k)
        ... engine selects tiles via algo.rows_active(), fetches them,
            and for each shard [a, b) of a fetched batch commits
            algo.apply_partial(algo.shard_partial(batch, a, b)) ...
        if not algo.end_iteration(k):
            break

An algorithm is written once, as a kernel of two methods:
``kernel_partial(gsrc, gdst)`` reads the algorithm's own arrays and
scalars where they live and returns a partial, and ``apply_partial``
commits it.  A kernel that reads tile form (:attr:`TileAlgorithm.reads_ids`
false: the scatter kernels and the traversals) is handed the shard as the
slide holds it instead, ``kernel_partial(tiles)``, and never widens it.
The engine calls it once per shard of a fetched batch
(:func:`~repro.runtime.threads.execute_batch`), and an answer must not
depend on where the shards are cut (:meth:`TileAlgorithm.apply_partial`).

``rows_active()`` reports which tile-row vertex ranges the *current*
iteration must touch (selective fetching, §V-B); ``rows_active_next()``
reports the — possibly still partial — knowledge about the *next*
iteration that proactive caching consumes (§VI-C).  Both are state the
base class keeps, ``_rows_now`` and ``_rows_next``: every row until an
algorithm starts a frontier (:meth:`TileAlgorithm._start_frontier`), and
from then on the rows its commits mark, advanced once per iteration
(:meth:`TileAlgorithm._advance_frontier`) — never a fold of a vertex mask
per batch.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.algorithms import native
from repro.errors import AlgorithmError
from repro.format.tiles import DecodedBatch, TiledGraph, TileView
from repro.memory.proactive import row_activity_from_vertices
from repro.types import SHARDS_PER_BATCH, shard_pieces


def gather_ids(
    gsrc: np.ndarray, gdst: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """A shard's endpoint arrays as ``intp``, the index dtype every gather
    kernel calls first.

    The decoder emits ``VERTEX_DTYPE`` (``uint32``) IDs, and NumPy fancy
    indexing with any index dtype but ``intp`` takes a slow path that
    converts the index on every gather: ``state[gsrc]`` over 20 000
    ``uint32`` IDs costs ≈ 59 µs against ≈ 8 µs to widen once plus
    ≈ 29 µs per ``intp`` gather (2-CPU Xeon, docs/PERFORMANCE.md "Gather
    kernels index with ``intp``").  Widening once per
    kernel call pays the conversion once for all of the kernel's gathers,
    mask selections and the commit's scatters.  ``uint32`` input is
    copied — the inputs are never written — and ``intp`` input passes
    through.
    """
    return gsrc.astype(np.intp, copy=False), gdst.astype(np.intp, copy=False)


def chunk_by_edges(
    views: "list[TileView]", max_shards: int = SHARDS_PER_BATCH
) -> "list[list[TileView]]":
    """Split a batch into at most ``max_shards`` contiguous, edge-balanced
    chunks, none cut below ``MIN_SHARD_EDGES``
    (:func:`~repro.types.shard_pieces`).

    The split depends only on the batch contents — never on the worker
    count — so a live kernel, whose relaxation order follows the shard
    structure, does the same work at any parallelism.
    Chunks concatenate back to the original sequence.  The engine cuts a
    decoded batch by the same arithmetic on edge counts
    (:func:`~repro.format.tiles.shard_cuts`); this list-of-views form is
    kept for :meth:`TileAlgorithm.batch_shards` and as the reference the
    tests hold those cuts to.
    """
    views = list(views)
    if not views:
        return []
    counts = [tv.lsrc.shape[0] for tv in views]
    total = sum(counts)
    max_shards = shard_pieces(max_shards, total)
    if len(views) <= 1 or max_shards <= 1:
        return [views]
    target = max(1, -(-total // max_shards))  # ceil
    shards: "list[list[TileView]]" = []
    cur: "list[TileView]" = []
    cur_edges = 0
    for tv, c in zip(views, counts):
        cur.append(tv)
        cur_edges += c
        if cur_edges >= target and len(shards) < max_shards - 1:
            shards.append(cur)
            cur, cur_edges = [], 0
    if cur:
        shards.append(cur)
    return shards


class TileAlgorithm(abc.ABC):
    """Base class for algorithms executed over G-Store tiles."""

    #: Cost-model key; subclasses override.
    name: str = "default"

    def __init__(self) -> None:
        self.graph: "TiledGraph | None" = None
        self.iteration = -1
        #: The compiled tier's buffers of the run's arrays.
        self._held = native.Held()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def setup(self, graph: TiledGraph) -> None:
        """Bind to a graph and allocate metadata arrays."""
        self.graph = graph
        self.iteration = -1
        # The default activity of every row: one read-only array per run,
        # so all-active callers allocate nothing per batch.
        self._all_rows = np.ones(graph.p, dtype=bool)
        self._all_rows.flags.writeable = False
        #: Row activity of this iteration and of the next, the latter
        #: marked where commits land: every row until a frontier starts.
        self._rows_now = self._rows_next = self._all_rows
        self._held = native.Held()
        self._setup()

    @abc.abstractmethod
    def _setup(self) -> None:
        """Subclass hook: allocate metadata (``self.graph`` is bound)."""

    def begin_iteration(self, iteration: int) -> None:
        """Number the iteration; with a frontier started, the next
        iteration's rows start empty, in a fresh array (a caller may keep
        the last one)."""
        self.iteration = iteration
        if self._rows_next is not self._all_rows:
            self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    def process_tile(self, tv: TileView) -> int:
        """The kernel on one tile; returns the number of edges examined.
        Called by nothing in ``src/``; kept only because
        ``benchmarks/perf/layer_walk.py`` calls it."""
        return self.apply_partial(self.batch_partial([tv]))

    @abc.abstractmethod
    def end_iteration(self, iteration: int) -> bool:
        """Finish the iteration; return True to run another."""

    # ------------------------------------------------------------------ #
    # Fused batch execution (§VI-B)
    # ------------------------------------------------------------------ #

    #: Constant: every algorithm is a kernel.  Read by nothing in ``src/``;
    #: kept only because ``benchmarks/perf/layer_walk.py`` reads it.
    supports_fused: bool = True

    #: Which of the two kernel kinds an algorithm is.  A *snapshot*
    #: kernel (the default) reads only state that is frozen for the
    #: iteration, so its partials may be computed concurrently on the
    #: thread pool and committed afterwards.  A
    #: *live* kernel (SSSP, AsyncBFS) is asynchronous: each shard's
    #: partial must see every earlier shard's commit, or the relaxation
    #: degenerates from Gauss-Seidel to Jacobi and re-reads the graph for
    #: it.  Live kernels therefore always run the serial in-order sweep of
    #: :func:`~repro.runtime.threads.execute_batch` — an algorithm
    #: property, not a configuration choice.
    live_kernel: bool = False

    #: True when :meth:`shard_cuts` makes the whole batch one shard: where
    #: the commit does all of a kernel's per-edge work (the scatter
    #: kernels: PageRank, SpMV, SCC's degrees add straight into their
    #: accumulator, :func:`~repro.algorithms.pagerank.scatter_add`), so
    #: cutting a batch would only add commits, and where alternated pairs
    #: show one commit per batch is faster (k-core, and BFS's and
    #: Reachability's discovery, which then read the layout's own tile
    #: arrays).
    one_shard: bool = False

    #: False for a kernel that never reads a batch's global IDs: the
    #: scatter kernels add straight from the SNB payload and the
    #: traversals (BFS, Reachability, SSSP, AsyncBFS) discover and relax
    #: straight from it, so their :meth:`kernel_partial` takes the shard
    #: in tile form (:meth:`~repro.format.tiles.DecodedBatch.tile_edges`)
    #: and a batch they run is never widened.  CC, k-core, MIS and
    #: MultiBFS still read IDs; the engine widens ahead on the prefetch
    #: thread only for a kernel that does.
    reads_ids: bool = True

    @property
    def pooled(self) -> bool:
        """The kernel's declaration that its shard partials run faster
        on the engine's thread pool (§VI-B) than on the engine thread —
        made only where alternated pairs show it, never by a live or
        :attr:`one_shard` kernel.  There is no setting; results are
        bit-identical either way."""
        return False

    @classmethod
    def shard_cuts(cls, batch: DecodedBatch) -> np.ndarray:
        """Where a batch is cut into the shards fused execution operates
        on, as batch-edge offsets ``[0, ..., n_edges]``.

        The default is the batch's own cuts
        (:func:`~repro.format.tiles.shard_cuts`): a small number of
        contiguous, edge-balanced shards — coarse enough that each fused
        kernel call amortises its setup over many tiles, fine enough for
        the dynamic worker pool to balance skewed rows (§VI-B).  The
        structure must depend only on the batch contents — never the
        worker count — because partials are committed in shard order and
        a live kernel relaxes in that order.  A classmethod: the cut is a
        function of the class and the batch, never of instance state.  A
        :attr:`one_shard` kernel takes the whole batch as one shard.
        """
        if cls.one_shard:
            return np.array([0, batch.n_edges], dtype=np.int64)
        return batch.cuts

    def shard_partial(self, batch: DecodedBatch, a: int, b: int):
        """Phase 1 of fused execution: the heavy, *read-only* pass over
        edges ``[a, b)`` of ``batch``.

        Runs all per-edge work (gathers, masks, per-shard reductions) over
        the shard without mutating algorithm state, so the engine can
        execute several shards concurrently (NumPy releases the GIL) —
        unless the kernel is live (:attr:`live_kernel`), in which case the
        previous shard's commit has always landed first.  Returns an
        opaque partial for :meth:`apply_partial`.

        The default hands the shard's global endpoint arrays — zero-copy
        slices of the batch's — to :meth:`kernel_partial`: all a kernel
        over ``(gsrc, gdst)`` needs; override only to feed the kernel more
        (SSSP adds the shard's edge weights, :meth:`DecodedBatch.side`).
        A kernel that does not :attr:`reads_ids` is handed the shard in
        tile form, zero-copy slices of the batch's payload.
        """
        if not self.reads_ids:
            return self.kernel_partial(batch.tile_edges(a, b))
        return self.kernel_partial(batch.gsrc[a:b], batch.gdst[a:b])

    def batch_shards(self, views: "list[TileView]") -> "list[list[TileView]]":
        """:func:`chunk_by_edges` of a list of views.  Nothing in ``src/``
        calls it; kept only because ``benchmarks/perf/layer_walk.py``
        does."""
        return chunk_by_edges(views)

    def batch_partial(self, views: "list[TileView]"):
        """:meth:`shard_partial` over a list of views, taken as one shard.
        Nothing in ``src/`` calls it but :meth:`process_tile`; kept only
        because ``benchmarks/perf/layer_walk.py`` does."""
        batch = DecodedBatch.of_views(views)
        return self.shard_partial(batch, 0, batch.n_edges)

    @abc.abstractmethod
    def kernel_partial(self, gsrc: np.ndarray, gdst: np.ndarray):
        """Phase 1 of fused execution on a shard's global endpoint arrays:
        the per-edge work, reading the algorithm's own arrays and scalars
        and writing none of them (nor the endpoints, which are slices of
        the batch, shared by the pool threads computing its other shards).
        Returns the partial :meth:`apply_partial` commits.

        The endpoints arrive as ``VERTEX_DTYPE`` (``uint32``), as the
        widen writes them.  A *gather* kernel that reads IDs (CC, k-core,
        MIS, MultiBFS) widens them to ``intp`` with :func:`gather_ids`
        before anything else.  A kernel that does not :attr:`reads_ids` is
        called as ``kernel_partial(tiles)`` with the shard's
        :class:`~repro.format.tiles.TileEdges`: BFS's and Reachability's
        discovery passes read it in C (their NumPy bodies widen it
        first); a *scatter* kernel (PageRank, SpMV, SCC's degrees) and a
        live relaxation (SSSP, AsyncBFS), which have no read-only half,
        return it as it is, and their commit hands it to
        :func:`~repro.algorithms.pagerank.scatter_add` or
        :func:`~repro.algorithms.native.rounds`, whose compiled loop adds
        each tile's bases to the stored locals as it goes.
        """

    @abc.abstractmethod
    def apply_partial(self, partial) -> int:
        """Phase 2 of fused execution: commit a partial's updates.

        Called from the engine thread, in shard order, so every update
        lands in a deterministic sequence: results are bit-identical across
        worker counts and run-to-run.  The answer must not depend on how a
        batch is cut into shards.  Kernels whose updates commute exactly
        (constant writes, integer decrements, idempotent minima — BFS, CC,
        k-core) give the same bits, edge count and iteration count for any
        contiguous cut, down to one edge per shard, and so do the
        float-accumulating ones (PageRank, SpMV), whose commit adds edge
        after edge in plan order (:func:`~repro.algorithms.pagerank.scatter_add`),
        so a cut never reorders a sum; live kernels (SSSP, AsyncBFS)
        converge to the same distances.  Returns the number of edges the
        partial covered.
        """

    # ------------------------------------------------------------------ #
    # Activity predicates (selective I/O + proactive caching)
    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """Per-tile-row activity for the current iteration: every row (one
        read-only array) until a frontier starts, then the rows the
        previous iteration's commits marked."""
        return self._rows_now

    def rows_active_next(self) -> np.ndarray:
        """Currently known per-row activity for the *next* iteration.

        All-active algorithms reuse everything (the paper: "for PageRank,
        all of the graph data would be utilized for the next iteration"):
        every row, as one read-only array.  Once a frontier starts, the
        rows this iteration's commits have marked so far (never rescanned),
        in an array fresh every iteration.
        """
        return self._rows_next

    def cols_active(self) -> "np.ndarray | None":
        """Per-*column* activity for algorithms that traverse a directed
        graph's stored tuples backwards (dst -> src).  None (the default)
        means the row predicate alone decides tile selection."""
        return None

    def cols_active_next(self) -> "np.ndarray | None":
        """Next-iteration column activity for proactive caching."""
        return None

    def tile_mask(
        self, tile_rows: np.ndarray, tile_cols: np.ndarray
    ) -> "np.ndarray | None":
        """Optional exact per-tile selection predicate.

        When an algorithm can say *more* than the row/column OR-predicate
        — e.g. direction-optimised BFS needs a tile only when a frontier
        range meets an unvisited range — it returns the boolean mask
        directly and the engine intersects it with tile non-emptiness.
        None (default) falls back to the row/column predicates.
        """
        return None

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _n_rows(self) -> int:
        return self._graph().p

    def _graph(self) -> TiledGraph:
        if self.graph is None:
            raise AlgorithmError(f"{type(self).__name__} not set up with a graph")
        return self.graph

    def _rows_of_vertices(self, active_mask: np.ndarray) -> np.ndarray:
        g = self._graph()
        return row_activity_from_vertices(active_mask, g.p, g.tile_bits)

    def _start_frontier(self, vertices: np.ndarray) -> None:
        """Select by frontier from here on: the coming iteration reads the
        rows of ``vertices`` (a vertex mask), and each later one the rows
        the commits before it marked in :meth:`rows_active_next`."""
        self._rows_now = self._rows_of_vertices(vertices)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    def _advance_frontier(self) -> bool:
        """At ``end_iteration``: the rows this iteration's commits marked
        become the next iteration's :meth:`rows_active`, so the engine's
        end-of-iteration cache analysis already sees them.  Returns
        whether any row was marked."""
        self._rows_now = self._rows_next
        return bool(self._rows_now.any())

    @property
    def symmetric(self) -> bool:
        """True when the bound graph stores only the upper triangle, so
        kernels must process each tuple in both directions (Algorithm 1)."""
        return self._graph().info.symmetric

    @property
    def direction_passes(self) -> int:
        """How many direction passes each stored tuple costs in compute.

        Symmetric storage halves the tuples but each tuple is examined in
        both directions (Algorithm 1's extra lines), so the *work* per
        stored tuple doubles — the cost model must see that to stay fair
        against baselines that store both orientations.
        """
        return 2 if self.symmetric else 1

    def metadata_bytes(self) -> int:
        """Resident metadata footprint; subclasses refine."""
        return 0

    @abc.abstractmethod
    def result(self):
        """The algorithm's output (depths, ranks, component labels, ...)."""
