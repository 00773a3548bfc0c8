"""Algorithm interface for tile-based processing.

The engine drives an algorithm through a strict per-iteration protocol::

    algo.setup(graph)
    while True:
        algo.begin_iteration(k)
        ... engine selects tiles via algo.rows_active(), fetches them,
            and for each shard of a fetched batch commits
            algo.apply_partial(algo.batch_partial(shard)) ...
        if not algo.end_iteration(k):
            break

An algorithm is written once, as a kernel: ``kernel_state`` /
``kernel_params`` / ``kernel_partial`` / ``apply_partial``.  How many
tiles one kernel call covers is the engine's dispatch granularity — a
shard of the batch by default, a single tile (``process_tile``) under
``EngineConfig(fused=False)`` — never a second implementation.

``rows_active()`` reports which tile-row vertex ranges the *current*
iteration must touch (selective fetching, §V-B); ``rows_active_next()``
reports the — possibly still partial — knowledge about the *next*
iteration that proactive caching consumes (§VI-C).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import AlgorithmError
from repro.format.tiles import TiledGraph, TileView, concat_global_edges
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
    copied — a read-only shared-memory slice becomes a private array, and
    the inputs are never written — and ``intp`` input passes through.
    """
    return gsrc.astype(np.intp, copy=False), gdst.astype(np.intp, copy=False)


def chunk_by_edges(
    views: "list[TileView]", max_shards: int = SHARDS_PER_BATCH
) -> "list[list[TileView]]":
    """Split a batch into at most ``max_shards`` contiguous, edge-balanced
    chunks, none cut below ``MIN_SHARD_EDGES``
    (:func:`~repro.types.shard_pieces`).

    The split depends only on the batch contents — never on the worker
    count — so algorithms whose floating-point accumulation order follows
    the shard structure produce bit-identical results at any parallelism.
    Chunks concatenate back to the original sequence.
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

    #: True when every iteration touches the whole graph (PageRank, WCC);
    #: anchored computations (BFS) set False and rely on frontiers.
    all_active: bool = True

    def __init__(self) -> None:
        self.graph: "TiledGraph | None" = None
        self.iteration = -1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def setup(self, graph: TiledGraph) -> None:
        """Bind to a graph and allocate metadata arrays."""
        self.graph = graph
        self.iteration = -1
        self._setup()

    @abc.abstractmethod
    def _setup(self) -> None:
        """Subclass hook: allocate metadata (``self.graph`` is bound)."""

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration

    def process_tile(self, tv: TileView) -> int:
        """The kernel dispatched on one tile — what ``fused=False`` runs
        per view; returns the number of edges examined."""
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
    #: iteration, so its partials may be computed concurrently — on the
    #: thread pool or in shard workers — and committed afterwards.  A
    #: *live* kernel (SSSP, AsyncBFS) is asynchronous: each shard's
    #: partial must see every earlier shard's commit, or the relaxation
    #: degenerates from Gauss-Seidel to Jacobi and re-reads the graph for
    #: it.  Live kernels therefore always run the serial in-order sweep of
    #: :meth:`process_batch`, whatever ``workers``/``shards`` say — an
    #: algorithm property, not a configuration choice.
    live_kernel: bool = False

    def process_batch(self, views: "list[TileView]") -> int:
        """Process one fetched segment's tiles as a single batch.

        Each shard's tiles are concatenated into one kernel pass (one
        gather, one mask, one scatter per shard).  The serial path walks
        exactly the shards :func:`~repro.runtime.threads.execute_batch`
        would distribute over workers, committing partials in shard order
        — which is what makes fused results bit-identical at any worker
        count.  Returns the number of edges examined.
        """
        edges = 0
        for shard in self.shard_views(views):
            edges += self.apply_partial(self.batch_partial(shard))
        return edges

    @classmethod
    def shard_views(cls, views: "list[TileView]") -> "list[list[TileView]]":
        """Split a batch into the shards fused execution operates on.

        The default is a small number of contiguous, edge-balanced chunks —
        coarse enough that each fused kernel call amortises its setup over
        many tiles, fine enough for the dynamic worker pool to balance
        skewed rows (§VI-B).  The structure must depend only on the batch
        contents — never the worker count — because partials are committed
        in shard order and that order defines the floating-point
        accumulation sequence.  A classmethod (of the class and the batch,
        never instance state) so shard worker processes
        (:mod:`repro.runtime.shard`) chunk exactly as the coordinator
        would without holding an algorithm instance.
        """
        return chunk_by_edges(views)

    def batch_shards(self, views: "list[TileView]") -> "list[list[TileView]]":
        """The layer walk's alias of :meth:`shard_views`; nothing in
        ``src/`` calls it."""
        return type(self).shard_views(views)

    def batch_partial(self, views: "list[TileView]"):
        """Phase 1 of fused execution: the heavy, *read-only* pass.

        Runs all per-edge work (gathers, masks, per-shard reductions) over
        the concatenated shard without mutating algorithm state, so the
        engine can execute several shards concurrently (NumPy releases the
        GIL) — unless the kernel is live (:attr:`live_kernel`), in which
        case the previous shard's commit has always landed first.  Returns
        an opaque partial for :meth:`apply_partial`.

        The default concatenates the shard's global endpoint arrays and
        hands them to :meth:`kernel_partial` with the current state and
        params — all a kernel over ``(gsrc, gdst)`` needs; override only
        to feed the kernel more (SSSP adds the shard's edge weights).
        """
        gsrc, gdst = concat_global_edges(views)
        return self.kernel_partial(
            self.kernel_state(), self.kernel_params(), gsrc, gdst
        )

    @abc.abstractmethod
    def apply_partial(self, partial) -> int:
        """Phase 2 of fused execution: commit a partial's updates.

        Called from the engine thread, in shard order, so every update
        lands in a deterministic sequence: results are bit-identical across
        worker counts and run-to-run.  Kernels whose updates commute
        exactly (constant writes, integer decrements, idempotent minima —
        BFS, CC, k-core) additionally match per-tile dispatch bit-for-bit;
        float-accumulating kernels (PageRank, SpMV) match it up to
        floating-point reassociation, the standard parallel-reduction
        contract.  Returns the number of edges the partial covered.
        """

    # ------------------------------------------------------------------ #
    # Pure-kernel half of the fused contract (what shard workers run)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def kernel_state(self) -> "dict[str, np.ndarray]":
        """The vertex-state arrays :meth:`kernel_partial` reads.

        A name -> array mapping, snapshotted at iteration start; the
        shard coordinator copies each array into the shared-memory arena
        once per iteration and workers map them back as read-only views
        (the ``(shm name, offset, dtype, shape)`` data-placement
        contract).  Arrays must be 1-D, contiguous, and *frozen* while
        a partial is computed from them — exactly the read-only
        guarantee :meth:`batch_partial` already makes.
        """

    @abc.abstractmethod
    def kernel_params(self) -> "dict[str, object]":
        """Frozen per-iteration scalars for :meth:`kernel_partial`.

        Small and picklable (ints, floats, bools) — these travel with
        each scatter message, unlike the array payloads, which go through
        shared memory.
        """

    @staticmethod
    @abc.abstractmethod
    def kernel_partial(
        state: "dict[str, np.ndarray]",
        params: "dict[str, object]",
        gsrc: np.ndarray,
        gdst: np.ndarray,
    ):
        """Pure form of :meth:`batch_partial`: no ``self``, arrays in.

        Given the state snapshot, frozen params, and a shard's
        concatenated global endpoint arrays, return the same partial
        :meth:`batch_partial` would.  Implementations must be pure
        functions of their arguments (they run in shard worker processes
        where ``self`` does not exist) and must not mutate ``state`` or
        the endpoint arrays (both may be read-only shared memory).
        :meth:`batch_partial` routes through this, so per-tile, serial,
        threaded, and sharded execution share one kernel implementation.

        The endpoints arrive as ``VERTEX_DTYPE`` (``uint32``), as the
        decoder writes them.  A *gather* kernel (state indexed by
        endpoint: BFS, SSSP, CC, ...) widens them with :func:`gather_ids`
        before anything else; a *scatter* kernel (PageRank, SpMV, SCC's
        degrees) hands them to
        :func:`~repro.algorithms.pagerank.scatter_sums`, which views them
        as ``int32`` without a copy.
        """

    # ------------------------------------------------------------------ #
    # Activity predicates (selective I/O + proactive caching)
    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """Per-tile-row activity for the current iteration (all by default)."""
        return np.ones(self._n_rows(), dtype=bool)

    def rows_active_next(self) -> np.ndarray:
        """Currently known per-row activity for the *next* iteration.

        All-active algorithms reuse everything (the paper: "for PageRank,
        all of the graph data would be utilized for the next iteration").
        """
        return np.ones(self._n_rows(), dtype=bool)

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
