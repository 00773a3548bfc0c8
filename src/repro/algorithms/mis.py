"""Maximal independent set via Luby's algorithm (extension workload).

Luby's classic parallel MIS maps cleanly onto tile processing: every
undecided vertex holds a random priority; a vertex joins the set when its
priority beats every undecided neighbour's, and its neighbours drop out.
Each round needs one sweep over the tiles touching undecided vertices —
another all-rounds-shrinking workload for the selective-I/O machinery,
converging in O(log n) rounds with high probability.

Priorities are a deterministic hash of (seed, round, vertex), so results
are reproducible and identical across engines.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TileAlgorithm
from repro.format.tiles import TileView

_UNDECIDED = 0
_IN_SET = 1
_OUT = 2


def _priorities(seed: int, rnd: int, n: int) -> np.ndarray:
    """Deterministic per-round random priorities (uint64 hash)."""
    v = np.arange(n, dtype=np.uint64)
    x = v * np.uint64(0x9E3779B97F4A7C15) + np.uint64(
        (seed * 1_000_003 + rnd) & 0xFFFFFFFF
    )
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return x


class MaximalIndependentSet(TileAlgorithm):
    """Luby's MIS over tiles (undirected semantics).

    Known accounting gap: :meth:`_knockout`'s end-of-round scan over the
    whole graph runs off-engine, so its reads are not charged to
    ``bytes_read`` / ``sim_s``.
    """

    name = "cc"  # comparable per-edge work to label propagation
    all_active = False

    def __init__(self, seed: int = 1, max_iterations: int = 10_000) -> None:
        super().__init__()
        self.seed = int(seed)
        self.max_iterations = int(max_iterations)
        self.state: "np.ndarray | None" = None
        self._prio: "np.ndarray | None" = None
        self._beaten: "np.ndarray | None" = None
        self.rounds = 0

    @property
    def direction_passes(self) -> int:
        return 2  # neighbour comparison flows both ways on every tuple

    def _setup(self) -> None:
        g = self._graph()
        self.state = np.full(g.n_vertices, _UNDECIDED, dtype=np.uint8)
        # Isolated vertices join immediately (no neighbours to beat).
        deg = (
            g.out_degrees.astype(np.int64) + g.in_degrees.astype(np.int64)
            if g.info.directed
            else g.out_degrees.astype(np.int64)
        )
        self.state[deg == 0] = _IN_SET
        self._beaten = np.zeros(g.n_vertices, dtype=bool)
        self.rounds = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        g = self._graph()
        self._prio = _priorities(self.seed, iteration, g.n_vertices)
        # Decided vertices never beat anyone and cannot be beaten.
        self._beaten.fill(False)

    def process_tile(self, tv: TileView) -> int:
        state = self.state
        prio = self._prio
        beaten = self._beaten
        gsrc, gdst = tv.global_edges()
        und = (state[gsrc] == _UNDECIDED) & (state[gdst] == _UNDECIDED)
        if und.any():
            s = gsrc[und]
            d = gdst[und]
            ps = prio[s]
            pd = prio[d]
            # The lower-priority endpoint is beaten (ties break by ID,
            # impossible here since the hash is injective per round for
            # distinct vertices... except collisions; break by ID then).
            s_loses = (ps < pd) | ((ps == pd) & (s < d))
            beaten[s[s_loses]] = True
            beaten[d[~s_loses]] = True
        return tv.n_edges

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    supports_fused = True

    def kernel_state(self):
        return {"state": self.state, "prio": self._prio}

    def kernel_params(self):
        return {}

    @staticmethod
    def kernel_partial(state, params, gsrc, gdst):
        """The losing endpoint of every undecided-undecided edge of the
        shard (read-only).  ``state`` and the priorities are frozen for
        the round and marking a vertex beaten is idempotent, so the result
        is independent of tile order, batching, and sharding."""
        st = state["state"]
        prio = state["prio"]
        edges = int(gsrc.shape[0])
        und = (st[gsrc] == _UNDECIDED) & (st[gdst] == _UNDECIDED)
        if not und.any():
            return None, edges
        s = gsrc[und]
        d = gdst[und]
        ps = prio[s]
        pd = prio[d]
        s_loses = (ps < pd) | ((ps == pd) & (s < d))
        return np.concatenate([s[s_loses], d[~s_loses]]), edges

    def apply_partial(self, partial) -> int:
        beaten, edges = partial
        if beaten is not None:
            self._beaten[beaten] = True
        return edges

    def end_iteration(self, iteration: int) -> bool:
        state = self.state
        winners = (state == _UNDECIDED) & ~self._beaten
        if winners.any():
            state[winners] = _IN_SET
        self.rounds = iteration + 1
        # Winners' neighbours must leave the set before the next round
        # draws priorities; that takes one more edge sweep, run here.
        self._knockout(winners)
        undecided = self.state == _UNDECIDED
        return bool(undecided.any()) and self.rounds < self.max_iterations

    def _knockout(self, winners: np.ndarray) -> None:
        """Move undecided neighbours of fresh winners to OUT."""
        if not winners.any():
            return
        g = self._graph()
        state = self.state
        if g.payload is not None:
            tiles = g.iter_tiles()
        else:  # pragma: no cover - semi-external fallback via store
            from repro.storage.file import TileStore

            store = TileStore.from_tiled_graph(g)
            def _gen():
                for pos in range(g.n_tiles):
                    if g.start_edge.edge_count(pos) == 0:
                        continue
                    off, size = g.start_edge.byte_extent(pos)
                    yield g.view_from_bytes(pos, store.read(off, size))
            tiles = _gen()
        for tv in tiles:
            gsrc, gdst = tv.global_edges()
            hit = winners[gsrc] & (state[gdst] == _UNDECIDED)
            if hit.any():
                state[gdst[hit]] = _OUT
            hit = winners[gdst] & (state[gsrc] == _UNDECIDED)
            if hit.any():
                state[gsrc[hit]] = _OUT

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        return self._rows_of_vertices(self.state == _UNDECIDED)

    def rows_active_next(self) -> np.ndarray:
        return self._rows_of_vertices(self.state == _UNDECIDED)

    def in_set(self) -> np.ndarray:
        """Vertex IDs of the maximal independent set."""
        return np.nonzero(self.state == _IN_SET)[0]

    def metadata_bytes(self) -> int:
        return int(self.state.nbytes + self._beaten.nbytes)

    def result(self) -> np.ndarray:
        """Boolean membership mask."""
        return self.state == _IN_SET
