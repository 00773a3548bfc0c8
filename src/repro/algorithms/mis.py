"""Maximal independent set via Luby's algorithm (extension workload).

Luby's classic parallel MIS maps cleanly onto tile processing: every
undecided vertex holds a random priority; a vertex joins the set when its
priority beats every undecided neighbour's, and its neighbours drop out.
A round is two engine iterations, both selective: *compete* sweeps the
tiles touching undecided vertices, *knock* sweeps the tiles touching that
round's winners and moves their undecided neighbours out — so every byte
either phase reads is fetched and charged by the engine.  Another
all-rounds-shrinking workload for the selective-I/O machinery, converging
in O(log n) rounds with high probability.

Priorities are a deterministic hash of (seed, round, vertex), so results
are reproducible and identical across engines.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TileAlgorithm, gather_ids

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
    """Luby's MIS over tiles (undirected semantics).  ``max_iterations``
    bounds rounds; the engine runs two iterations per round."""

    name = "cc"  # comparable per-edge work to label propagation
    all_active = False

    def __init__(self, seed: int = 1, max_iterations: int = 10_000) -> None:
        super().__init__()
        self.seed = int(seed)
        self.max_iterations = int(max_iterations)
        self.state: "np.ndarray | None" = None
        self._prio: "np.ndarray | None" = None
        #: This sweep's marks: who lost a comparison (compete), who has a
        #: winner for a neighbour (knock).  ``state`` is frozen meanwhile.
        self._beaten: "np.ndarray | None" = None
        self._winners: "np.ndarray | None" = None
        #: Phase of the coming (or running) iteration: compete, or knock
        #: this round's winners' neighbours out.
        self._knock = False
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
        self._winners = np.zeros(g.n_vertices, dtype=bool)
        self._knock = False
        self.rounds = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        if not self._knock:
            self._prio = _priorities(
                self.seed, self.rounds, self._graph().n_vertices
            )
        # Decided vertices never beat anyone and cannot be beaten.
        self._beaten.fill(False)

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """The vertices the shard's edges beat (read-only): competing, the
        losing endpoint of every undecided-undecided edge; knocking, every
        undecided neighbour of a winner.  State, winners and priorities
        are frozen for the iteration and marking a vertex beaten is
        idempotent, so the result is independent of tile order, batching,
        and sharding."""
        gsrc, gdst = gather_ids(gsrc, gdst)
        st = self.state
        edges = int(gsrc.shape[0])
        if self._knock:
            winners = self._winners
            return np.concatenate([
                gdst[winners[gsrc] & (st[gdst] == _UNDECIDED)],
                gsrc[winners[gdst] & (st[gsrc] == _UNDECIDED)],
            ]), edges
        prio = self._prio
        und = (st[gsrc] == _UNDECIDED) & (st[gdst] == _UNDECIDED)
        und &= gsrc != gdst  # a self-loop competes with nobody
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
        # The phase flips here, not in begin_iteration: the engine's
        # end-of-iteration cache analysis asks rows_active() right after,
        # and must be told what the *next* sweep reads.
        state = self.state
        if self._knock:
            state[self._beaten] = _OUT
            self._knock = False
            return (
                bool((state == _UNDECIDED).any())
                and self.rounds < self.max_iterations
            )
        np.logical_and(state == _UNDECIDED, ~self._beaten, out=self._winners)
        state[self._winners] = _IN_SET
        self.rounds += 1
        # Winners' neighbours must leave the set before the next round
        # draws priorities; that takes one more edge sweep — the knock.
        # No winner means nobody is left undecided (the largest-priority
        # undecided vertex always wins); stopping here is the guard.
        self._knock = bool(self._winners.any())
        return self._knock

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        if self._knock:
            return self._rows_of_vertices(self._winners)
        return self._rows_of_vertices(self.state == _UNDECIDED)

    def cols_active(self) -> "np.ndarray | None":
        # A directed graph stores each edge once, in its own orientation:
        # a winner's in-neighbours sit in its tile *column*.
        if self._knock and self._graph().info.directed:
            return self._rows_of_vertices(self._winners)
        return None

    def rows_active_next(self) -> np.ndarray:
        return self._rows_of_vertices(self.state == _UNDECIDED)

    def in_set(self) -> np.ndarray:
        """Vertex IDs of the maximal independent set."""
        return np.nonzero(self.state == _IN_SET)[0]

    def metadata_bytes(self) -> int:
        return int(
            self.state.nbytes + self._beaten.nbytes + self._winners.nbytes
        )

    def result(self) -> np.ndarray:
        """Boolean membership mask."""
        return self.state == _IN_SET
