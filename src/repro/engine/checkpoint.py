"""Iteration-granular checkpoint/resume for engine runs (docs/RELIABILITY.md).

A checkpoint captures an algorithm's state at an *iteration boundary* —
immediately after ``end_iteration(k)`` decided to continue — which is the
one point where every algorithm's transient per-iteration scratch (frontier
buffers, accumulators being built) is either empty or fully folded into its
persistent arrays.  Resuming constructs the engine and algorithm normally,
replays ``setup()``, restores the saved arrays and scalars, and continues
from iteration ``k + 1``; because tile kernels are deterministic, the final
result arrays are bit-identical to an uninterrupted run.  (I/O statistics
are *not* part of the contract: a resumed run starts with a cold cache
pool, so its byte counters legitimately differ.)

Layout: a checkpoint is a directory holding ``state.npz`` (every ndarray
attribute of the algorithm) and ``meta.json`` (scalar attributes plus the
identity header: algorithm name, graph name, iteration).  Writes are
atomic — each file is written to a temporary name and ``os.replace``\\ d —
and ``meta.json`` is replaced last, so a crash mid-checkpoint leaves the
previous complete checkpoint behind, never a torn one.  The iteration
number is stored in both files and cross-checked on load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError

_STATE_FILE = "state.npz"
_META_FILE = "meta.json"
#: Scalar types meta.json can round-trip faithfully (json keeps Infinity).
_SCALARS = (bool, int, float, str)


def capture_state(algorithm) -> "tuple[dict, dict]":
    """Split an algorithm's instance attributes into (arrays, scalars).

    Arrays go to ``state.npz``; json-safe scalars (including ``None`` and
    empty lists, which are what per-iteration scratch buffers look like at
    a boundary) go to ``meta.json``.  The graph reference and any other
    non-serialisable attribute (dicts, rich objects) are skipped — they
    are reconstructed by ``setup()`` on resume — and so are read-only
    arrays, which no run can have changed from what ``setup()`` built.
    """
    arrays: "dict[str, np.ndarray]" = {}
    scalars: "dict[str, object]" = {}
    for key, value in vars(algorithm).items():
        if key == "graph":
            continue
        if isinstance(value, np.ndarray):
            if value.flags.writeable:
                arrays[key] = value
        elif isinstance(value, np.generic):
            scalars[key] = value.item()
        elif value is None or isinstance(value, _SCALARS):
            scalars[key] = value
        elif isinstance(value, list) and not value:
            scalars[key] = []
    return arrays, scalars


class CheckpointManager:
    """Atomic save/restore of algorithm state at iteration boundaries."""

    def __init__(self, directory: "str | os.PathLike"):
        self.directory = os.fspath(directory)

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #

    def save(
        self,
        algorithm,
        graph_name: str,
        iteration: int,
        engine_state: "dict | None" = None,
    ) -> None:
        """Persist the state reached at the end of ``iteration``.

        ``engine_state`` carries json-safe engine-side state alongside the
        algorithm's — the cache pool's resident tile positions, in
        particular, so a resumed run replays the same rewind/slide batch
        structure (and hence the same floating-point accumulation order)
        as the uninterrupted one.
        """
        os.makedirs(self.directory, exist_ok=True)
        arrays, scalars = capture_state(algorithm)
        state_path = os.path.join(self.directory, _STATE_FILE)
        meta_path = os.path.join(self.directory, _META_FILE)
        tmp_state = state_path + ".tmp"
        tmp_meta = meta_path + ".tmp"
        np.savez(
            tmp_state,
            __iteration__=np.array([iteration], dtype=np.int64),
            **arrays,
        )
        # np.savez appends .npz to names without it; normalise.
        if not os.path.exists(tmp_state) and os.path.exists(tmp_state + ".npz"):
            tmp_state += ".npz"
        meta = {
            "algorithm": algorithm.name,
            "graph": graph_name,
            "iteration": iteration,
            "scalars": scalars,
            "engine": engine_state or {},
        }
        with open(tmp_meta, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
        os.replace(tmp_state, state_path)
        os.replace(tmp_meta, meta_path)  # the commit point

    # ------------------------------------------------------------------ #
    # Load / restore
    # ------------------------------------------------------------------ #

    def exists(self) -> bool:
        return os.path.exists(os.path.join(self.directory, _META_FILE))

    def load(self) -> "tuple[int, dict, dict, dict] | None":
        """Read the checkpoint; returns ``(iteration, arrays, scalars,
        engine_state)`` or ``None`` when the directory holds no complete
        checkpoint."""
        meta_path = os.path.join(self.directory, _META_FILE)
        state_path = os.path.join(self.directory, _STATE_FILE)
        if not os.path.exists(meta_path):
            return None
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint metadata: {exc}",
                context={"path": meta_path},
            ) from exc
        try:
            with np.load(state_path) as z:
                arrays = {k: z[k].copy() for k in z.files if k != "__iteration__"}
                state_iter = int(z["__iteration__"][0])
        except (OSError, ValueError, KeyError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint state: {exc}",
                context={"path": state_path},
            ) from exc
        if state_iter != meta["iteration"]:
            raise CheckpointError(
                "checkpoint state/metadata iteration mismatch (torn write?)",
                context={
                    "path": self.directory,
                    "meta_iteration": meta["iteration"],
                    "state_iteration": state_iter,
                },
            )
        self._meta = meta
        return meta["iteration"], arrays, meta["scalars"], meta.get("engine", {})

    def restore(
        self, algorithm, graph_name: str, arrays: dict, scalars: dict
    ) -> None:
        """Apply loaded state onto a freshly ``setup()`` algorithm."""
        meta = self._meta
        if meta["algorithm"] != algorithm.name:
            raise CheckpointError(
                "checkpoint belongs to a different algorithm",
                context={
                    "checkpoint": meta["algorithm"],
                    "running": algorithm.name,
                },
            )
        if meta["graph"] != graph_name:
            raise CheckpointError(
                "checkpoint belongs to a different graph",
                context={"checkpoint": meta["graph"], "running": graph_name},
            )
        for key, value in arrays.items():
            setattr(algorithm, key, value)
        for key, value in scalars.items():
            setattr(algorithm, key, value)


# ---------------------------------------------------------------------- #
# Validation (the `repro fsck --checkpoint` surface)
# ---------------------------------------------------------------------- #


@dataclass
class CheckpointReport:
    """Result of :func:`check_checkpoint` — the checkpoint fsck.

    Mirrors the tile-format check report's exit-code contract (see
    ``repro fsck``): ``present=False`` means "nothing to verify" (exit
    2); ``present`` with problems means corruption (exit 1); a clean
    report exits 0.
    """

    directory: str
    present: bool = False
    problems: "list[str]" = field(default_factory=list)
    algorithm: "str | None" = None
    graph: "str | None" = None
    iteration: "int | None" = None
    arrays: int = 0
    cached_tiles: int = 0

    @property
    def ok(self) -> bool:
        return self.present and not self.problems

    def __str__(self) -> str:
        if not self.present:
            return f"checkpoint {self.directory}: not found"
        head = (
            f"checkpoint {self.directory}: algorithm={self.algorithm} "
            f"graph={self.graph} iteration={self.iteration} "
            f"arrays={self.arrays} cached_tiles={self.cached_tiles}"
        )
        if self.ok:
            return head + "\n  OK"
        return head + "".join(f"\n  PROBLEM: {p}" for p in self.problems)


def check_checkpoint(directory: "str | os.PathLike", graph=None) -> CheckpointReport:
    """Validate a checkpoint directory's integrity without restoring it.

    Checks ``meta.json`` parses and carries the identity header,
    ``state.npz`` loads, the iteration cross-check holds (a torn write
    leaves them disagreeing), and — when ``graph`` (a tiled graph) is
    given — that the saved cache-pool membership is consistent: tile
    positions must be unique integers inside the tile grid that address
    non-empty tiles, and the graph names must match.
    """
    rep = CheckpointReport(directory=os.fspath(directory))
    meta_path = os.path.join(rep.directory, _META_FILE)
    state_path = os.path.join(rep.directory, _STATE_FILE)
    if not os.path.exists(meta_path):
        return rep
    rep.present = True
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        rep.problems.append(f"unreadable meta.json: {exc}")
        return rep
    for key in ("algorithm", "graph", "iteration"):
        if key not in meta:
            rep.problems.append(f"meta.json missing {key!r}")
    rep.algorithm = meta.get("algorithm")
    rep.graph = meta.get("graph")
    rep.iteration = meta.get("iteration")
    if not isinstance(meta.get("scalars", {}), dict):
        rep.problems.append("meta.json scalars is not a dict")
    engine_state = meta.get("engine", {})
    if not isinstance(engine_state, dict):
        rep.problems.append("meta.json engine state is not a dict")
        engine_state = {}
    if not os.path.exists(state_path):
        rep.problems.append("state.npz missing")
        return rep
    try:
        with np.load(state_path) as z:
            rep.arrays = len([k for k in z.files if k != "__iteration__"])
            if "__iteration__" not in z.files:
                rep.problems.append("state.npz missing __iteration__")
                state_iter = None
            else:
                state_iter = int(z["__iteration__"][0])
    except (OSError, ValueError, KeyError) as exc:
        rep.problems.append(f"unreadable state.npz: {exc}")
        return rep
    if state_iter is not None and state_iter != rep.iteration:
        rep.problems.append(
            f"iteration mismatch (torn write?): meta={rep.iteration} "
            f"state={state_iter}"
        )
    positions = engine_state.get("cached_positions", [])
    if not isinstance(positions, list) or any(
        not isinstance(p, int) for p in positions
    ):
        rep.problems.append("cached_positions is not a list of ints")
        return rep
    rep.cached_tiles = len(positions)
    if len(set(positions)) != len(positions):
        rep.problems.append("cached_positions holds duplicate tiles")
    if graph is not None:
        if rep.graph is not None and rep.graph != graph.info.name:
            rep.problems.append(
                f"graph mismatch: checkpoint={rep.graph!r} "
                f"loaded={graph.info.name!r}"
            )
        se = graph.start_edge.start_edge
        n_positions = len(se) - 1
        for p in positions:
            if not (0 <= p < n_positions):
                rep.problems.append(
                    f"cached position {p} outside tile grid "
                    f"[0, {n_positions})"
                )
            elif int(se[p + 1] - se[p]) <= 0:
                rep.problems.append(
                    f"cached position {p} addresses an empty tile"
                )
    return rep
