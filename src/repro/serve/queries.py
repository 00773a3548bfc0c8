"""Typed query surface of the serving layer (docs/SERVING.md).

Each query is a small frozen dataclass naming its parameters; the
service executes it against a shared read-only
:class:`~repro.engine.gstore.GStoreEngine` through a private
:class:`~repro.engine.context.RunContext`, so any number of queries run
concurrently with fully isolated clocks, counters, and statistics.

Two contracts matter here:

* **Cache identity** — :meth:`Query.cache_key` is a hashable value that,
  together with the graph fingerprint, fully determines the result.  Two
  queries with equal keys against the same fingerprint must produce
  byte-identical payloads.
* **Determinism** — :meth:`Query.run` returns a payload dict whose
  ndarray values are in a canonical order, so
  :func:`payload_digest` is stable across runs, threads and worker counts.
  The load harness leans on this: every concurrent result is
  sha256-compared against its serial baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP
from repro.engine.selective import merge_extents
from repro.errors import QueryError


def payload_digest(payload: dict) -> str:
    """Canonical sha256 over a query payload.

    Keys are visited in sorted order; ndarrays contribute their dtype,
    shape, and contiguous bytes; everything else contributes ``repr``.
    Stable across processes, so serial baselines and concurrent results
    can be compared as digests alone.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        value = payload[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            h.update(str(arr.dtype).encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def graph_fingerprint(graph) -> str:
    """sha256 identity of a tiled graph: metadata + index + payload bytes.

    Part of every result-cache key, so a cache shared across graphs (or
    across a graph rebuild) can never serve stale results — a different
    byte in the payload or a different geometry is a different key.
    """
    info = graph.info
    h = hashlib.sha256()
    h.update(
        repr(
            (
                info.name,
                info.n_vertices,
                info.n_edges,
                info.directed,
                info.symmetric,
                info.tile_bits,
                info.group_q,
            )
        ).encode()
    )
    h.update(np.ascontiguousarray(graph.start_edge.start_edge).tobytes())
    se = graph.start_edge
    total = int(se.start_edge[-1]) * se.tuple_bytes
    from repro.storage.file import TileStore

    store = TileStore.from_tiled_graph(graph)
    h.update(store.read(0, total))
    return h.hexdigest()


@dataclass(frozen=True)
class QueryResult:
    """One completed query: canonical payload plus serving metadata."""

    query: "Query"
    payload: dict
    sha256: str
    fingerprint: str
    #: Seconds from a worker thread picking the query up to its reply.
    wall_seconds: float
    #: The part of ``wall_seconds`` spent waiting for the engine lane
    #: (``RunContext.lane_wait``, every attempt): the rest is run time.
    queue_seconds: float = 0.0
    cache_hit: bool = False
    #: Per-query counters snapshot (only when the service traces queries;
    #: drawn from the query's *private* registry — never the shared one).
    counters: "dict | None" = None

    def summary(self) -> dict:
        """JSON-safe digest of this result (the HTTP response body)."""
        out = {
            "query": self.query.describe(),
            "sha256": self.sha256,
            "fingerprint": self.fingerprint,
            "wall_seconds": self.wall_seconds,
            "queue_seconds": self.queue_seconds,
            "cache_hit": self.cache_hit,
        }
        out.update(self.query.summarize(self.payload))
        return out


@dataclass(frozen=True)
class Query:
    """Base class: one read-only question against the shared graph."""

    name = "query"

    def cache_key(self) -> tuple:
        """Hashable identity; equal keys must mean equal payloads."""
        raise NotImplementedError

    def run(self, engine, ctx) -> dict:
        """Execute against ``engine`` through private context ``ctx``."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-safe parameter dump (spans, HTTP responses, logs)."""
        key = self.cache_key()
        return {"type": key[0], "params": list(key[1:])}

    def summarize(self, payload: dict) -> dict:
        """JSON-safe, bounded-size view of the payload."""
        return {}

    def _validate_vertex(self, engine, vertex: int, role: str) -> None:
        n = engine.graph.n_vertices
        if not (0 <= int(vertex) < n):
            raise QueryError(
                f"{role} out of range",
                context={role: int(vertex), "n_vertices": n},
            )


@dataclass(frozen=True)
class BFSQuery(Query):
    """Per-vertex BFS depth from ``root`` (``INF_DEPTH`` = unreachable)."""

    root: int = 0
    name = "bfs"

    def cache_key(self) -> tuple:
        return ("bfs", int(self.root))

    def run(self, engine, ctx) -> dict:
        self._validate_vertex(engine, self.root, "root")
        algo = BFS(root=int(self.root))
        engine.run(algo, context=ctx)
        return {"depth": np.ascontiguousarray(algo.result())}

    def summarize(self, payload: dict) -> dict:
        depth = payload["depth"]
        reached = int(np.count_nonzero(depth != np.iinfo(depth.dtype).max))
        return {"reached": reached, "n_vertices": int(depth.shape[0])}


@dataclass(frozen=True)
class SSSPQuery(Query):
    """Per-vertex shortest-path distance from ``root`` (inf = unreachable)."""

    root: int = 0
    name = "sssp"

    def cache_key(self) -> tuple:
        return ("sssp", int(self.root))

    def run(self, engine, ctx) -> dict:
        self._validate_vertex(engine, self.root, "root")
        algo = SSSP(root=int(self.root))
        engine.run(algo, context=ctx)
        return {"distance": np.ascontiguousarray(algo.result())}

    def summarize(self, payload: dict) -> dict:
        dist = payload["distance"]
        return {
            "reached": int(np.count_nonzero(np.isfinite(dist))),
            "n_vertices": int(dist.shape[0]),
        }


@dataclass(frozen=True)
class PageRankTopKQuery(Query):
    """The ``k`` highest-ranked vertices (deterministic index tie-break)."""

    k: int = 10
    max_iterations: int = 20
    tolerance: float = 1e-6
    name = "pagerank_topk"

    def cache_key(self) -> tuple:
        return (
            "pagerank_topk",
            int(self.k),
            int(self.max_iterations),
            float(self.tolerance),
        )

    def run(self, engine, ctx) -> dict:
        if self.k <= 0:
            raise QueryError("k must be positive", context={"k": self.k})
        algo = PageRank(
            max_iterations=int(self.max_iterations),
            tolerance=float(self.tolerance),
        )
        engine.run(algo, context=ctx)
        ranks = np.ascontiguousarray(algo.result())
        k = min(int(self.k), ranks.shape[0])
        # Stable total order: by descending rank, ties broken by vertex
        # id — the canonical order the digest contract requires.
        order = np.lexsort((np.arange(ranks.shape[0]), -ranks))[:k]
        return {
            "vertices": order.astype(np.int64),
            "ranks": ranks[order],
        }

    def summarize(self, payload: dict) -> dict:
        return {
            "vertices": payload["vertices"].tolist(),
            "ranks": [float(r) for r in payload["ranks"]],
        }


@dataclass(frozen=True)
class NeighborhoodQuery(Query):
    """Sorted unique neighbor ids of one vertex, straight off the tiles.

    The only query that bypasses the iteration machinery: it selects the
    tile row (and, for symmetric storage, the mirrored column) holding
    the vertex, services exactly those extents through the context's
    private AIO path, and filters the decoded edges — a point lookup
    with the same simulated-I/O accounting as everything else.
    """

    vertex: int = 0
    #: ``out``, ``in``, or ``both`` — collapsed to ``both`` on undirected
    #: graphs, where the distinction does not exist.
    direction: str = "out"
    name = "neighborhood"

    def cache_key(self) -> tuple:
        return ("neighborhood", int(self.vertex), str(self.direction))

    def run(self, engine, ctx) -> dict:
        self._validate_vertex(engine, self.vertex, "vertex")
        if self.direction not in ("out", "in", "both"):
            raise QueryError(
                "direction must be out/in/both",
                context={"direction": self.direction},
            )
        g = engine.graph
        v = int(self.vertex)
        r = v >> g.tile_bits
        direction = self.direction
        if g.info.symmetric or not g.info.directed:
            # Undirected: stored tuples are orientation-free, so in/out
            # collapse; symmetric storage additionally keeps only the
            # upper triangle, so the mirrored column row must be read.
            direction = "both"
        want_src = direction in ("out", "both")
        want_dst = direction in ("in", "both")
        mask = np.zeros(g.n_tiles, dtype=bool)
        if want_src:
            mask |= g.tile_rows == r
        if want_dst:
            mask |= g.tile_cols == r
        positions = np.flatnonzero(mask)
        neighbors: "list[np.ndarray]" = []
        with ctx.tracer.span(
            "serve.lookup", cat="serve", vertex=v, tiles=len(positions)
        ):
            ext = merge_extents(positions, g.start_edge)
            data, io_t = ctx.aio.service(ext)
            ctx.aio.commit(io_t)
            batch = g.decode_extents(ext.positions, ext.first, data)
            # One mask per direction over the whole lookup.
            if want_src:
                neighbors.append(batch.gdst[batch.gsrc == v])
            if want_dst:
                neighbors.append(batch.gsrc[batch.gdst == v])
        out = np.unique(np.concatenate(neighbors))
        return {"neighbors": np.ascontiguousarray(out)}

    def summarize(self, payload: dict) -> dict:
        nbrs = payload["neighbors"]
        return {
            "degree": int(nbrs.shape[0]),
            # Bounded preview; the digest covers the full array.
            "neighbors_head": nbrs[:64].tolist(),
        }


@dataclass(frozen=True)
class ReachabilityQuery(Query):
    """Whether ``target`` is reachable from ``source`` (plus closure size)."""

    source: int = 0
    target: int = 0
    name = "reachability"

    def cache_key(self) -> tuple:
        return ("reachability", int(self.source), int(self.target))

    def run(self, engine, ctx) -> dict:
        self._validate_vertex(engine, self.source, "source")
        self._validate_vertex(engine, self.target, "target")
        algo = Reachability(seeds=[int(self.source)])
        engine.run(algo, context=ctx)
        visited = algo.reached()
        return {
            "reachable": bool(visited[int(self.target)]),
            "visited_count": int(np.count_nonzero(visited)),
        }

    def summarize(self, payload: dict) -> dict:
        return dict(payload)


#: Registry for the CLI/HTTP front-ends: type string -> query class.
QUERY_TYPES = {
    "bfs": BFSQuery,
    "sssp": SSSPQuery,
    "pagerank_topk": PageRankTopKQuery,
    "neighborhood": NeighborhoodQuery,
    "reachability": ReachabilityQuery,
}


def query_from_dict(spec: dict) -> Query:
    """Build a query from a JSON-ish dict: ``{"type": ..., params...}``."""
    spec = dict(spec)
    qtype = spec.pop("type", None)
    cls = QUERY_TYPES.get(qtype)
    if cls is None:
        raise QueryError(
            "unknown query type",
            context={"type": qtype, "known": sorted(QUERY_TYPES)},
        )
    try:
        return cls(**spec)
    except TypeError as exc:
        # Name the offending fields so HTTP clients see exactly which
        # keys to fix, not just CPython's TypeError prose.
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(spec) - known)
        context = {"type": qtype, "known_fields": sorted(known)}
        if unknown:
            context["unknown_fields"] = unknown
        else:
            context["error"] = str(exc)
        raise QueryError("bad query parameters", context=context) from None
