"""Concurrent query serving over a shared read-only engine.

The layer that turns the batch engine into a service (docs/SERVING.md):
typed queries (:mod:`repro.serve.queries`), a thread-pool service with
admission control, deadlines, and an LRU result cache
(:mod:`repro.serve.service`), a health state machine with load shedding
(:mod:`repro.serve.health`), and a stdlib HTTP front-end
(:mod:`repro.serve.http`).  ``python -m repro serve`` starts it from
the command line; ``tools/wall_smoke.py`` gates it under load and
``benchmarks/perf``'s ``serve_mix`` workload measures it.
"""

from repro.serve.cache import ResultCache
from repro.serve.health import HealthMonitor, HealthState
from repro.serve.queries import (
    QUERY_TYPES,
    BFSQuery,
    NeighborhoodQuery,
    PageRankTopKQuery,
    Query,
    QueryResult,
    ReachabilityQuery,
    SSSPQuery,
    graph_fingerprint,
    payload_digest,
    query_from_dict,
)
from repro.serve.service import QueryService, ServiceConfig

__all__ = [
    "BFSQuery",
    "HealthMonitor",
    "HealthState",
    "NeighborhoodQuery",
    "PageRankTopKQuery",
    "Query",
    "QueryResult",
    "QUERY_TYPES",
    "QueryService",
    "ReachabilityQuery",
    "ResultCache",
    "SSSPQuery",
    "ServiceConfig",
    "graph_fingerprint",
    "payload_digest",
    "query_from_dict",
]
