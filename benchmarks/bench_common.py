"""Shared plumbing for the repo benchmarks.

Both benchmarks write into the same ``BENCH_pipeline.json`` at the repo
root — the overlap/selective runs own the ``results``/``selective``
sections and the shard-scaling run owns ``shard_scaling``.  For the
entries to stay comparable the file must carry exactly **one** machine /
execution-fingerprint block per run environment, emitted once per
invocation rather than once per benchmark mode; :func:`merge_payload`
enforces that by preserving the other benchmark's sections only when the
machine identity matches, and dropping them (stale, from some other
runner) when it does not.
"""

from __future__ import annotations

import json
import os
import platform

from repro.runtime.threads import execution_fingerprint

#: The machine-identity keys two payloads must agree on for their
#: sections to be comparable inside one ``BENCH_*.json`` file (the kernel
#: tier among them: compiled and NumPy min-relaxations are not one speed).
MACHINE_KEYS = (
    "platform", "python", "cpus", "cpus_logical", "cpus_available",
    "native_kernels",
)


def machine_block(workers="auto", shards=None) -> dict:
    """The single machine/fingerprint block a benchmark payload carries."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        **execution_fingerprint(workers=workers, shards=shards),
    }


def merge_payload(path: str, payload: dict, preserve=()) -> dict:
    """Write ``payload`` to ``path``, keeping comparable foreign sections.

    ``preserve`` names top-level sections owned by *other* benchmarks
    (e.g. the shard-scaling run preserves the overlap run's ``results``).
    A preserved section survives only when the existing file's machine
    block matches this payload's on every :data:`MACHINE_KEYS` entry —
    results measured on a different machine are silently dropped rather
    than presented alongside incomparable numbers.
    """
    for key in preserve:
        payload.pop(key, None)
    if preserve and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                prior = json.load(fh)
        except (OSError, ValueError):
            prior = {}
        mine = payload.get("machine", {})
        theirs = prior.get("machine", {})
        if all(mine.get(k) == theirs.get(k) for k in MACHINE_KEYS):
            for key in preserve:
                if key in prior:
                    payload[key] = prior[key]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload
