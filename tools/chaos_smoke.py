#!/usr/bin/env python
"""CI chaos smoke: seeded fault injection must recover, kill/resume must match.

Five gates (docs/RELIABILITY.md), each exiting non-zero on failure:

1. **Recovery** — a seeded chaos run (transient read errors + short reads
   + latency spikes + one slow RAID member) of BFS and PageRank completes
   with results bit-identical to the clean baseline and nonzero
   ``retry.attempts``.
2. **Determinism** — the same fault seed yields identical injected-fault
   logs, counters, and simulated-clock totals at prefetch depths 0 and 2.
3. **Kill/resume** — a PageRank run killed mid-way by a persistent fault
   resumes from its last checkpoint and reproduces the uninterrupted
   result bit-for-bit.
4. **Serve chaos** — an engine-side error streak flips ``/healthz`` to
   ``degraded`` and shed queries come back as typed 429s with a
   ``Retry-After`` header; recovery flips it back to ``healthy``.
5. **Disk bit-rot** — ``repro convert`` a smoke graph, ``repro fsck
   --checksums`` exits 0; one flipped payload byte makes it exit 1 and
   name the tile that owns the byte.

Usage: PYTHONPATH=src python tools/chaos_smoke.py [--scale 10] [--seed 7]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile

import numpy as np

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.cli import main as repro_main
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import StorageError
from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultRates
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat

# Rates high enough that a smoke-scale run injects several faults.
RATES = FaultRates(transient=0.10, short_read=0.02, spike=0.10)

_failures = 0


def check(ok: bool, label: str) -> None:
    global _failures
    print(f"  {'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        _failures += 1


def make_config(**kw) -> EngineConfig:
    # A tight budget keeps the graph streaming (and re-streaming), so
    # every iteration issues I/O that faults can land on.
    base = dict(
        memory_bytes=16 * 1024, segment_bytes=4 * 1024, n_ssds=2
    )
    base.update(kw)
    return EngineConfig(**base)


def chaos_plan(seed: int) -> FaultPlan:
    # Seeded request-level chaos plus one slow RAID member.  The explicit
    # transient on ordinal 1 guarantees at least one retry even in a run
    # short enough that the seeded draws land nothing retryable.
    return FaultPlan(
        events=(
            FaultEvent(FaultKind.TRANSIENT, request=1),
            FaultEvent(FaultKind.DEVICE_SLOW, device=0, factor=4.0),
        ),
        seed=seed,
        rates=RATES,
    )


def gate_recovery(tg: TiledGraph, seed: int) -> None:
    print("gate 1: seeded chaos run recovers")
    for name, algo_of, result_of in (
        ("bfs", lambda: BFS(root=0), lambda a: a.depth),
        ("pagerank", lambda: PageRank(max_iterations=15), lambda a: a.rank),
    ):
        clean = algo_of()
        GStoreEngine(tg, make_config()).run(clean)
        chaos = algo_of()
        eng = GStoreEngine(tg, make_config(faults=chaos_plan(seed)))
        eng.run(chaos)
        counters = eng.injector.counters()
        check(
            np.array_equal(result_of(clean), result_of(chaos)),
            f"{name}: chaos result matches clean baseline",
        )
        check(
            counters.get("retry.attempts", 0) > 0,
            f"{name}: retries happened ({counters.get('retry.attempts', 0)} attempts)",
        )
        check(
            counters.get("retry.exhausted", 0) == 0,
            f"{name}: no batch exhausted its retry budget",
        )


def gate_determinism(tg: TiledGraph, seed: int) -> None:
    print("gate 2: fault sequence deterministic across prefetch depths")
    runs = []
    for depth in (0, 2):
        eng = GStoreEngine(
            tg, make_config(faults=chaos_plan(seed), prefetch_depth=depth)
        )
        stats = eng.run(BFS(root=0))
        runs.append(
            (eng.injector.log_tuples(), eng.injector.counters(), stats.sim_elapsed)
        )
    check(runs[0][0] == runs[1][0], f"identical fault log ({len(runs[0][0])} events)")
    check(runs[0][1] == runs[1][1], "identical fault/retry counters")
    check(runs[0][2] == runs[1][2], f"identical sim-clock total ({runs[0][2]:.6f}s)")


def gate_kill_resume(tg: TiledGraph) -> None:
    print("gate 3: fault-killed run resumes bit-for-bit")
    cfg = dict(prefetch_depth=0)
    clean = PageRank(max_iterations=15)
    GStoreEngine(tg, make_config(**cfg)).run(clean)

    # Kill mid-run: one AIO batch issues per streamed segment, so half
    # the clean run's request count lands several iterations in.
    probe = GStoreEngine(tg, make_config(**cfg))
    probe.run(PageRank(max_iterations=15))
    kill_at = probe.aio.stats.requests // 2

    with tempfile.TemporaryDirectory() as ckpt:
        doomed = PageRank(max_iterations=15)
        try:
            GStoreEngine(
                tg,
                make_config(
                    faults=FaultPlan.parse(f"persistent@{kill_at}"), **cfg
                ),
            ).run(doomed, checkpoint=ckpt)
        except StorageError as exc:
            print(f"  killed as planned at ordinal {kill_at}: {exc.args[0]}")
        else:
            check(False, f"persistent@{kill_at} should have killed the run")
            return
        check(
            doomed.iterations_run < clean.iterations_run,
            "run died before convergence",
        )
        resumed = PageRank(max_iterations=15)
        GStoreEngine(tg, make_config(**cfg)).run(resumed, checkpoint=ckpt)
        check(
            np.array_equal(clean.rank, resumed.rank),
            "resumed rank vector is bit-identical to the uninterrupted run",
        )
        check(
            resumed.iterations_run == clean.iterations_run,
            "resumed run converged at the same iteration",
        )


def gate_serve_chaos(tg: TiledGraph) -> None:
    print("gate 4: degraded engine flips /healthz, shed queries get typed 429s")
    import json
    import threading
    import urllib.error
    import urllib.request

    from repro.errors import StorageError as _SE
    from repro.serve import BFSQuery, QueryService, ServiceConfig
    from repro.serve.http import make_server

    class _FailingQuery(BFSQuery):
        # Engine-side failure: retryable storage trouble that outlives
        # the serve-level retry budget, feeding the error streak.
        def cache_key(self):
            return ("failing", int(self.root))

        def run(self, engine, ctx):
            raise _SE("injected device failure", retryable=True)

    eng = GStoreEngine(tg, make_config())
    svc = QueryService(
        eng,
        ServiceConfig(
            workers=2, queue_depth=8, retry_attempts=1,
            health_error_threshold=2, health_recovery_threshold=2,
        ),
    )
    try:
        try:
            server = make_server(svc, host="127.0.0.1", port=0)
        except OSError as exc:
            print(f"  skip: sockets unavailable ({exc})")
            return
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                check(json.load(r)["status"] == "healthy", "starts healthy")
            for i in range(2):
                try:
                    svc.execute(_FailingQuery(root=i))
                except _SE:
                    pass
            with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                health = json.load(r)
            check(
                health["status"] == "degraded"
                and "error_streak" in health["reasons"],
                f"error streak degrades /healthz (reasons: {health['reasons']})",
            )
            stats = svc.stats()
            check(
                stats.get("serve.retries", 0) > 0
                and stats.get("serve.retry_exhausted", 0) > 0,
                "storage retries ran and exhausted their budget",
            )
            # Degraded admission clamps to queue_depth//2 = 4: saturate
            # with stalled queries, then watch a shed 429 come back.
            release = threading.Event()
            started = threading.Event()

            class _Stall(BFSQuery):
                def run(self, engine, ctx):
                    started.set()
                    release.wait(timeout=30)
                    return super().run(engine, ctx)

            futures = [svc.submit(_Stall(root=r)) for r in range(4)]
            started.wait(timeout=30)
            req = urllib.request.Request(
                base + "/query",
                data=json.dumps({"type": "bfs", "root": 9}).encode(),
            )
            try:
                urllib.request.urlopen(req, timeout=10)
                check(False, "shed query should have been rejected")
            except urllib.error.HTTPError as exc:
                body = json.load(exc)
                check(
                    exc.code == 429
                    and body["code"] == "shed_degraded"
                    and int(exc.headers["Retry-After"]) >= 1,
                    f"shed query rejected with typed 429 ({body['code']}, "
                    f"Retry-After {exc.headers['Retry-After']}s)",
                )
            release.set()
            for f in futures:
                f.result()
            svc.execute(BFSQuery(root=1))
            with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                check(
                    json.load(r)["status"] == "healthy",
                    "success streak recovers to healthy",
                )
        finally:
            server.shutdown()
            server.server_close()
    finally:
        svc.close()
        eng.close()


def gate_disk_bitrot() -> None:
    print("gate 5: a flipped payload byte on disk fails fsck, naming its tile")
    def fsck(directory: str) -> "tuple[int, str]":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = repro_main(["fsck", directory, "--checksums"])
        return rc, out.getvalue()

    with tempfile.TemporaryDirectory() as d:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = repro_main(
                ["convert", "kron-small-16", "--tier", "tiny", "--out", d]
            )
        check(rc == 0, "repro convert wrote the smoke graph")
        rc, _ = fsck(d)
        check(rc == 0, "fsck --checksums exits 0 on the fresh graph")

        tg = TiledGraph.load(d, resident=False)
        payload = os.path.join(d, "tiles.dat")
        byte = os.path.getsize(payload) // 2
        ends = tg.start_edge.start_edge[1:].astype(np.int64) * tg.tuple_bytes
        pos = int(np.searchsorted(ends, byte, side="right"))
        with open(payload, "r+b") as fh:
            fh.seek(byte)
            value = fh.read(1)[0]
            fh.seek(byte)
            fh.write(bytes([value ^ 0x20]))
        rc, out = fsck(d)
        check(rc == 1, "fsck --checksums exits 1 after the flip")
        named = [ln for ln in out.splitlines() if "checksum mismatch" in ln]
        check(
            len(named) == 1 and f"tile {pos} " in named[0],
            f"the one checksum mismatch names tile {pos}",
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=10, help="R-MAT scale")
    ap.add_argument("--seed", type=int, default=7, help="fault plan seed")
    args = ap.parse_args()

    el = rmat(args.scale, edge_factor=8, seed=11, directed=False)
    tg = TiledGraph.from_edge_list(el, tile_bits=7, group_q=2)
    print(f"graph: {tg.info.name} |V|={tg.info.n_vertices} |E|={tg.info.n_edges}")

    gate_recovery(tg, args.seed)
    gate_determinism(tg, args.seed)
    gate_kill_resume(tg)
    gate_serve_chaos(tg)
    gate_disk_bitrot()

    if _failures:
        print(f"chaos smoke: {_failures} gate(s) FAILED")
        return 1
    print("chaos smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
