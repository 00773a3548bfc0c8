"""The reliability plane: fault plans, checksums, retries, degradation,
checkpoint/resume.

The contract under test (docs/RELIABILITY.md): chaos runs are
bit-deterministic — the same fault seed yields the same injected-fault
sequence, the same ``fault.*``/``retry.*`` counters, and the same
simulated-clock total at every prefetch depth — recovered runs produce
results identical to clean ones, unrecoverable runs fail with typed
context-rich errors, and resuming from a checkpoint reproduces the
uninterrupted result bit-for-bit.
"""

import functools
import json
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import native
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import PageRank
from repro.cli import main
from repro.engine.checkpoint import CheckpointManager, capture_state
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import (
    AlgorithmError,
    CheckpointError,
    ChecksumError,
    FormatError,
    StorageError,
)
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRates,
    crc32c,
    crc32c_extents,
)
from repro.faults import crc as crc_module
from repro.format.tiles import TiledGraph
from repro.format.validate import check_tiled_graph

# High enough that faults actually land inside the ~dozen request
# ordinals a tiny test run issues (the default rates target long runs).
HOT_RATES = FaultRates(transient=0.3, short_read=0.1, spike=0.2)


def _cfg(**kw) -> EngineConfig:
    base = dict(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    base.update(kw)
    return EngineConfig(**base)


# --------------------------------------------------------------------- #
# CRC32C kernel
# --------------------------------------------------------------------- #


class TestCrc32c:
    def test_rfc3720_vectors(self):
        # Test vectors from RFC 3720 §B.4 (iSCSI CRC32C).
        assert crc32c(b"") == 0
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"\x00" * 32) == 0x8A9136AA
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_incremental(self):
        data = bytes(range(256)) * 3
        assert crc32c(data) == crc32c(data[100:], crc32c(data[:100]))

    def test_bit_flip_changes_checksum(self):
        data = bytearray(b"graph tile payload bytes")
        base = crc32c(bytes(data))
        data[5] ^= 0x10
        assert crc32c(bytes(data)) != base


def _scalar(buf, offsets, sizes) -> "list[int]":
    return [crc32c(buf[o : o + s]) for o, s in zip(offsets, sizes)]


#: Extent sizes around everything the array kernel branches on: empty,
#: the 8-byte word, and the block width.
_EDGE_SIZES = [0, 1, 7, 8, 9] + [
    k * crc_module._BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)
]


@st.composite
def _buffers_and_extents(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    length = draw(st.integers(0, 6 * crc_module._BLOCK))
    buf = np.random.default_rng(seed).integers(
        0, 256, length, dtype=np.uint8
    ).tobytes()
    sizes = draw(
        st.lists(
            st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(0, length)),
            max_size=24,
        )
    )
    # Unsorted and overlapping by construction: every extent picks its
    # own offset, independent of the others; some end at the buffer's end.
    sizes = [min(s, length) for s in sizes]
    offsets = [
        draw(st.one_of(st.just(length - s), st.integers(0, length - s)))
        for s in sizes
    ]
    return buf, offsets, sizes


#: Every extent kernel: the NumPy one and the compiled tier's two bodies.
_BODIES = ["numpy", "slicing-by-8", "sse4.2"]


def _body(name: str):
    """The extent kernel ``name`` as ``f(buf, offsets, sizes)``; skips the
    test where this machine cannot run it."""
    if name == "numpy":
        return crc_module._numpy_extents
    if native.lib is None:
        pytest.skip(f"native tier not loaded: {native.status}")
    if name not in native.crc32c_bodies():
        pytest.skip(f"this CPU has no {name} body")
    return functools.partial(native.crc32c_extents, body=name)


class TestCrc32cExtents:
    """Every extent kernel — the NumPy one, and the compiled tier's
    slicing-by-8 and SSE4.2 bodies — is held to the scalar ``crc32c`` bit
    for bit."""

    def test_rfc3720_vectors(self):
        vectors = [b"", b"123456789", b"\x00" * 32, b"\xff" * 32]
        buf = b"".join(vectors)
        sizes = [len(v) for v in vectors]
        offsets = np.cumsum(sizes) - sizes
        assert crc32c_extents(buf, offsets, sizes).tolist() == [
            0, 0xE3069283, 0x8A9136AA, 0x62A8AB43,
        ]

    @given(case=_buffers_and_extents())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar(self, case):
        buf, offsets, sizes = case
        got = crc32c_extents(buf, offsets, sizes)
        assert got.dtype == np.uint32
        assert got.tolist() == _scalar(buf, offsets, sizes)

    @pytest.mark.parametrize("body", _BODIES)
    @given(case=_buffers_and_extents(), mapped=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_every_body_matches_scalar(self, body, case, mapped):
        kernel = _body(body)
        buf, offsets, sizes = case
        want = _scalar(buf, offsets, sizes)
        if not mapped or not buf:  # an empty file cannot be mapped
            assert kernel(buf, offsets, sizes).tolist() == want
            return
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.bin")
            with open(path, "wb") as fh:
                fh.write(buf)
            mm = np.memmap(path, dtype=np.uint8, mode="r")
            assert kernel(mm, offsets, sizes).tolist() == want
            del mm

    @given(case=_buffers_and_extents())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_across_slab_cuts(self, case):
        # A three-block slab cuts most of these extents mid-way, so the
        # per-slab pieces of one extent have to fold together.
        buf, offsets, sizes = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crc_module, "_SLAB", 3 * crc_module._BLOCK)
            got = crc_module._numpy_extents(buf, offsets, sizes)
        assert got.tolist() == _scalar(buf, offsets, sizes)

    def test_slab_sized_and_larger_extents(self):
        slab = crc_module._SLAB
        assert slab == 1 << 20
        buf = np.random.default_rng(3).integers(
            0, 256, 3 * slab, dtype=np.uint8
        ).tobytes()
        sizes = [slab - 1, slab, slab + 1, slab + slab // 2, 0, 5]
        offsets = [7, 0, slab - 3, slab // 3, len(buf), len(buf) - 5]
        want = _scalar(buf, offsets, sizes)
        assert crc_module._numpy_extents(buf, offsets, sizes).tolist() == want
        assert crc32c_extents(buf, offsets, sizes).tolist() == want

    def test_accepts_arrays_and_memory_maps(self, tmp_path):
        payload = np.arange(5000, dtype=np.uint16)
        path = tmp_path / "p.bin"
        payload.tofile(path)
        offsets, sizes = [0, 300, 9000], [300, 8700, 1000]
        want = _scalar(payload.tobytes(), offsets, sizes)
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        for buf in (payload, memoryview(payload).cast("B"), mapped):
            assert crc32c_extents(buf, offsets, sizes).tolist() == want

    def test_lazy_tables_survive_concurrent_first_use(self):
        # Verification runs on the prefetch thread and on serving threads;
        # the zero-append tables are built on first use by whichever gets
        # there, and a lost update would shift every later table.
        import sys

        buf = bytes(range(256)) * 40
        sizes = [3, 17, 129, 1000, 4097, 10240]
        offsets = [0] * len(sizes)
        want = _scalar(buf, offsets, sizes)
        kernel = crc_module._numpy_extents
        crc_module._ZERO_TABLES.clear()
        assert kernel(buf, offsets, sizes).tolist() == want
        serial = list(crc_module._ZERO_TABLES)  # built by one thread
        results: "list[list[int]]" = []
        start = threading.Barrier(8)

        def work():
            start.wait(timeout=10)
            results.append(kernel(buf, offsets, sizes).tolist())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                crc_module._ZERO_TABLES.clear()
                threads = [threading.Thread(target=work) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                built = crc_module._ZERO_TABLES
                assert len(built) == len(serial)
                assert all(np.array_equal(a, b) for a, b in zip(built, serial))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200
        assert all(r == want for r in results)

    def test_rejects_extents_outside_the_buffer(self):
        for offsets, sizes in ([-1], [1]), ([0], [-1]), ([5], [6]):
            with pytest.raises(ValueError):
                crc32c_extents(b"0123456789", offsets, sizes)

    #: Each outside a 10-byte buffer; the last two overflow int64 if
    #: offset + size is formed.
    _OUTSIDE = [(-1, 1), (0, -1), (5, 6), (10, 1), (11, 0),
                (2**62, 2**62), (2**63 - 1, 1)]

    @pytest.mark.parametrize("body", _BODIES)
    def test_every_body_rejects_extents_outside_the_buffer(self, body):
        kernel = _body(body)
        for bad in self._OUTSIDE:
            # Behind a good extent: nothing is checksummed before the check.
            offsets, sizes = [0, bad[0]], [4, bad[1]]
            with pytest.raises(ValueError, match="outside the 10-byte buffer"):
                kernel(b"0123456789", offsets, sizes)

    def test_compiled_kernel_checks_before_writing(self):
        if native.lib is None:
            pytest.skip(f"native tier not loaded: {native.status}")
        buf = native.ffi.from_buffer
        data = np.frombuffer(b"0123456789", np.uint8)
        for body in range(len(native.CRC_BODIES)):
            for bad in self._OUTSIDE:
                offsets = np.array([0, bad[0]], np.int64)
                sizes = np.array([4, bad[1]], np.int64)
                out = np.full(2, 7, np.uint32)
                rc = native.lib.crc32c_extents(
                    buf("uint8_t[]", data), 10, buf("int64_t[]", offsets),
                    buf("int64_t[]", sizes), 2, buf("uint32_t[]", out), body,
                )
                assert rc == -1 and (out == 7).all()


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_parse_tokens(self):
        plan = FaultPlan.parse(
            "transient@3:2,persistent@7,short@1:5,bitflip@2:12,"
            "spike@5:0.01,slow:1:4,dead:2"
        )
        kinds = {e.kind for e in plan.events}
        assert kinds == set(FaultKind)
        ev = plan.event_for(3)
        assert ev.kind is FaultKind.TRANSIENT and ev.count == 2
        assert plan.event_for(7).kind is FaultKind.PERSISTENT
        assert plan.event_for(1).drop == 5
        assert plan.event_for(2).bit == 12
        assert plan.event_for(5).delay == pytest.approx(0.01)
        devs = {e.device: e for e in plan.device_events()}
        assert devs[1].factor == pytest.approx(4.0)
        assert devs[2].kind is FaultKind.DEVICE_DEAD

    def test_parse_seed(self):
        plan = FaultPlan.parse("42")
        assert plan.seed == 42 and not plan.events

    def test_parse_rejects_garbage(self):
        with pytest.raises(StorageError):
            FaultPlan.parse("")
        with pytest.raises(StorageError):
            FaultPlan.parse("frobnicate@3")

    @pytest.mark.parametrize("token", [
        "kill:0", "kill@2", "drop:x@2", "delay:0@2", "scatterfail",
        "kill:0@2", "drop:1@3", "delay:0@4:0.1", "scatterfail@1",
    ])
    def test_malformed_tokens_are_typed(self, token):
        """Every run is one process, so there is no worker transport to
        fault: the shard-transport tokens, well formed or not, fail typed
        and name themselves."""
        with pytest.raises(StorageError, match="bad fault token") as ei:
            FaultPlan.parse(token)
        assert ei.value.context["token"] == token

    def test_seeded_schedule_is_deterministic(self):
        plan = FaultPlan.from_seed(7, HOT_RATES)
        first = [plan.event_for(k) for k in range(200)]
        second = [plan.event_for(k) for k in range(200)]
        assert first == second
        assert any(e is not None for e in first)

    def test_different_seeds_differ(self):
        a = [FaultPlan.from_seed(1, HOT_RATES).event_for(k) for k in range(200)]
        b = [FaultPlan.from_seed(2, HOT_RATES).event_for(k) for k in range(200)]
        assert a != b


# --------------------------------------------------------------------- #
# Checksummed tile format
# --------------------------------------------------------------------- #


class TestChecksums:
    def test_save_load_roundtrip(self, tmp_path, tiled_undirected):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        tg = TiledGraph.load(d)
        assert tg.info.format_version == 2
        assert tg.tile_checksums is not None
        assert tg.tile_checksums.shape[0] == tg.n_tiles
        assert tg.verify_checksums() == []

    def test_v1_file_loads_without_checksums(self, tmp_path, tiled_undirected):
        # A graph saved before checksums existed: same files, no
        # tile_checksums entry in the aux npz.
        d = tmp_path / "g"
        tiled_undirected.save(d)
        aux_path = d / "degrees.npz"
        with np.load(aux_path) as z:
            aux = {k: z[k] for k in z.files if k != "tile_checksums"}
        np.savez(aux_path, **aux)
        tg = TiledGraph.load(d)
        assert tg.tile_checksums is None
        with pytest.raises(FormatError):
            tg.verify_checksums()
        rep = check_tiled_graph(tg, deep=False, checksums=True)
        assert rep.checksums_unavailable

    def test_fsck_catches_corruption(self, tmp_path, tiled_undirected):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        payload = d / "tiles.dat"
        raw = bytearray(payload.read_bytes())
        raw[3] ^= 0x40
        payload.write_bytes(bytes(raw))
        rep = check_tiled_graph(
            TiledGraph.load(d), deep=False, checksums=True
        )
        assert not rep.ok
        assert any("checksum mismatch" in e for e in rep.errors)

    @pytest.mark.parametrize("tier", ["compiled", "numpy"])
    def test_bit_flip_caught_on_each_tier(self, tmp_path, tiled_undirected,
                                          monkeypatch, tier):
        # Decode-time verify and fsck both run crc32c_extents: whichever
        # tier it runs on, one flipped bit is a typed error naming the tile.
        if tier == "numpy":
            monkeypatch.setattr(native, "lib", None)
        elif native.lib is None:
            pytest.skip(f"native tier not loaded: {native.status}")
        d = tmp_path / "g"
        tiled_undirected.save(d)
        tg = TiledGraph.load(d)
        pos = int(np.flatnonzero(tg.tile_edge_counts())[3])
        off, size = tg.start_edge.byte_extent(pos)
        data = bytearray(tg.payload.tobytes()[off : off + size])
        tg.verify_batch_bytes(np.array([pos]), bytes(data))
        data[size // 2] ^= 0x08
        with pytest.raises(ChecksumError) as ei:
            tg.verify_batch_bytes(np.array([pos]), bytes(data))
        assert ei.value.context["tile"] == pos
        raw = bytearray((d / "tiles.dat").read_bytes())
        raw[off + size // 2] ^= 0x08
        (d / "tiles.dat").write_bytes(bytes(raw))
        assert main(["fsck", str(d), "--checksums"]) == 1
        assert [c["tile"] for c in TiledGraph.load(d).verify_checksums()] == [pos]

    def test_decode_rejects_bit_flip(self, tiled_undirected):
        # An injected bit-flip surfaces as a typed ChecksumError with the
        # tile position and extent in .context — not a garbage result.
        pos = next(
            p
            for p in range(tiled_undirected.n_tiles)
            if tiled_undirected.start_edge.edge_count(p) > 0
        )
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.parse(f"bitflip@{pos}"), prefetch_depth=0),
        )
        with pytest.raises(ChecksumError) as ei:
            eng.run(BFS(root=0))
        ctx = ei.value.context
        assert {"tile", "i", "j", "offset", "size", "expected", "actual"} <= set(
            ctx
        )


# --------------------------------------------------------------------- #
# Chaos runs: recovery, determinism, typed failure
# --------------------------------------------------------------------- #


class TestChaosRuns:
    def test_seeded_chaos_run_recovers(self, tiled_undirected):
        clean = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg()).run(clean)

        chaos = BFS(root=0)
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.from_seed(7, HOT_RATES)),
        )
        stats = eng.run(chaos)
        np.testing.assert_array_equal(clean.depth, chaos.depth)
        counters = eng.injector.counters()
        assert counters.get("retry.attempts", 0) > 0
        assert counters.get("retry.exhausted", 0) == 0
        assert stats.extra["faults"]["injected"] > 0

    @pytest.mark.parametrize("spec", ["7", "42"])
    def test_fault_sequence_identical_across_depths(self, tiled_undirected, spec):
        # The determinism contract: same seed => identical injected-fault
        # log, counters, and sim-clock total at depths 0, 2, and 4.
        runs = []
        for depth in (0, 2, 4):
            algo = BFS(root=0)
            eng = GStoreEngine(
                tiled_undirected,
                _cfg(
                    faults=FaultPlan(seed=int(spec), rates=HOT_RATES),
                    prefetch_depth=depth,
                ),
            )
            stats = eng.run(algo)
            runs.append(
                (
                    eng.injector.log_tuples(),
                    eng.injector.counters(),
                    stats.sim_elapsed,
                    algo.depth.copy(),
                )
            )
        logs, counters, sims, depths = zip(*runs)
        assert logs[0] == logs[1] == logs[2]
        assert counters[0] == counters[1] == counters[2]
        assert sims[0] == sims[1] == sims[2]
        np.testing.assert_array_equal(depths[0], depths[1])
        np.testing.assert_array_equal(depths[0], depths[2])
        assert any(t[1] != "spike" for t in logs[0])  # something retried

    @staticmethod
    def _multi_extent_ordinals(tg, cfg) -> "list[int]":
        """The request ordinals a clean run at depth 0 issues inside
        batches of more than one merged extent."""
        ordinals: "list[int]" = []
        with GStoreEngine(tg, cfg) as eng:
            service = eng.aio.service

            def recording(ext):
                first = eng.aio._next_ordinal
                if len(ext) > 1:
                    ordinals.extend(range(first, first + len(ext)))
                return service(ext)

            eng.aio.service = recording
            eng.run(BFS(root=0))
        return ordinals

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_fault_in_a_multi_extent_batch_hits_one_ordinal_at_every_depth(
        self, tiled_undirected, data
    ):
        """A transient error, a short read or a bit flip aimed at one
        extent of a multi-extent batch hits that extent's ordinal — the
        same log entries at depth 0 and 2 — and the run recovers the
        clean answer identically, or fails at depth 0 with the error the
        depth-2 run names as its degradation (and then recovers)."""
        base = dict(memory_bytes=8 * 1024, segment_bytes=2 * 1024)
        ordinals = self._multi_extent_ordinals(
            tiled_undirected, _cfg(**base, prefetch_depth=0)
        )
        assert ordinals
        target = data.draw(st.sampled_from(ordinals), label="ordinal")
        kind = data.draw(
            st.sampled_from(["transient", "short", "bitflip"]), label="kind"
        )
        arg = data.draw(st.integers(1, 5), label="count/drop/bit")
        spec = f"{kind}@{target}:{arg}"
        clean = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg(**base)).run(clean)
        runs = {}
        for depth in (0, 2):
            algo = BFS(root=0)
            with GStoreEngine(tiled_undirected, _cfg(
                **base, faults=FaultPlan.parse(spec), prefetch_depth=depth,
            )) as eng:
                try:
                    stats = eng.run(algo)
                    error = None
                except (StorageError, FormatError) as exc:
                    stats, error = None, str(exc)
                runs[depth] = (error, stats, algo, eng)
        (err0, stats0, algo0, eng0), (err2, stats2, algo2, eng2) = (
            runs[0], runs[2]
        )
        hits = [
            [t for t in eng.injector.log_tuples() if t[0] == target]
            for eng in (eng0, eng2)
        ]
        assert hits[0] == hits[1] and hits[0], spec
        assert err2 is None, spec  # depth 2 has the degrade step under it
        np.testing.assert_array_equal(algo2.depth, clean.depth)
        if err0 is None:
            np.testing.assert_array_equal(algo0.depth, clean.depth)
            assert eng0.injector.log_tuples() == eng2.injector.log_tuples()
            assert eng0.injector.counters() == eng2.injector.counters()
            assert stats0.sim_elapsed == stats2.sim_elapsed
            assert not eng2.degradations
        else:
            assert eng2.degradations == {"prefetch_degraded": err0}, spec

    def test_backoff_charged_to_sim_clock(self, tiled_undirected):
        base = GStoreEngine(tiled_undirected, _cfg(prefetch_depth=0)).run(
            BFS(root=0)
        )
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.parse("transient@0"), prefetch_depth=0),
        )
        stats = eng.run(BFS(root=0))
        counters = eng.injector.counters()
        assert counters["retry.attempts"] == 1
        assert counters["retry.recovered"] == 1
        backoff = counters["retry.backoff_time_sim"]
        assert backoff > 0
        assert stats.sim_elapsed == pytest.approx(base.sim_elapsed + backoff)

    def test_persistent_fault_fails_typed(self, tiled_undirected):
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.parse("persistent@0"), prefetch_depth=0),
        )
        with pytest.raises(StorageError) as ei:
            eng.run(BFS(root=0))
        assert not ei.value.retryable
        ctx = ei.value.context
        assert ctx["attempts"] == eng.aio.retry.max_attempts
        assert "batch_requests" in ctx
        assert eng.injector.counters()["retry.exhausted"] == 1

    def test_dead_device_fails_typed_with_device_id(self, tiled_undirected):
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.parse("dead:0"), n_ssds=2),
        )
        with pytest.raises(StorageError) as ei:
            eng.run(BFS(root=0))
        assert ei.value.context["device"] == 0

    def test_slow_member_degrades_not_fails(self, tiled_undirected):
        clean = GStoreEngine(tiled_undirected, _cfg(n_ssds=2)).run(BFS(root=0))
        algo = BFS(root=0)
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.parse("slow:0:8"), n_ssds=2),
        )
        slow = eng.run(algo)
        assert slow.sim_elapsed > clean.sim_elapsed
        assert (algo.depth == 0).sum() == 1


class TestDegradedMode:
    def test_prefetch_falls_back_to_serial(self, tiled_undirected):
        # A persistent fault inside the prefetch worker drains the
        # pipeline and falls back to serial engine-thread I/O (which
        # re-issues with fresh ordinals and succeeds) — no deadlock, no
        # thread leak, correct results.
        clean = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg()).run(clean)

        before = threading.active_count()
        algo = BFS(root=0)
        eng = GStoreEngine(
            tiled_undirected,
            _cfg(faults=FaultPlan.parse("persistent@3"), prefetch_depth=2),
        )
        stats = eng.run(algo)
        eng.close()
        np.testing.assert_array_equal(clean.depth, algo.depth)
        assert stats.extra["execution"]["degraded"] is True
        assert eng.injector.counters()["fault.prefetch_fallbacks"] == 1
        assert threading.active_count() <= before

    def test_real_prefetch_failure_is_not_silent(
        self, tiled_undirected, monkeypatch
    ):
        # No injector anywhere: the store itself fails one read on the
        # prefetch thread.  The run degrades exactly as above — and says
        # so where an operator looks, not only in injector counters.
        from repro.obs.counters import MetricsRegistry
        from repro.serve.health import HealthMonitor

        clean = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg()).run(clean)

        algo = BFS(root=0)
        eng = GStoreEngine(
            tiled_undirected, _cfg(prefetch_depth=2)
        )
        health = HealthMonitor(eng, MetricsRegistry())
        real_gather = eng.store.gather
        failed = []

        def gather(offsets, sizes):
            on_prefetch = threading.current_thread().name.startswith(
                "repro-prefetch"
            )
            if on_prefetch and not failed:
                failed.append(int(offsets[0]))
                raise StorageError(
                    "media error", context={"offset": int(offsets[0])}
                )
            return real_gather(offsets, sizes)

        monkeypatch.setattr(eng.store, "gather", gather)
        assert eng.injector is None and health.reasons() == []
        stats = eng.run(algo)
        eng.close()
        assert failed
        np.testing.assert_array_equal(clean.depth, algo.depth)
        assert stats.extra["execution"]["degraded"] is True
        assert "media error" in eng.degradations["prefetch_degraded"]
        assert health.reasons() == ["prefetch_degraded"]
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-prefetch")
        ]


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #


def _interrupted_then_resumed(tiled, make_algo, tmp_path, result_of, interrupt=3):
    """Run clean; run interrupted at iteration ``interrupt`` + resume; compare."""
    clean = make_algo()
    GStoreEngine(tiled, _cfg()).run(clean)

    ckpt = os.fspath(tmp_path / "ckpt")
    interrupted = make_algo()
    with pytest.raises(AlgorithmError):
        GStoreEngine(tiled, _cfg(max_iterations=interrupt)).run(
            interrupted, checkpoint=ckpt
        )
    assert CheckpointManager(ckpt).exists()

    resumed = make_algo()
    GStoreEngine(tiled, _cfg()).run(resumed, checkpoint=ckpt)
    np.testing.assert_array_equal(result_of(clean), result_of(resumed))


class TestCheckpointResume:
    def test_bfs_resume_bit_identical(self, tmp_path, tiled_undirected):
        _interrupted_then_resumed(
            tiled_undirected, lambda: BFS(root=0), tmp_path, lambda a: a.depth
        )

    def test_pagerank_resume_bit_identical(self, tmp_path, tiled_undirected):
        # Float accumulation order must match exactly — this is the test
        # that requires the checkpoint to record cache-pool membership.
        _interrupted_then_resumed(
            tiled_undirected,
            lambda: PageRank(max_iterations=12),
            tmp_path,
            lambda a: a.rank,
        )

    def test_cc_resume_bit_identical(self, tmp_path, tiled_undirected):
        # CC converges in two iterations on this graph — interrupt at one.
        _interrupted_then_resumed(
            tiled_undirected,
            lambda: ConnectedComponents(),
            tmp_path,
            lambda a: a.comp,
            interrupt=1,
        )

    def test_resume_after_fault_abort(self, tmp_path, tiled_undirected):
        # The acceptance scenario: a run killed by an unrecoverable
        # StorageError resumes from its last checkpoint and reproduces
        # the uninterrupted result.
        # A 16 KB budget keeps the pool too small to cache the whole
        # graph, so every iteration issues one AIO batch (one ordinal) —
        # persistent@8 therefore kills the run mid-way, after eight
        # checkpoints exist.
        small = dict(memory_bytes=16 * 1024, prefetch_depth=0)
        clean = PageRank(max_iterations=12)
        GStoreEngine(tiled_undirected, _cfg(**small)).run(clean)

        ckpt = os.fspath(tmp_path / "ckpt")
        doomed = PageRank(max_iterations=12)
        with pytest.raises(StorageError):
            GStoreEngine(
                tiled_undirected,
                _cfg(faults=FaultPlan.parse("persistent@8"), **small),
            ).run(doomed, checkpoint=ckpt)
        assert CheckpointManager(ckpt).exists()
        assert doomed.iterations_run < clean.iterations_run

        resumed = PageRank(max_iterations=12)
        GStoreEngine(tiled_undirected, _cfg(**small)).run(resumed, checkpoint=ckpt)
        np.testing.assert_array_equal(clean.rank, resumed.rank)
        assert resumed.iterations_run == clean.iterations_run

    def test_bfs_resumes_from_a_checkpoint_with_traversed_edges(
        self, tmp_path, tiled_undirected
    ):
        """Checkpoints once saved BFS's ``traversed_edges`` scalar, which
        is gone (RunStats.edges_processed counts edges); one that still
        carries it resumes to the same depths."""
        clean = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg()).run(clean)
        ckpt = tmp_path / "ckpt"
        with pytest.raises(AlgorithmError):
            GStoreEngine(tiled_undirected, _cfg(max_iterations=2)).run(
                BFS(root=0), checkpoint=os.fspath(ckpt)
            )
        meta = json.loads((ckpt / "meta.json").read_text(encoding="utf-8"))
        assert "traversed_edges" not in meta["scalars"]
        meta["scalars"]["traversed_edges"] = 1234
        (ckpt / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        resumed = BFS(root=0)
        GStoreEngine(tiled_undirected, _cfg()).run(
            resumed, checkpoint=os.fspath(ckpt)
        )
        np.testing.assert_array_equal(clean.depth, resumed.depth)

    def test_checkpoint_rejects_wrong_algorithm(self, tmp_path, tiled_undirected):
        ckpt = os.fspath(tmp_path / "ckpt")
        with pytest.raises(AlgorithmError):
            GStoreEngine(tiled_undirected, _cfg(max_iterations=2)).run(
                PageRank(max_iterations=12), checkpoint=ckpt
            )
        with pytest.raises(CheckpointError):
            GStoreEngine(tiled_undirected, _cfg()).run(
                BFS(root=0), checkpoint=ckpt
            )

    def test_torn_checkpoint_detected(self, tmp_path, tiled_undirected):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(AlgorithmError):
            GStoreEngine(tiled_undirected, _cfg(max_iterations=2)).run(
                PageRank(max_iterations=12), checkpoint=os.fspath(ckpt)
            )
        (ckpt / "meta.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            CheckpointManager(os.fspath(ckpt)).load()

    def test_capture_state_splits_arrays_and_scalars(self):
        class Dummy:
            pass

        d = Dummy()
        d.graph = object()
        d.rank = np.arange(4, dtype=np.float64)
        d.delta = 0.5
        d.iterations_run = 3
        d.note = None
        d.scratch = {"skip": "me"}
        d.constant = np.ones(4, dtype=bool)  # setup-built, read-only
        d.constant.flags.writeable = False
        arrays, scalars = capture_state(d)
        assert set(arrays) == {"rank"}
        assert scalars == {"delta": 0.5, "iterations_run": 3, "note": None}


# --------------------------------------------------------------------- #
# Clean-path invariance
# --------------------------------------------------------------------- #


class TestCleanPathUnchanged:
    def test_no_faults_means_no_fault_stats(self, tiled_undirected):
        eng = GStoreEngine(tiled_undirected, _cfg())
        stats = eng.run(BFS(root=0))
        assert eng.injector is None
        assert "faults" not in stats.extra
        assert stats.extra["execution"]["degraded"] is False

    def test_injector_counters_empty_without_faults(self, tiled_undirected):
        inj = FaultInjector(FaultPlan(events=()))
        assert inj.counters() == {}
        assert inj.log_tuples() == []
