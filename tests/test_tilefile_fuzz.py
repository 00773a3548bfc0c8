"""Byte-flip fuzz over a saved graph's four files.

The contract (docs/RELIABILITY.md): one flipped bit anywhere in a saved
graph either fails *typed* — :class:`FormatError` out of
``TiledGraph.load``, or a ``CORRUPT`` report / :class:`ChecksumError` from
the checksum pass — or changes nothing an algorithm reads.  It never
surfaces as a bare ``ValueError``/``IndexError``, and never as a graph
that loads, verifies clean and differs from the one that was saved.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.cli import main
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import ChecksumError, FormatError
from repro.format.tiles import TiledGraph
from repro.format.validate import check_tiled_graph

N_PAYLOAD_FLIPS = 12
N_AUX_FLIPS = 300


@pytest.fixture()
def saved(tmp_path, tiled_undirected):
    d = tmp_path / "g"
    tiled_undirected.save(d)
    return d


class _Flipped:
    """One bit of one file flipped for the duration of the block."""

    def __init__(self, path, byte: int, bit: int):
        self.path, self.byte, self.mask = path, byte, 1 << bit

    def _flip(self):
        with open(self.path, "r+b") as fh:
            fh.seek(self.byte)
            value = fh.read(1)[0]
            fh.seek(self.byte)
            fh.write(bytes([value ^ self.mask]))

    def __enter__(self):
        self._flip()

    def __exit__(self, *exc):
        self._flip()


def _owning_tile(tg: TiledGraph, byte: int) -> int:
    ends = tg.start_edge.start_edge[1:].astype(np.int64) * tg.tuple_bytes
    return int(np.searchsorted(ends, byte, side="right"))


class TestPayloadFlips:
    def test_fsck_and_verified_runs_name_the_owning_tile(
        self, saved, tiled_undirected, capsys
    ):
        tg = tiled_undirected
        rng = np.random.default_rng(2016)
        n_bytes = tg.storage_bytes()
        assert main(["fsck", str(saved), "--checksums"]) == 0
        capsys.readouterr()
        for byte, bit in zip(
            rng.choice(n_bytes, N_PAYLOAD_FLIPS, replace=False).tolist(),
            rng.integers(0, 8, N_PAYLOAD_FLIPS).tolist(),
        ):
            pos = _owning_tile(tg, byte)
            i, j = int(tg.tile_rows[pos]), int(tg.tile_cols[pos])
            with _Flipped(saved / "tiles.dat", byte, bit):
                assert main(["fsck", str(saved), "--checksums"]) == 1
                errors = [
                    line
                    for line in capsys.readouterr().out.splitlines()
                    if "error:" in line
                ]
                # The deep walk may object to the damaged tuple too, but
                # every finding is about this tile and one is its CRC.
                assert all(f"({i},{j})" in line for line in errors), errors
                mismatches = [e for e in errors if "checksum mismatch" in e]
                assert len(mismatches) == 1, errors
                assert f"tile {pos} ({i},{j}) checksum" in mismatches[0]

                for depth in (0, 2):
                    ext = TiledGraph.load(saved, resident=False)
                    cfg = EngineConfig(
                        memory_bytes=64 * 1024, segment_bytes=8 * 1024,
                        verify_checksums=True, prefetch_depth=depth,
                    )
                    with GStoreEngine(ext, cfg) as engine:
                        with pytest.raises(ChecksumError) as ei:
                            engine.run(PageRank(max_iterations=1))
                    ctx = ei.value.context
                    assert (ctx["tile"], ctx["i"], ctx["j"]) == (pos, i, j)
                    assert ctx["expected"] != ctx["actual"]
                    assert (ctx["offset"], ctx["size"]) == (
                        tg.start_edge.byte_extent(pos)
                    )
        # Every flip was undone: the graph is clean again.
        assert main(["fsck", str(saved), "--checksums"]) == 0


def _equivalent(a: TiledGraph, b: TiledGraph) -> bool:
    """Everything an algorithm or the engine reads is the same."""
    return (
        a.info == b.info
        and a.snb == b.snb
        and a.start_edge.tuple_bytes == b.start_edge.tuple_bytes
        and all(
            np.array_equal(x, y)
            for x, y in (
                (a.start_edge.start_edge, b.start_edge.start_edge),
                (a.out_degrees, b.out_degrees),
                (a.in_degrees, b.in_degrees),
                (a.tile_checksums, b.tile_checksums),
                (a.payload, b.payload),
            )
        )
    )


def _outcome(saved, original: TiledGraph) -> str:
    """Load and deep-check the (damaged) graph; classify what happened.
    Anything but the typed failures propagates and fails the test."""
    try:
        tg = TiledGraph.load(saved)
    except FormatError:
        return "load-error"
    rep = check_tiled_graph(tg, deep=True, checksums=True)
    if not rep.ok or rep.checksums_unavailable:
        return "fsck-corrupt"
    assert _equivalent(tg, original), "loads, verifies clean, and differs"
    return "harmless"


class TestMetadataFlips:
    def test_every_bit_of_the_info_file(self, saved, tiled_undirected):
        # The info file decides tile width, group side and orientation
        # and nothing else repeats it: its checksum in the aux file
        # makes every single flip a load error.
        size = (saved / "info.json").stat().st_size
        for byte in range(size):
            for bit in range(8):
                with _Flipped(saved / "info.json", byte, bit):
                    with pytest.raises(FormatError):
                        TiledGraph.load(saved)

    def test_info_file_without_its_checksum(self, saved, tiled_undirected):
        # A graph saved before the info checksum existed: damage that
        # leaves it unparseable or inconsistent still fails typed, and the
        # rest (a changed name, a group side that merely re-labels tiles)
        # is at least safe to load and audit — which is as far as that
        # format can go, and why the checksum was added.
        aux_path = saved / "degrees.npz"
        with np.load(aux_path) as z:
            aux = {k: z[k] for k in z.files if k != "info_crc32c"}
        np.savez(aux_path, **aux)
        size = (saved / "info.json").stat().st_size
        seen = set()
        for byte in range(size):
            for bit in range(8):
                with _Flipped(saved / "info.json", byte, bit):
                    try:
                        tg = TiledGraph.load(saved)
                    except FormatError:
                        seen.add("load-error")
                    else:
                        seen.add("loaded")
                        check_tiled_graph(tg, checksums=True)
        assert seen == {"load-error", "loaded"}

    def test_every_bit_of_the_start_edge_file(self, saved, tiled_undirected):
        size = (saved / "start_edge.bin").stat().st_size
        seen = set()
        for byte in range(size):
            for bit in range(8):
                with _Flipped(saved / "start_edge.bin", byte, bit):
                    seen.add(_outcome(saved, tiled_undirected))
        # Header and high-order flips break the index outright; a
        # low-order flip that keeps it monotone moves a tile boundary,
        # which only the checksum pass can see.
        assert seen == {"load-error", "fsck-corrupt"}

    def test_sampled_bits_of_the_aux_file(self, saved, tiled_undirected):
        size = (saved / "degrees.npz").stat().st_size
        rng = np.random.default_rng(61)
        seen = set()
        for byte, bit in zip(
            rng.integers(0, size, N_AUX_FLIPS).tolist(),
            rng.integers(0, 8, N_AUX_FLIPS).tolist(),
        ):
            with _Flipped(saved / "degrees.npz", byte, bit):
                seen.add(_outcome(saved, tiled_undirected))
        # Array bytes sit under the zip member CRC; some zip header
        # fields (timestamps, redundant local copies) are read by nobody.
        assert "load-error" in seen
        assert seen <= {"load-error", "harmless"}
