"""The developer tools: API-docs generator and CLI fsck/report paths —
and the source tree's own structural rules."""

import ast
import collections
import copy
import dataclasses
import inspect
import os
import subprocess

import pytest

from repro.cli import main
from tools import check_links, equiv_matrix, gen_api_docs


class TestGenApiDocs:
    @pytest.fixture(scope="class")
    def tool(self):
        return gen_api_docs

    def test_iter_modules_covers_package(self, tool):
        mods = tool.iter_modules("repro")
        assert "repro.engine.gstore" in mods
        assert "repro.format.tiles" in mods
        assert not any(m.endswith("__main__") for m in mods)

    def test_document_module(self, tool):
        lines = tool.document_module("repro.format.startedge")
        text = "\n".join(lines)
        assert "repro.format.startedge" in text
        assert "class `StartEdgeIndex`" in text

    def test_generates_file(self, tool, tmp_path):
        out = tmp_path / "API.md"
        assert tool.main(str(out)) == 0
        body = out.read_text()
        assert "# API reference" in body
        assert "class `TiledGraph`" in body

    def test_first_paragraph_handles_missing(self, tool):
        assert "undocumented" in tool._first_paragraph(None)
        assert tool._first_paragraph("One.\n\nTwo.") == "One."

    def test_covers_obs_and_runtime(self, tool):
        mods = tool.iter_modules("repro")
        assert "repro.obs.trace" in mods
        assert "repro.runtime.pipeline" in mods
        text = "\n".join(tool.document_module("repro.obs.trace"))
        assert "class `Tracer`" in text
        assert "sim_span" in text

    def test_render_deterministic(self, tool):
        assert tool.render() == tool.render()

    def test_check_mode(self, tool, tmp_path, capsys):
        out = tmp_path / "API.md"
        assert tool.main(str(out)) == 0
        assert tool.main(str(out), check=True) == 0
        out.write_text("stale")
        assert tool.main(str(out), check=True) == 1
        assert "stale" in capsys.readouterr().out

    def test_check_missing_file_is_stale(self, tool, tmp_path):
        assert tool.main(str(tmp_path / "nope.md"), check=True) == 1

    def test_committed_api_md_is_fresh(self, tool):
        """The repo's docs/API.md matches the current docstrings."""
        path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "API.md"
        )
        assert tool.main(path, check=True) == 0


class TestCheckLinks:
    @pytest.fixture(scope="class")
    def tool(self):
        return check_links

    def test_extracts_links_outside_fences(self, tool):
        text = (
            "[a](x.md)\n"
            "```\n[ignored](y.md)\n```\n"
            "see `[also ignored](z.md)` and [b](docs/c.md#anchor)\n"
        )
        targets = [t for _, t in tool.extract_links(text)]
        assert targets == ["x.md", "docs/c.md#anchor"]

    def test_skips_external_and_anchors(self, tool, tmp_path):
        md = tmp_path / "a.md"
        md.write_text(
            "[web](https://example.com) [mail](mailto:x@y.z) [top](#here)\n"
        )
        assert tool.check_file(str(md), str(tmp_path)) == []

    def test_flags_broken_relative_link(self, tool, tmp_path):
        md = tmp_path / "a.md"
        md.write_text("[gone](missing.md)\n")
        errors = tool.check_file(str(md), str(tmp_path))
        assert len(errors) == 1
        assert "missing.md" in errors[0]

    def test_resolves_relative_to_file(self, tool, tmp_path):
        sub = tmp_path / "docs"
        sub.mkdir()
        (sub / "other.md").write_text("x")
        md = sub / "a.md"
        md.write_text("[ok](other.md) [up](../docs/other.md#sec)\n")
        assert tool.check_file(str(md), str(tmp_path)) == []

    def test_main_counts_broken(self, tool, tmp_path, capsys):
        (tmp_path / "a.md").write_text("[gone](nope.md)\n")
        rc = tool.main([str(tmp_path)])
        assert rc == 1
        assert "1 broken" in capsys.readouterr().out

    def test_repo_docs_are_clean(self, tool):
        """Every intra-repo markdown link in this repo resolves."""
        assert tool.main([]) == 0


class TestEquivMatrix:
    @pytest.fixture(scope="class")
    def tool(self):
        return equiv_matrix

    def test_diff_names_every_changed_field(self, tool):
        ours = {"k": {"result": "a", "stats": {"iterations": [{"io": 1.0}, {"io": 2.0}]}}}
        same = {"k": {"result": "a", "stats": {"iterations": [{"io": 1.0}, {"io": 2.0}]}}}
        assert tool.diff_records(ours, same) == []
        theirs = {
            "k": {"result": "b", "stats": {"iterations": [{"io": 1.0}, {"io": 2.5}]}},
            "gone": {},
        }
        assert tool.diff_records(ours, theirs) == [
            "gone: missing in this tree",
            "k.result: 'b' -> 'a'",
            "k.stats.iterations[1].io: 2.5 -> 2.0",
        ]

    def test_a_tree_runs_with_the_callers_import_path_after_it(
        self, tool, monkeypatch
    ):
        """``--against`` puts each tree's ``src`` first and keeps the
        caller's ``PYTHONPATH`` entries after it: a cffi-blocking
        ``sitecustomize`` there still reaches both runs."""
        seen = {}

        def run(cmd, env, **kwargs):
            seen["path"] = env["PYTHONPATH"]
            return subprocess.CompletedProcess(cmd, 0, stdout="")

        caller = os.pathsep.join(["/elsewhere/numpy-tier", "", "/extra"])
        monkeypatch.setenv("PYTHONPATH", caller)
        monkeypatch.setattr(tool.subprocess, "run", run)
        assert tool._run_tree("/tree/src") == {}
        assert seen["path"].split(os.pathsep) == [
            "/tree/src", "/elsewhere/numpy-tier", "/extra"]
        monkeypatch.delenv("PYTHONPATH")
        tool._run_tree("/tree/src")
        assert seen["path"] == "/tree/src"

    def test_lattice_violations_name_key_and_field(self, tool, lattice):
        """The within-tree checker names the key and field of a planted
        mismatch, and the key it was held to."""
        records, _ = lattice
        run = "bfs/directed/8K/fused/depth4/dense"
        answer = "pagerank/directed/24K/fused/private/selective"
        planted = dict(records)
        planted[run] = copy.deepcopy(records[run])
        iteration = planted[run]["stats"]["iterations"][1]
        iteration["bytes_read"] += 1
        planted[answer] = dict(records[answer], result="0" * 64)
        assert tool.lattice_violations(planted) == [
            f"{run}.stats.iterations[1].bytes_read: "
            f"{iteration['bytes_read'] - 1} -> {iteration['bytes_read']} "
            "(against bfs/directed/8K/fused/depth0/dense)",
            f"{answer}.result: {records[answer]['result']!r} -> {'0' * 64!r} "
            "(against pagerank/directed/24K/fused/depth0/selective)",
        ]

    def test_enumeration_covers_every_kind(self, tool, lattice):
        """The session's lattice: every configuration kind in the counts
        the tool's docstring states, each record's digest naming its answer
        and carrying per-iteration fields."""
        records, answers = lattice
        names = tool.algorithms()
        kinds = collections.Counter(
            key.split("/")[4 if key.split("/")[0] in names else 0]
            for key in records
        )
        assert kinds == {
            "depth0": 144, "depth2": 144, "depth1": 144, "depth4": 144,
            "private": 6, "resumed": 6,
            "scc": 2, "xstream": 24, "flashgraph": 24, "gridgraph": 24,
        }  # 662 records
        for key, rec in records.items():
            assert tool._digest(answers[rec["result"]]) == rec["result"]
            if key.startswith("scc/"):
                assert rec["sweeps"] and rec["n_components"] > 1
                continue
            assert rec["stats"]["iterations"]
            if key.split("/")[0] in ("xstream", "flashgraph", "gridgraph"):
                assert rec["clock"] == rec["stats"]["sim_elapsed"] > 0
                assert ("page_cache" in rec) == (not key.startswith("xstream"))
            else:
                assert "tiles_cached" in rec["stats"]["scr"]


SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def _src_trees():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, SRC), ast.parse(fh.read())


def _imports(tree):
    """Every module path an import statement anywhere under ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def _attr_loads(tree, attr):
    """The innermost enclosing function (``<module>`` at top level) of
    every read of ``.attr`` under ``tree``, one entry a read."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                out.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return out


def _is_os_attr(node, attr):
    return (
        isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def _env_reads(tree):
    """``(keys, mentions)``: the literal keys of every ``os.environ.get(K)``
    / ``os.environ[K]`` / ``os.getenv(K)``, and how often ``os.environ`` /
    ``os.getenv`` appear at all (more mentions than keys = some other use)."""
    keys, mentions = [], 0
    for node in ast.walk(tree):
        mentions += _is_os_attr(node, "environ") or _is_os_attr(node, "getenv")
        key = None
        if isinstance(node, ast.Subscript) and _is_os_attr(node.value, "environ"):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args and (
            _is_os_attr(node.func, "getenv")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _is_os_attr(node.func.value, "environ"))
        ):
            key = node.args[0]
        if isinstance(key, ast.Constant):
            keys.append(key.value)
    return keys, mentions


def test_source_structure_holds():
    """Rules ``src/repro`` keeps about itself: the runtime never reaches up
    into the engine, the engine and algorithms import the runtime at module
    level only, the shard structure (a live kernel's relaxation order) is
    assigned in one place, tile bytes take one path — no
    execution layer holds per-tile buffers, no algorithm opens the store,
    one function decodes a batch and one walks its shards
    (``execute_batch``), one function is the kernel on a single
    tile (no algorithm carries a per-tile twin, nothing asks whether an
    algorithm or a configuration is fused, and neither ``execute_batch``
    nor ``decode_extents`` takes a ``fused`` argument: there is one
    dispatch granularity) — the tile grid is never walked (no
    tuple-list geometry, no per-tile payload iterator, one engine per SCC
    driver) and the format package reads bytes without the storage or
    engine layers — the prefetch depth is resolved in one place (outside
    the config's own validation, ``prefetch_depth`` is read only by
    ``GStoreEngine._prefetch_depth`` and the ``extra["execution"]``
    record in ``_run``, so nothing else decides whether a prefetch thread
    runs) — no module imports scipy's private ``scipy.sparse._sparsetools``,
    and one imports cffi, ``algorithms/native.py``, so the compiled tier is
    chosen in one place — every run is one process (no module imports
    ``multiprocessing``) —
    no kernel gathers through NumPy's slow ``uint32`` fancy-index path
    (each ``kernel_partial`` under ``algorithms/`` calls ``gather_ids``,
    defined once in ``algorithms/base.py``, or its class's commit,
    ``apply_partial``, calls ``scatter_add``, whose compiled loop reads
    the tile form directly; a live relaxation, whose ``kernel_partial``
    only hands its commit the shard, gathers in ``apply_partial``) — a
    kernel that declares ``reads_ids`` false reads tile form (its commit
    calls ``scatter_add``; or its ``kernel_partial`` calls a compiled
    tile-form discovery, or its commit the compiled relaxation
    ``rounds``, and the same method's NumPy fallback widens the shard
    before ``gather_ids``) and only CC, k-core, MIS and MultiBFS still
    read IDs — no ``rows_active_next`` or ``cols_active_next``, which the
    cache asks after every batch, folds a vertex mask
    (``_rows_of_vertices``): the rows are kept as commits land —
    one engine loop (under ``engine/`` only ``GStoreEngine`` defines
    ``run``) — the experiment verdicts are plain predicates (no
    ``assert`` in ``bench/experiments.py``, which ``python -O`` would
    strip), each entry records exactly one result file — and the option
    surface — config fields (both sides of a
    comparison) and environment variables — is exactly the documented
    one."""
    from repro.baselines.common import BaselineConfig
    from repro.bench.experiments import EXPERIMENTS
    from repro.engine.config import EngineConfig
    from repro.format.tiles import TiledGraph
    from repro.runtime.threads import execute_batch

    grid_walks = {"iter_tiles", "disk_order", "tiles_in_group",
                  "group_slices", "engine_factory"}

    shard_names = {"SHARDS_PER_BATCH", "MIN_SHARD_EDGES", "_RUN_SPLIT",
                   "DEFAULT_MAX_SHARDS", "FLOAT_SHARD_QUANTUM"}
    upward, late, shard_assigned, env_keys, env_mentions = [], [], [], [], 0
    per_tile, off_engine, batch_decoders, shard_walks = [], [], [], []
    walked, format_reach = [], []
    tile_kernels, fused_asked, twin_imports = [], [], []
    comparator_defs, page_table_reach, index_literals = [], [], []
    depth_reads, private_scipy, cffi_users, process_users = [], [], [], []
    gather_defs, kernels, raw_kernels = [], [], []
    id_readers, unwidened, folds = [], [], []
    discoveries = {"discover_bfs", "discover_reach"}
    engine_runs, verdict_asserts = [], []
    comparator_names = {"run_bfs", "run_pagerank", "run_cc", "_account"}
    stems = {stem for _, _, (stem, _), _ in EXPERIMENTS}
    indexed = stems | {label for label, *_ in EXPERIMENTS}
    for rel, tree in _src_trees():
        package = rel.split(os.sep)[0]
        if any(m.startswith("scipy.sparse._sparsetools") for m in _imports(tree)):
            private_scipy.append(rel)
        if any(m.split(".")[0] == "cffi" for m in _imports(tree)):
            cffi_users.append(rel)
        if any(m.split(".")[0] == "multiprocessing" for m in _imports(tree)):
            process_users.append(rel)
        if rel != os.path.join("engine", "config.py"):
            depth_reads += [
                f"{rel}: {fn}" for fn in _attr_loads(tree, "prefetch_depth")
            ]
        comparator_defs += [
            f"{rel}: {fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in comparator_names
        ]
        if rel != os.path.join("cache", "pagecache.py"):
            page_table_reach += [
                rel for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_pages"
            ]
        if rel == os.path.join("bench", "experiments.py"):
            verdict_asserts += [
                node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
            ]
        if rel in ("cli.py", os.path.join("bench", "report.py")):
            index_literals += [
                f"{rel}: {node.value}" for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in indexed
            ]
        tile_kernels += [
            f"{rel}: {fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "process_tile"
        ]
        fused_asked += [
            f"{rel}: {node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("supports_fused", "fused")
        ]
        gather_defs += [
            f"{rel}: {fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "gather_ids"
        ]
        if package == "algorithms" and os.path.basename(rel) != "base.py":
            twin_imports += [
                f"{rel}: {m}" for m in _imports(tree)
                if m.endswith(".TileView")
            ]
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                calls = {
                    fn.name: {
                        getattr(node.func, "id", getattr(node.func, "attr", None))
                        for node in ast.walk(fn) if isinstance(node, ast.Call)
                    }
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                }
                folds += [
                    f"{rel}: {cls.name}.{name}" for name in
                    ("rows_active_next", "cols_active_next")
                    if "_rows_of_vertices" in calls.get(name, ())
                ]
                if "kernel_partial" not in calls:
                    continue
                kernels.append(f"{rel}: {cls.name}")
                kernel = calls["kernel_partial"]
                commit = calls.get("apply_partial", set())
                scatters = "scatter_add" in commit
                relaxes = "rounds" in commit
                if not ("gather_ids" in kernel or scatters
                        or relaxes and "gather_ids" in commit):
                    raw_kernels.append(f"{rel}: {cls.name}")
                tile_form = any(
                    isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["reads_ids"]
                    and getattr(node.value, "value", True) is False
                    for node in cls.body
                )
                if not tile_form:
                    id_readers.append(cls.name)
                elif not scatters and not (
                    discoveries & kernel and "widen" in kernel
                    or relaxes and "widen" in commit
                ):
                    unwidened.append(f"{rel}: {cls.name}")
        walked += [
            f"{rel}: {name}"
            for node in ast.walk(tree)
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None), getattr(node, "arg", None),
            )
            if name in grid_walks
        ]
        if package == "engine":
            engine_runs += [
                f"{rel}: {cls.name}" for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef)
                and any(isinstance(fn, ast.FunctionDef) and fn.name == "run"
                        for fn in cls.body)
            ]
        if package == "format":
            format_reach += [
                f"{rel}: {m}" for m in _imports(tree)
                if m.startswith(("repro.storage", "repro.engine"))
            ]
        if package == "runtime":
            upward += [
                f"{rel}: {m}" for m in _imports(tree)
                if m.startswith(("repro.engine.gstore", "repro.engine.context"))
            ]
        if package in ("engine", "runtime", "serve", "algorithms"):
            per_tile += [
                f"{rel}: {m}" for m in _imports(tree)
                if m.endswith(".TileBuffer")
            ]
        if package == "algorithms":
            off_engine += [
                f"{rel}: {m}" for m in _imports(tree)
                if m.startswith("repro.storage")
            ]
        for attr, found in (("decode_batch", batch_decoders),
                            ("shard_cuts", shard_walks)):
            found += [
                f"{rel}: {fn.name}"
                for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr
            ]
        if package in ("engine", "algorithms"):
            late += [
                f"{rel}: {fn.name}() imports {m}"
                for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for m in _imports(fn) if m.startswith("repro.runtime")
            ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                shard_assigned += [
                    f"{rel}: {t.id}" for t in targets
                    if isinstance(t, ast.Name) and t.id in shard_names
                ]
        keys, mentions = _env_reads(tree)
        env_keys += keys
        env_mentions += mentions
    assert not upward, upward
    assert not late, late
    assert not per_tile, per_tile
    assert not off_engine, off_engine
    assert not walked, walked
    assert not format_reach, format_reach
    assert engine_runs == [
        os.path.join("engine", "gstore.py") + ": GStoreEngine"
    ], engine_runs
    assert tile_kernels == [
        os.path.join("algorithms", "base.py") + ": process_tile"
    ]
    assert not fused_asked, fused_asked
    for dispatch in (execute_batch, TiledGraph.decode_extents):
        assert "fused" not in inspect.signature(dispatch).parameters
    assert not twin_imports, twin_imports
    assert sorted(comparator_defs) == sorted(
        os.path.join("baselines", "common.py") + f": {name}"
        for name in comparator_names
    )
    assert not page_table_reach, page_table_reach
    assert not index_literals, index_literals
    assert not verdict_asserts, verdict_asserts
    assert sorted(depth_reads) == [
        os.path.join("engine", "gstore.py") + f": {fn}"
        for fn in ("_prefetch_depth", "_run")
    ], depth_reads
    assert not private_scipy, private_scipy
    assert cffi_users == [os.path.join("algorithms", "native.py")]
    # Every run executes in one process: the engine thread, the prefetch
    # thread and the kernel pool.
    assert not process_users, process_users
    assert gather_defs == [os.path.join("algorithms", "base.py") + ": gather_ids"]
    assert kernels and not raw_kernels, raw_kernels
    assert not unwidened, unwidened
    assert not folds, folds
    assert sorted(id_readers) == [
        "ConnectedComponents", "KCore", "MaximalIndependentSet",
        "MultiSourceBFS",
    ], id_readers
    results_dir = os.path.join(SRC, "..", "..", "benchmarks", "results")
    recorded = {
        os.path.splitext(f)[0] for f in os.listdir(results_dir) if f.endswith(".txt")
    }
    assert recorded == stems, recorded ^ stems
    # ``decode_batch`` is the layer walk's list-of-views adapter: nothing
    # in ``src/`` decodes through it.
    assert batch_decoders == []
    # One function walks a batch's shards, pooled or not.
    assert shard_walks == [os.path.join("runtime", "threads.py") + ": execute_batch"]
    assert shard_assigned == [
        "types.py: SHARDS_PER_BATCH", "types.py: MIN_SHARD_EDGES"
    ]
    assert len(dataclasses.fields(EngineConfig)) == 16
    assert len(dataclasses.fields(BaselineConfig)) == 7
    assert env_keys == ["REPRO_SCALE"]
    assert env_mentions == len(env_keys)


class TestCliFsck:
    def test_clean_graph_exit_zero(self, tmp_path, tiled_undirected, capsys):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        assert main(["fsck", str(d)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupt_graph_exit_one(self, tmp_path, tiled_undirected, capsys):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        import json

        info_path = d / "info.json"
        info = json.loads(info_path.read_text())
        info["n_edges"] = 1
        info_path.write_text(json.dumps(info))
        assert main(["fsck", str(d), "--shallow"]) == 1
        assert "CORRUPT" in capsys.readouterr().out


class TestCliFsckCheckpoint:
    """``repro fsck --checkpoint DIR``: the 0/1/2 contract extends to
    checkpoint integrity (state.npz/meta.json cross-check plus
    cache-pool membership against the graph being checked)."""

    @pytest.fixture()
    def saved(self, tmp_path, tiled_undirected):
        from repro.algorithms.pagerank import PageRank
        from repro.engine.config import EngineConfig
        from repro.engine.gstore import GStoreEngine

        d = tmp_path / "g"
        tiled_undirected.save(d)
        ckpt = tmp_path / "ckpt"
        eng = GStoreEngine(
            tiled_undirected,
            EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024),
        )
        eng.run(
            PageRank(max_iterations=3, tolerance=0.0), checkpoint=str(ckpt)
        )
        eng.close()
        return d, ckpt

    def test_clean_checkpoint_exit_zero(self, saved, capsys):
        d, ckpt = saved
        assert main(["fsck", str(d), "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out and "OK" in out

    def test_missing_checkpoint_exit_two(self, saved, tmp_path, capsys):
        d, _ = saved
        rc = main(
            ["fsck", str(d), "--checkpoint", str(tmp_path / "nothing")]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().out

    def test_torn_checkpoint_exit_one(self, saved, capsys):
        import json

        d, ckpt = saved
        meta_path = ckpt / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["iteration"] = 99  # state.npz still says the real one
        meta_path.write_text(json.dumps(meta))
        assert main(["fsck", str(d), "--checkpoint", str(ckpt)]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_bad_pool_membership_exit_one(self, saved, capsys):
        import json

        d, ckpt = saved
        meta_path = ckpt / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["engine"]["cached_positions"] = [0, 0, 10**6]
        meta_path.write_text(json.dumps(meta))
        assert main(["fsck", str(d), "--checkpoint", str(ckpt)]) == 1
        out = capsys.readouterr().out
        assert "duplicate" in out and "outside tile grid" in out

    def test_check_checkpoint_library_surface(self, saved):
        from repro.engine.checkpoint import check_checkpoint

        d, ckpt = saved
        rep = check_checkpoint(ckpt)
        assert rep.present and rep.ok
        assert rep.algorithm == "pagerank"
        assert rep.arrays > 0 and rep.cached_tiles > 0

        missing = check_checkpoint(str(ckpt) + "-nope")
        assert not missing.present and not missing.ok

        (ckpt / "state.npz").unlink()
        rep = check_checkpoint(ckpt)
        assert rep.present and not rep.ok
        assert any("state.npz" in p for p in rep.problems)


class TestCliReport:
    def test_report_to_stdout(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig13_scr.txt").write_text("== Figure 13 ==\nx | 1\n")
        assert main(["report", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out

    def test_report_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table2_sizes.txt").write_text("== Table II ==\n")
        out_file = tmp_path / "R.md"
        assert main(
            ["report", "--results", str(results), "--out", str(out_file)]
        ) == 0
        assert "Table II" in out_file.read_text()
