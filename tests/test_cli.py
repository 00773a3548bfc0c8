"""CLI smoke tests (argument wiring, not re-testing the engines)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "bfs", "kron-small-16"])
        assert args.algorithm == "bfs"
        assert args.memory_fraction == 0.25
        assert not args.no_scr

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "dijkstra", "kron-small-16"])

    def test_bad_experiment_rejected(self):
        from repro.bench.experiments import EXPERIMENTS

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "fig99"])
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "fig13", "fig99"])
        # The labels are the experiment index, all 24 runners of it, one
        # result file each (test_source_structure_holds: cli.py spells no
        # label itself).
        labels = [label for label, *_ in EXPERIMENTS]
        assert (len(set(labels)) == len({fn for _, fn, _, _ in EXPERIMENTS})
                == len({stem for _, _, (stem, _), _ in EXPERIMENTS}) == 24)
        for label in labels:
            assert parser.parse_args(["bench", label]).labels == [label]
        args = parser.parse_args(["bench"])
        assert args.labels == [] and args.results is None


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "twitter-small" in out
        assert "Kron-28-16" in out

    def test_info(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["info", "kron-small-16", "--tier", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tiles:" in out
        assert "tile skew" in out

    def test_convert_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "converted"
        assert (
            main(
                [
                    "convert",
                    "kron-small-16",
                    "--tier",
                    "tiny",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert (out_dir / "tiles.dat").exists()
        assert (out_dir / "start_edge.bin").exists()
        assert (out_dir / "info.json").exists()

    def test_run_bfs(self, capsys):
        assert main(["run", "bfs", "kron-small-16", "--tier", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "gstore/bfs" in out
        assert "MTEPS" in out

    def test_run_base_policy(self, capsys):
        assert (
            main(
                [
                    "run",
                    "pagerank",
                    "kron-small-16",
                    "--tier",
                    "tiny",
                    "--no-scr",
                ]
            )
            == 0
        )
        assert "gstore/pagerank" in capsys.readouterr().out

    def test_bench_table2(self, capsys, monkeypatch):
        assert main(["bench", "table2"]) == 0
        assert "Kron-33-16" in capsys.readouterr().out
        # ...and one of the runners only the experiment index brought to
        # the CLI.
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["bench", "ext_scc"]) == 0
        assert "dual-CSR alternative" in capsys.readouterr().out

    def test_bench_writes_exactly_the_named_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(["bench", "fig13", "table2", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert sorted(p.name for p in results.iterdir()) == [
            "fig13_scr.txt", "table2_sizes.txt"
        ]
        for path in results.iterdir():
            assert path.read_text(encoding="utf-8") in out

    def test_bench_runs_every_entry_and_fails_on_a_claim(self, tmp_path,
                                                         monkeypatch, capsys):
        import repro.bench.experiments as E
        from repro.bench.tables import Table

        def entry(label, claims):
            def runner():
                table = Table(f"Table {label}", ["x"])
                table.add_row(1)
                return table, claims

            return label, runner, (f"stem_{label}", label), lambda data: data

        monkeypatch.setattr(E, "EXPERIMENTS", (
            entry("a", []), entry("b", ["b's claim (got 0.9)"]), entry("c", []),
        ))
        # No label: every entry, in index order, and exit 1 only after the
        # table past the failed claim is written too.
        assert main(["bench", "--results", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        order = [captured.out.index(f"Table {label}") for label in "abc"]
        assert order == sorted(order)
        assert captured.err.strip() == "FAILED b: b's claim (got 0.9)"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "stem_a.txt", "stem_b.txt", "stem_c.txt"
        ]
