"""Report collation from recorded experiment tables."""

import os

from repro.bench.report import build_report


def _write(dirpath, name, body="== T ==\na | b\n--+--\n1 | 2"):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, f"{name}.txt"), "w") as fh:
        fh.write(body + "\n")


class TestBuildReport:
    def test_orders_known_tables(self, tmp_path):
        d = str(tmp_path)
        _write(d, "fig13_scr")
        _write(d, "table2_sizes")
        text, status = build_report(d)
        # Paper order: Table II before Figure 13.
        assert text.index("Table II") < text.index("Figure 13")
        assert set(status.found) == {"table2_sizes", "fig13_scr"}

    def test_missing_listed(self, tmp_path):
        d = str(tmp_path)
        _write(d, "table2_sizes")
        text, status = build_report(d)
        assert "Missing experiments" in text
        assert "fig15_ssd_scaling" in status.missing

    def test_unknown_files_appended(self, tmp_path):
        d = str(tmp_path)
        _write(d, "my_custom_sweep")
        text, status = build_report(d)
        assert "(unindexed) my_custom_sweep" in text
        assert status.unknown == ["my_custom_sweep"]

    def test_table_bodies_included(self, tmp_path):
        d = str(tmp_path)
        _write(d, "fig13_scr", body="== Figure 13 ==\nbfs | 3.28")
        text, _ = build_report(d)
        assert "bfs | 3.28" in text

    def test_empty_dir(self, tmp_path):
        text, status = build_report(str(tmp_path))
        assert status.found == []
        assert len(status.missing) > 10

    def test_real_results_dir_if_present(self):
        results = os.path.join("benchmarks", "results")
        if not os.path.isdir(results):  # pragma: no cover
            return
        text, status = build_report(results)
        assert status.found  # the bench suite has been run in this repo
        assert "Table II" in text
        # Exactly the indexed tables: none missing, none stale.
        assert status.missing == []
        assert status.unknown == []
