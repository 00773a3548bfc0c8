"""Every experiment's paper claims hold at the tiny tier.

Each :data:`~repro.bench.experiments.EXPERIMENTS` entry carries its claims
as ``verdict(data)``; here each runner runs with its default arguments and
its verdict must come back empty.  ``python -m repro bench`` checks the
same verdicts at the default small tier.
"""

import re

import pytest

import repro.bench.experiments as E

#: Entries whose verdict is not checked at the tiny tier, and why.
NOT_AT_TINY = {
    "fig2b": "wall-clock; test_fig2b_localisation_helps measures it on its "
             "own graph with repeats",
    "fig15": "small-tier magnitude: at tiny BFS reads 1.34x on 2 SSDs and "
             "1.55x on 4 against the 1.4x and 2x claims",
    "ext_tile_compression": "small-tier magnitude: at tiny delta+varint "
                            "reads 0.94x and 0.99x against the 1.3x claim",
}


def _reproduces(label):
    """Run ``label``'s experiment; assert its verdict is empty."""
    (runner, verdict), = [(r, v) for name, r, _, v in E.EXPERIMENTS if name == label]
    table, data = runner()
    assert verdict(data) == []
    return table


class TestTables:
    def test_table1_reports_both_conversions(self):
        assert "kron-small-16" in _reproduces("table1").render()

    def test_table2_space_savings(self):
        _reproduces("table2")

    def test_table3_runs_and_orders(self):
        _reproduces("table3")


class TestObservations:
    def test_fig2a_halving_tuples_near_doubles(self):
        _reproduces("fig2a")

    def test_fig2c_flat(self):
        _reproduces("fig2c")

    @pytest.mark.slow
    @pytest.mark.wall_clock
    def test_fig2b_localisation_helps(self):
        # Real wall-clock measurement — take the min of several repeats to
        # ride out scheduler noise, and compare best-partitioned against
        # unpartitioned with a small tolerance.
        _, times = E.fig2b_partitions(
            scale_vertices=1 << 19,
            n_edges=(1 << 19) * 6,
            partition_counts=(1, 8, 64),
            repeats=4,
        )
        assert min(times[8], times[64]) < times[1] * 1.02


class TestDistributions:
    def test_fig5_skew(self):
        _reproduces("fig5")

    def test_fig7_group_spread(self):
        _reproduces("fig7")


class TestComparisons:
    def test_vs_xstream_direction(self):
        _reproduces("xstream")

    def test_fig9_vs_flashgraph_direction(self):
        _reproduces("fig9")


class TestAblations:
    def test_fig10_ordering(self):
        _reproduces("fig10")

    def test_fig11_12_u_shape(self):
        _reproduces("fig11")

    def test_fig13_scr_wins(self):
        _reproduces("fig13")

    def test_fig14_monotone_in_memory(self):
        _reproduces("fig14")

    def test_fig15_scaling_shape(self):
        _, data = E.fig15_ssd_scaling(dataset="kron-small-16")
        for algo, times in data.items():
            assert times[1] < times[0]  # 2 SSDs beat 1
            assert times[-1] <= times[0]

    def test_ablation_io_modes_ordering(self):
        _reproduces("io-modes")

    def test_ablation_degree_compression(self):
        _reproduces("degree-compression")


@pytest.mark.parametrize("label", [
    label for label, *_ in E.EXPERIMENTS
    if label.startswith("ext_") and label not in NOT_AT_TINY
])
def test_extension_reproduces(label):
    _reproduces(label)


def test_every_entry_is_checked():
    """A new entry gets a test here or a reason in :data:`NOT_AT_TINY`."""
    with open(__file__, encoding="utf-8") as fh:
        named = set(re.findall(r'_reproduces\("([^"]+)"\)', fh.read()))
    labels = {label for label, *_ in E.EXPERIMENTS}
    extensions = {label for label in labels if label.startswith("ext_")}
    assert labels == named | extensions | set(NOT_AT_TINY)
