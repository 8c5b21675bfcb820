"""Integration tests: every experiment driver runs end-to-end at smoke scale.

These are the tests that tie the library to the paper: each driver must
produce rows with the expected structure, and the qualitative claims the paper
makes (costs grow with the order, parallel time shrinks with the core count,
speed-ups are close to ideal, the runtime distribution looks exponential) must
hold on the reproduction's own data even at smoke scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.ablations import ABLATIONS, run_ablation
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.parallel.runner import ExperimentRunner


@pytest.fixture(scope="module")
def scale() -> ExperimentScale:
    return ExperimentScale.smoke()


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    # One shared runner so pools collected by one experiment are reused by the others.
    return ExperimentRunner()


class TestScalePresets:
    def test_by_name(self):
        assert ExperimentScale.by_name("smoke").name == "smoke"
        assert ExperimentScale.by_name("default").name == "default"
        assert ExperimentScale.by_name("paper").table1_orders[-1] == 20
        with pytest.raises(ValueError):
            ExperimentScale.by_name("gigantic")

    def test_registry_contents(self):
        identifiers = list_experiments()
        for expected in ("table1", "table2", "table3", "table4", "table5",
                         "figure2", "figure3", "figure4", "cp"):
            assert expected in identifiers
        assert all(f"ablation-{name}" in identifiers for name in ABLATIONS)
        with pytest.raises(KeyError):
            get_experiment("table99")


class TestSequentialExperiments:
    def test_table1(self, scale, runner):
        result = run_experiment("table1", scale, runner)
        assert result.experiment == "table1"
        assert len(result.rows) == len(scale.table1_orders)
        for row in result.rows:
            assert row["solved"] > 0
            assert row["time_min"] <= row["time_avg"] <= row["time_max"]
            assert row["iterations_min"] <= row["iterations_avg"] <= row["iterations_max"]
            assert row["ratio_avg_over_min"] >= 1.0
        # Average iterations grow with the order (exponential behaviour claim).
        iters = [row["iterations_avg"] for row in result.rows]
        assert iters == sorted(iters)
        assert "Table I" in result.format()

    def test_table2(self, scale, runner):
        result = run_experiment("table2", scale, runner)
        assert len(result.rows) == len(scale.table2_orders)
        for row in result.rows:
            assert row["as_solved"] > 0
            assert row["ds_solved"] >= 0
            if row["ds_avg_time"] is not None and row["as_avg_time"]:
                assert row["ds_over_as"] > 0
        assert "Dialectic" in result.format()

    def test_cp_comparison(self, scale, runner):
        result = run_experiment("cp", scale, runner)
        assert len(result.rows) == len(scale.cp_orders)
        for row in result.rows:
            assert row["cp_avg_nodes"] is None or row["cp_avg_nodes"] > 0


class TestParallelExperiments:
    def test_table3_cells_decrease_with_cores(self, scale, runner):
        result = run_experiment("table3", scale, runner)
        stats = result.metadata["statistics"]
        for order in scale.table3_orders:
            times = [stats[order][str(c)]["avg"] for c in scale.table3_cores]
            # Parallel columns must not be slower than the sequential column.
            assert times[-1] <= times[0]
            # And the largest core count should be the (weakly) fastest parallel cell.
            assert times[-1] == min(times)
        assert result.metadata["machine"] == "HA8000"

    def test_table4_jugene(self, scale, runner):
        result = run_experiment("table4", scale, runner)
        assert result.metadata["machine"] == "JUGENE"
        stats = result.metadata["statistics"]
        for order in scale.table4_orders:
            times = [stats[order][str(c)]["avg"] for c in scale.table4_cores]
            # Adding cores must not make things noticeably worse (at this
            # scale the core counts sit in the saturation regime).
            assert times[-1] <= times[0] * 1.2

    def test_table5_has_both_clusters(self, scale, runner):
        result = run_experiment("table5", scale, runner)
        machines = {row["machine"] for row in result.rows}
        assert machines == {"Suno", "Helios"}

    def test_figure2_speedups(self, scale, runner):
        result = run_experiment("figure2", scale, runner)
        assert result.rows, "expected at least one speed-up point"
        for row in result.rows:
            assert row["speedup"] > 0
            assert row["ideal"] >= 1.0
        # For each machine, speed-up grows with the core count.
        by_machine = {}
        for row in result.rows:
            by_machine.setdefault(row["machine"], []).append((row["cores"], row["speedup"]))
        for series in by_machine.values():
            series.sort()
            speedups = [s for _, s in series]
            assert speedups[-1] >= speedups[0]

    def test_figure3_near_linear(self, scale, runner):
        result = run_experiment("figure3", scale, runner)
        for row in result.rows:
            assert 0 < row["speedup"] <= row["ideal"] * 1.5
        largest = [r for r in result.rows if r["cores"] == max(scale.figure3_cores)]
        # At smoke scale (tiny instances) saturation is expected; the speed-up
        # at the largest core count must at least not degrade.
        assert all(r["speedup"] > 0.85 for r in largest)

    def test_figure4_distribution_looks_exponential(self, scale, runner):
        result = run_experiment("figure4", scale, runner)
        assert len(result.rows) == len(scale.figure4_cores)
        for row in result.rows:
            assert len(row["cdf_times"]) == row["samples"]
            assert row["fit_scale"] > 0
            assert 0 <= row["ks_distance"] <= 1
            assert 0 <= row["prob_within_reference_time"] <= 1
        # More cores -> higher probability of reaching the target within the
        # reference time (the paper's 50% / 75% / 95% / 100% reading).
        probs = [row["prob_within_reference_time"] for row in result.rows]
        assert probs[-1] >= probs[0]


class TestAblations:
    def test_ablation_rows_structure(self, scale, runner):
        result = run_ablation("err_weight", scale, runner)
        assert result.rows
        labels = {row["variant"] for row in result.rows}
        assert labels == {"err=constant", "err=quadratic"}
        for row in result.rows:
            assert row["solved"] > 0

    def test_unknown_ablation_rejected(self, scale):
        with pytest.raises(ValueError):
            run_ablation("nonexistent", scale)

    def test_registry_driver_for_ablation(self, scale, runner):
        result = run_experiment("ablation-reset", scale, runner)
        labels = {row["variant"] for row in result.rows}
        assert labels == {"generic-reset", "dedicated-reset"}
