"""Benchmark regenerating Table IV — simulated JUGENE execution times (512–8,192 cores)."""

from __future__ import annotations

from conftest import run_experiment_once

from repro.experiments.table4 import run_table4


def test_table4_jugene_parallel_times(benchmark, scale, runner):
    result = run_experiment_once(benchmark, run_table4, scale, runner)
    stats = result.metadata["statistics"]
    cores = result.metadata["cores"]
    for order in result.metadata["orders"]:
        avg_times = [stats[order][str(c)]["avg"] for c in cores]
        # At reproduction scale (small instances), the 512-8192 core range is
        # deep in the saturation regime: the expected time
        # is dominated by the distribution's shift, so we only require that
        # adding cores never makes things noticeably worse and that the
        # best-case column stays far below the sequential average.
        assert avg_times[-1] <= avg_times[0] * 1.10
        assert stats[order][str(cores[-1])]["max"] <= stats[order][str(cores[0])]["max"] * 1.25
