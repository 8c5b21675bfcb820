"""Benchmark regenerating the Section IV-C comparison against a CP solver.

Honesty note: the paper measures this comparison at CAP 19, where a complete
CP solver needs hours while Adaptive Search needs seconds.  At the orders a
pure-Python reproduction can afford (n <= 13-14), a forward-checking solver
still finds *one* Costas array quickly — Costas arrays are plentiful below
order ~16 — so the 400x gap is **not** visible at this scale.  What the
benchmark checks instead is the structural driver of the paper's observation:
the CP search effort (node count) blows up much faster with the order than the
local-search effort does, which is what eventually produces the gap at the
paper's instance sizes.
"""

from __future__ import annotations

from conftest import run_experiment_once

from repro.experiments.cp_comparison import run_cp_comparison


def test_cp_comparison_reports_and_nodes_blow_up(benchmark, scale, runner):
    result = run_experiment_once(benchmark, run_cp_comparison, scale, runner)
    assert result.rows
    rows = sorted(
        (r for r in result.rows if r["cp_avg_nodes"] is not None),
        key=lambda r: r["order"],
    )
    assert rows, "expected at least one CP measurement"
    # CP node counts must grow steeply with the order (super-linear growth).
    if len(rows) >= 2:
        first, last = rows[0], rows[-1]
        order_growth = last["order"] / first["order"]
        node_growth = last["cp_avg_nodes"] / max(first["cp_avg_nodes"], 1.0)
        assert node_growth > order_growth
