#!/usr/bin/env python
"""Compare every solver in the repository on the same CAP instances.

Reproduces, at small scale, the comparisons of Sections III/IV-C and Table II:
Adaptive Search versus Dialectic Search, a plain tabu search, naive
random-restart hill climbing, and the complete CP (backtracking +
forward-checking) solver.  Each stochastic solver runs the same set of seeds.

Run with::

    python examples/solver_comparison.py [max_order] [runs]
"""

from __future__ import annotations

import sys

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.baselines import (
    CPBacktrackingSolver,
    DialecticSearch,
    RandomRestartHillClimbing,
    TabuSearch,
)
from repro.core import ASParameters, AdaptiveSearch
from repro.models import CostasProblem
from repro.parallel.seeds import spawned_seeds


def compare(order: int, runs: int) -> list[list]:
    seeds = spawned_seeds(runs, 2024 + order)
    rows = []

    def record(name: str, times: list[float], iterations: list[int], solved: int) -> None:
        time_summary = summarize(times) if times else None
        rows.append([
            order,
            name,
            f"{solved}/{runs}",
            time_summary.mean if time_summary else None,
            summarize(iterations).mean if iterations else None,
        ])

    solvers = {
        "adaptive-search": lambda seed: AdaptiveSearch().solve(
            CostasProblem(order), seed=seed, params=ASParameters.for_costas(order)
        ),
        "dialectic-search": lambda seed: DialecticSearch().solve(
            CostasProblem(order), seed=seed
        ),
        "tabu-search": lambda seed: TabuSearch().solve(CostasProblem(order), seed=seed),
        "random-restart": lambda seed: RandomRestartHillClimbing().solve(
            CostasProblem(order), seed=seed
        ),
    }
    for name, run in solvers.items():
        times, iterations, solved = [], [], 0
        for seed in seeds:
            result = run(seed)
            if result.solved:
                solved += 1
                times.append(result.wall_time)
                iterations.append(result.iterations)
        record(name, times, iterations, solved)

    # The complete solver is deterministic per value order; run it a few times
    # with randomised value ordering for a fair average.
    cp = CPBacktrackingSolver()
    times, nodes, solved = [], [], 0
    for seed in seeds[: max(3, runs // 2)]:
        result = cp.solve(order, seed=seed)
        if result.solved:
            solved += 1
            times.append(result.wall_time)
            nodes.append(result.extra["nodes"])
    rows.append([
        order,
        "cp-backtracking",
        f"{solved}/{max(3, runs // 2)}",
        summarize(times).mean if times else None,
        summarize(nodes).mean if nodes else None,
    ])
    return rows


def main(max_order: int = 11, runs: int = 5) -> None:
    all_rows = []
    for order in range(9, max_order + 1):
        all_rows.extend(compare(order, runs))
    print(format_table(
        ["Order", "Solver", "Solved", "Avg time (s)", "Avg iterations / nodes"],
        all_rows,
        float_format="{:.3f}",
        title="Solver comparison on the Costas Array Problem",
    ))
    print(
        "\nNote: the complete CP solver remains competitive at these small orders; "
        "the paper's 400x gap appears at order ~19, beyond what a pure-Python "
        "reproduction can time comfortably."
    )


if __name__ == "__main__":
    max_order = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    main(max_order, runs)
