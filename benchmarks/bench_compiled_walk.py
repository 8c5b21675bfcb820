"""Regression harness: compiled walk engine vs the NumPy Adaptive Search loop.

Times three rungs of the same ladder on the Costas model:

* ``numpy`` — the Python loop of :class:`repro.core.engine.AdaptiveSearch`
  over the incremental count-table model (per-move kernels may still be
  C-accelerated), reached through ``engine._solve_python`` because
  ``AdaptiveSearch.solve`` itself runs this model's loop in the walk kernel;
* ``compiled`` — :class:`repro.core.cwalk.CompiledAdaptiveSearch`, where the
  whole inner loop (culprit selection, swap scoring, tabu, resets, restarts)
  runs inside one C call per check period;
* ``population`` — one compiled kernel call advancing ``W`` independent walks
  over batched ``(W, …)`` tables in a single process, reported as *aggregate*
  iterations/sec per core for each ``W``.

The two engines draw from different RNG streams, so this is a throughput
comparison (identical per-iteration semantics, not identical trajectories;
trajectory equivalence is pinned by ``tests/test_compiled_walk.py`` against
the line-for-line mirror).  Orders are chosen so runs exhaust the iteration
budget rather than solving early.

Results are merged into ``BENCH_engine.json`` under the ``"compiled_walk"``
key, preserving whatever ``bench_incremental_vs_reference.py`` wrote; CI runs
the ``--smoke`` preset.

Usage::

    PYTHONPATH=src python benchmarks/bench_compiled_walk.py
    PYTHONPATH=src python benchmarks/bench_compiled_walk.py \\
        --order 18 --iterations 40000 --require-speedup 5
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import _ckernels
from repro.core.cwalk import CompiledAdaptiveSearch
from repro.core.engine import _solve_python
from repro.core.params import ASParameters
from repro.models.costas import CostasProblem

DEFAULT_POPULATIONS = (1, 2, 4, 8)


def measure_numpy(order: int, iterations: int, seeds: int) -> dict:
    """Iterations/sec of the NumPy engine on the incremental Costas model."""
    params = ASParameters.for_costas(order, max_iterations=iterations)
    total_iterations = 0
    total_time = 0.0
    solved = 0
    for seed in range(seeds):
        result = _solve_python(CostasProblem(order), seed=seed, params=params)
        total_iterations += result.iterations
        total_time += result.wall_time
        solved += int(result.solved)
    return {
        "iterations_per_second": total_iterations / total_time if total_time else 0.0,
        "total_iterations": total_iterations,
        "total_seconds": total_time,
        "solved_runs": solved,
        "runs": seeds,
    }


def measure_compiled(order: int, iterations: int, seeds: int) -> dict:
    """Iterations/sec of the compiled walk engine, one walk per run."""
    params = ASParameters.for_costas(order, max_iterations=iterations)
    solver = CompiledAdaptiveSearch(params)
    total_iterations = 0
    total_time = 0.0
    solved = 0
    for seed in range(seeds):
        result = solver.solve(CostasProblem(order), seed=seed)
        total_iterations += result.iterations
        total_time += result.wall_time
        solved += int(result.solved)
    return {
        "iterations_per_second": total_iterations / total_time if total_time else 0.0,
        "total_iterations": total_iterations,
        "total_seconds": total_time,
        "solved_runs": solved,
        "runs": seeds,
    }


def measure_population(order: int, iterations: int, seeds: int, width: int) -> dict:
    """Aggregate iterations/sec of ``width`` batched walks in one process."""
    params = ASParameters.for_costas(order, max_iterations=iterations)
    solver = CompiledAdaptiveSearch(params)
    total_iterations = 0
    total_time = 0.0
    solved = 0
    for seed in range(seeds):
        start = time.perf_counter()
        results = solver.solve_population(
            CostasProblem(order), seed=seed, population=width
        )
        total_time += time.perf_counter() - start
        total_iterations += sum(r.iterations for r in results)
        solved += int(any(r.solved for r in results))
    return {
        "population": width,
        "aggregate_iterations_per_second": (
            total_iterations / total_time if total_time else 0.0
        ),
        "total_iterations": total_iterations,
        "total_seconds": total_time,
        "solved_runs": solved,
        "runs": seeds,
    }


def run(order: int, iterations: int, seeds: int, populations) -> dict:
    numpy_path = measure_numpy(order, iterations, seeds)
    compiled_path = measure_compiled(order, iterations, seeds)
    numpy_rate = numpy_path["iterations_per_second"]
    compiled_rate = compiled_path["iterations_per_second"]
    population_rows = {}
    base_rate = None
    for width in populations:
        row = measure_population(order, iterations, seeds, width)
        rate = row["aggregate_iterations_per_second"]
        if base_rate is None:
            base_rate = rate
        row["scaling_vs_population_1"] = rate / base_rate if base_rate else 0.0
        population_rows[str(width)] = row
    return {
        "benchmark": "bench_compiled_walk",
        "problem": "costas (optimised model: quadratic ERR, Chang, dedicated reset)",
        "unit": "engine iterations per second (aggregate over walks for population rows)",
        "order": order,
        "iteration_budget_per_run": iterations,
        "runs_per_path": seeds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "kernel_mode": _ckernels.mode(),
        },
        "results": {
            "numpy_engine": numpy_path,
            "compiled_walk": compiled_path,
            "speedup_vs_numpy_engine": (
                compiled_rate / numpy_rate if numpy_rate else float("inf")
            ),
            "population": population_rows,
        },
    }


def merge_report(out_path: Path, report: dict) -> dict:
    """Fold the report into ``BENCH_engine.json`` without clobbering siblings."""
    merged = {}
    if out_path.exists():
        try:
            merged = json.loads(out_path.read_text())
        except (OSError, ValueError):
            merged = {}
    if not isinstance(merged, dict):
        merged = {}
    merged["compiled_walk"] = report
    out_path.write_text(json.dumps(merged, indent=2) + "\n")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--order",
        type=int,
        default=18,
        help="Costas order to measure (default: %(default)s)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=40_000,
        help="engine iteration budget per walk (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="independent runs (seeds 0..k-1) per path (default: %(default)s)",
    )
    parser.add_argument(
        "--populations",
        default=",".join(str(w) for w in DEFAULT_POPULATIONS),
        help="comma-separated population widths (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="JSON file to merge the report into (default: %(default)s)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke preset: order 12, tiny budgets, populations 1,4",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless compiled single-walk reaches X-fold speedup",
    )
    args = parser.parse_args(argv)

    if _ckernels.load() is None:
        print("SKIP: C kernels unavailable, compiled walk engine cannot run")
        return 0

    if args.smoke:
        order, iterations, seeds, populations = 12, 2_000, 1, (1, 4)
    else:
        order, iterations, seeds = args.order, args.iterations, args.seeds
        try:
            populations = tuple(
                int(tok) for tok in args.populations.split(",") if tok.strip()
            )
        except ValueError:
            parser.error(
                f"--populations must be comma-separated integers, "
                f"got {args.populations!r}"
            )
        if not populations or any(w < 1 for w in populations):
            parser.error(f"--populations needs widths >= 1, got {args.populations!r}")

    report = run(order, iterations, seeds, populations)
    merge_report(Path(args.out), report)

    results = report["results"]
    speedup = results["speedup_vs_numpy_engine"]
    print(f"{'path':>16s} {'it/s':>12s} {'speedup':>9s}")
    print(
        f"{'numpy engine':>16s} "
        f"{results['numpy_engine']['iterations_per_second']:12.0f} {'1.00x':>9s}"
    )
    print(
        f"{'compiled walk':>16s} "
        f"{results['compiled_walk']['iterations_per_second']:12.0f} "
        f"{speedup:8.2f}x"
    )
    print(f"{'W':>4s} {'aggregate it/s':>16s} {'scaling':>9s}")
    for width in populations:
        row = results["population"][str(width)]
        print(
            f"{width:4d} {row['aggregate_iterations_per_second']:16.0f} "
            f"{row['scaling_vs_population_1']:8.2f}x"
        )
    print(f"merged into {args.out} (kernel_mode={report['machine']['kernel_mode']})")
    if args.require_speedup is not None and speedup < args.require_speedup:
        print(
            f"FAIL: compiled walk below the required "
            f"{args.require_speedup:.1f}x speedup over the numpy engine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
