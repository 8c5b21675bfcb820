"""Regression harness: incremental vs full-recompute Costas evaluation.

Runs the Adaptive Search engine on the same instances through both code
paths — :class:`repro.models.costas.CostasProblem` (incremental count tables,
optionally C-accelerated) and :class:`~repro.models.costas.ReferenceCostasProblem`
(the original full-recompute implementation) — and reports iterations/sec per
order.  Both paths produce *bit-identical trajectories* for a given seed
(pinned by ``tests/test_incremental_equivalence.py``), so the ratio is a pure
like-for-like timing of the evaluation subsystem.  Both paths run the
engine's Python loop (``engine._solve_python``): ``AdaptiveSearch.solve``
would hand the incremental model's loop to the C walk kernel, which would
time the loop instead of the evaluation.

Results are written to ``BENCH_engine.json`` (see ``--out``) so perf
regressions show up as a diff; CI runs the ``--quick`` preset as a smoke.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental_vs_reference.py
    PYTHONPATH=src python benchmarks/bench_incremental_vs_reference.py \\
        --orders 18 --iterations 2000 --seeds 2 --require-speedup 10
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
from repro.core.engine import _solve_python
from repro.core.params import ASParameters
from repro.models.costas import CostasProblem, ReferenceCostasProblem

DEFAULT_ORDERS = (10, 14, 18, 22)


def measure_path(
    factory, orders, iterations: int, seeds: int
) -> dict:
    """Iterations/sec of one code path per order (identical seeds across paths)."""
    out = {}
    for n in orders:
        params = ASParameters.for_costas(n, max_iterations=iterations)
        total_iterations = 0
        total_time = 0.0
        solved = 0
        for seed in range(seeds):
            result = _solve_python(factory(n), seed=seed, params=params)
            total_iterations += result.iterations
            total_time += result.wall_time
            solved += int(result.solved)
        out[n] = {
            "iterations_per_second": total_iterations / total_time if total_time else 0.0,
            "total_iterations": total_iterations,
            "total_seconds": total_time,
            "solved_runs": solved,
            "runs": seeds,
        }
    return out


def run(orders, iterations: int, seeds: int) -> dict:
    reference = measure_path(
        lambda n: ReferenceCostasProblem(n), orders, iterations, seeds
    )
    incremental = measure_path(lambda n: CostasProblem(n), orders, iterations, seeds)
    results = {}
    for n in orders:
        ref_rate = reference[n]["iterations_per_second"]
        inc_rate = incremental[n]["iterations_per_second"]
        results[str(n)] = {
            "reference": reference[n],
            "incremental": incremental[n],
            "speedup": inc_rate / ref_rate if ref_rate else float("inf"),
        }
    return {
        "benchmark": "bench_incremental_vs_reference",
        "problem": "costas (optimised model: quadratic ERR, Chang, dedicated reset)",
        "unit": "engine iterations per second",
        "iteration_budget_per_run": iterations,
        "runs_per_order": seeds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "ckernels": _ckernels.available(),
        },
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--orders",
        default=",".join(str(n) for n in DEFAULT_ORDERS),
        help="comma-separated Costas orders to measure (default: %(default)s)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=4000,
        help="engine iteration budget per run (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="independent runs (seeds 0..k-1) per order and path (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke preset: orders 10,14, small budgets, 1 seed",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless every measured order reaches X-fold speedup",
    )
    args = parser.parse_args(argv)

    if args.quick:
        orders = (10, 14)
        iterations = 600
        seeds = 1
    else:
        try:
            orders = tuple(int(tok) for tok in args.orders.split(",") if tok.strip())
        except ValueError:
            parser.error(f"--orders must be comma-separated integers, got {args.orders!r}")
        if not orders or any(n < 3 for n in orders):
            parser.error(f"--orders needs Costas orders >= 3, got {args.orders!r}")
        iterations = args.iterations
        seeds = args.seeds

    report = run(orders, iterations, seeds)
    out_path = Path(args.out)
    if out_path.exists():
        # Preserve sections written by other harnesses (e.g. "compiled_walk"
        # from bench_compiled_walk.py) instead of clobbering the whole file.
        try:
            existing = json.loads(out_path.read_text())
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            for key, value in existing.items():
                if key not in report:
                    report[key] = value
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'n':>4s} {'reference it/s':>16s} {'incremental it/s':>18s} {'speedup':>9s}")
    failed = False
    for n in orders:
        cell = report["results"][str(n)]
        speedup = cell["speedup"]
        print(
            f"{n:4d} {cell['reference']['iterations_per_second']:16.0f} "
            f"{cell['incremental']['iterations_per_second']:18.0f} {speedup:8.2f}x"
        )
        if args.require_speedup is not None and speedup < args.require_speedup:
            failed = True
    print(f"wrote {args.out} (ckernels={report['machine']['ckernels']})")
    if failed:
        print(
            f"FAIL: at least one order below the required "
            f"{args.require_speedup:.1f}x speedup",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
