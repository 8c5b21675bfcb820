"""Set-up probe of the in-process workloads: start, load, warm, exit.

``python3 perfbench/probe.py paper-pool`` imports the engine, loads the C
kernels from the warm build cache, builds a Costas problem and runs one
short walk; ``multiwalk`` instead races one compiled two-process multi-walk
on a small order.  The parent times the whole child process, so
``setup_s`` covers interpreter start, imports, kernel load and warm-up.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main(workload: str) -> int:
    from repro.core import _ckernels
    from repro.experiments.base import costas_factory, costas_params

    _ckernels.load()
    if workload == "paper-pool":
        from repro.core.engine import AdaptiveSearch
        from repro.parallel.runner import ExperimentRunner

        ExperimentRunner()
        result = AdaptiveSearch().solve(costas_factory(9)(), seed=1, params=costas_params(9))
    elif workload == "multiwalk":
        from repro.parallel.multiwalk import MultiWalkSolver

        result = MultiWalkSolver(
            costas_factory(9), costas_params(9), solver="compiled", n_workers=2, seed_root=1
        ).solve(max_time=30.0).best
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    if not result.solved:
        raise SystemExit("warm-up walk did not solve")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
