"""Run one workload of the benchmark, or all four.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload http-hit --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One workload prints its metrics by name and unit, the environment
fingerprint and, as its last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.  ``all`` runs each
workload untraced and traced in child processes and adds the tracing
overhead of every end-to-end metric.  The exit code is non-zero on any
invalid answer, on a silent engine fallback, and when the program's sources
are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    RESULTS,
    ROOT,
    TMP,
    AnswerError,
    BenchmarkError,
    cpu_ticks,
    fingerprint,
    prepare_environment,
)

WORKLOAD_NAMES = ("paper-pool", "multiwalk", "http-hit", "http-search")


def run_one(args: argparse.Namespace) -> int:
    from repro.core import _ckernels

    from perfbench.workloads import RUNNERS, Context

    # Compile (or find) the content-addressed kernel build before any timed
    # set-up, so setup_s never includes a one-off compile.
    _ckernels.load()
    env = fingerprint(args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = TMP / tag
    shutil.rmtree(workdir, ignore_errors=True)  # every run starts from empty stores
    ctx = Context(
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        tiny=args.size == "tiny",
        workdir=workdir,
    )
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("# env " + json.dumps(env))
    failure: Optional[str] = None
    steal0, total0 = cpu_ticks()
    try:
        outcome = RUNNERS[args.workload](ctx)
    except AnswerError as exc:
        print(f"perfbench: invalid answer: {exc}", file=sys.stderr)
        return 1
    steal1, total1 = cpu_ticks()
    # Share of CPU time the host gave to other guests during the run.
    env["cpu_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    print(f"# host cpu_steal_share {env['cpu_steal_share']:.4f}")
    for name, (value, unit) in outcome.named.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    detail_path = RESULTS / f"{tag}.json"
    detail_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "size": args.size,
                "env": env,
                "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
                "detail": outcome.detail,
                "result": json.loads(outcome.result_line()),
            },
            indent=1,
        )
    )
    print(f"# detail {detail_path.relative_to(ROOT)}")
    if not outcome.correct:
        failure = "invalid answers: see the detail record"
        print(f"perfbench: {failure}", file=sys.stderr)
    print(outcome.result_line(), flush=True)
    return 1 if failure else 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced; prints every metric and the
    tracing overhead of each end-to-end metric."""
    code = 0
    summary: Dict[str, Any] = {}
    for workload in WORKLOAD_NAMES:
        runs: List[Dict[str, Any]] = []
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                code = 1
                break
            runs.append(json.loads(lines[-1]))
        if len(runs) == 2:
            untraced, traced = runs[0]["metrics"], runs[1]["metrics"]
            overhead = {
                name: traced[f"traced.{name}"]["value"] - metric["value"]
                for name, metric in untraced.items()
            }
            for name, diff in overhead.items():
                base = untraced[name]["value"]
                share = diff / base if base else 0.0
                print(f"# tracing overhead {workload} {name}: {diff:+.6g} "
                      f"{untraced[name]['unit']} ({share:+.1%})")
            summary[workload] = {"untraced": untraced, "tracing_overhead": overhead}
    print(json.dumps(summary))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    # A terminated run unwinds like an exception, so its servers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        prepare_environment()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
