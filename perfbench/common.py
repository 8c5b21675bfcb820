"""Shared plumbing: paths, environment, statistics, answer checks, results.

Everything the benchmark writes goes under ``.bench_build/`` at the root of
the checkout: the content-addressed C kernel cache, the stores of the
server runs, span files and the detailed result records.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

PERFBENCH_DIR = Path(__file__).resolve().parent
ROOT = PERFBENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
TMP = BUILD / "tmp"
RESULTS = BUILD / "results"

#: How many times each workload's set-up is repeated; ``setup_s`` is the
#: median.  A server set-up (start, fill, warm-up) costs seconds, a probe
#: process a fraction of one.
SETUP_REPEATS = {"probe": 7, "server": 3}

#: Minimum sample count for a tail percentile to have >= 10 samples beyond it.
TAIL_MIN_SAMPLES = {90: 100, 95: 200, 99: 1000}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, wrong engine, ...)."""


class AnswerError(BenchmarkError):
    """The program under test returned an invalid answer."""


def prepare_environment() -> None:
    """Point caches, temp files and imports at the checkout; refuse to run
    without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program sources at {SRC / 'repro'}; run from a full checkout"
        )
    for directory in (BUILD, TMP, RESULTS):
        directory.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = str(TMP)
    # Faults stay off, as in a plain ``repro serve``: an inherited plan would
    # measure the chaos harness instead of the program.
    os.environ.pop("REPRO_FAULTS", None)
    paths = [str(SRC), str(ROOT)]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([inherited] if inherited else []))
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_ok(count: int, q: int) -> bool:
    """Whether *count* samples leave at least ten beyond the q-th percentile."""
    return count >= TAIL_MIN_SAMPLES[q]


def derive_seed(*parts: int) -> int:
    """A 31-bit seed derived from the workload seed and a position."""
    import numpy as np

    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] >> 1)


# --------------------------------------------------------------- answer checks
def valid_answer(kind: str, order: int, solution: Optional[Iterable[int]]) -> bool:
    """Whether *solution* is a genuine answer of family *kind* at *order*."""
    import numpy as np

    from repro.problems import get_family

    if solution is None:
        return False
    family = get_family(kind)
    arr = np.asarray(list(solution), dtype=np.int64)
    if arr.ndim != 1 or arr.size != family.instance_size(order):
        return False
    try:
        return bool(family.validator(arr))
    except (ValueError, TypeError):  # malformed: not even a permutation
        return False


# ------------------------------------------------------------------ set-up time
def timed_child(args: List[str], ready: str = "ready", timeout: float = 60.0) -> float:
    """Seconds from spawning ``python3 <args>`` to its exit after printing *ready*."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or ready not in proc.stdout:
        raise BenchmarkError(
            f"set-up probe {args} failed ({proc.returncode}): {proc.stderr.strip()[-400:]}"
        )
    return elapsed


# ---------------------------------------------------------------------- results
@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: Every answer valid, the right engine ran, enough samples were taken.
    correct: bool = True
    #: Metric name -> (value, unit): end-to-end metrics, or per-layer ones
    #: when traced.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: The workload's metrics under the names of its own domain
    #: (``hit_p50_ms``, ``tts_p90_s``, ...), printed above the result line.
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Sample counts, percentiles used, reasons for unmeasured layers, ...
    detail: Dict[str, Any] = field(default_factory=dict)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": bool(self.correct),
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks since boot, from ``/proc/stat``; (0, 0)
    where that is not available.  Steal is time the host ran other guests
    while this machine's CPUs wanted to run: a run with a high steal share
    is not comparable to a quiet one."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(seed: int) -> Dict[str, Any]:
    """The environment every number was measured in."""
    import numpy as np

    from repro.core import _ckernels

    sha = _git_sha()
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_mode": _ckernels.mode(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "os_kernel": platform.release(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }
