"""The benchmark's own tests.

A tiny-size run of every workload, untraced and traced, must emit every
metric of ``BENCHMARK.json`` with its unit and check its answers; an answer
with two entries swapped must fail validation; the multi-walk must refuse
to measure the NumPy fallback; and without the program's sources next to it
the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT, valid_answer
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, _busy_seconds

NAMED = {
    "paper-pool": ("pool_s", "pool_iters_per_s"),
    "multiwalk": ("tts_p50_s", "tts_p90_s"),
    "http-hit": ("hit_p50_ms", "hit_p99_ms", "hit_rps"),
    "http-search": ("search_p50_ms", "search_p95_ms", "search_ok_ratio"),
}


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_names_the_metrics_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, stdout = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in NAMED[workload] + ("setup_s", "fail_ratio"):
        assert any(line.split()[:1] == [name] for line in stdout.splitlines()), name
    assert '"kernel_mode"' in stdout and '"loadavg"' in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, _ = _run(workload, 1)
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    if workload == "http-hit":
        assert metrics["api.source_share.store"]["value"] == 1.0
        assert metrics["http.warmup_requests"]["value"] > 0
    if workload == "http-search":
        assert metrics["api.source_share.search"]["value"] == 1.0
        assert metrics["scheduler.coalesced"]["value"] == 0
        assert metrics["workers.roundtrip_ms.p50"]["value"] > 0
    if workload == "paper-pool":
        assert metrics["engine.iterations"]["value"] > 0
        assert metrics["runner.self_ms"]["value"] > 0
    if workload == "multiwalk":
        assert metrics["cwalk.iters_per_s"]["value"] > 0


@pytest.mark.parametrize("kind,order", [("costas", 12), ("queens", 20), ("all-interval", 12)])
def test_answer_with_two_entries_swapped_fails_validation(kind, order):
    from repro.problems import get_family

    solution = [int(v) for v in get_family(kind).try_construct(order)]
    assert valid_answer(kind, order, solution)
    swapped = list(solution)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not valid_answer(kind, order, swapped)
    assert not valid_answer(kind, order, solution[:-1])
    assert not valid_answer(kind, order, [solution[0]] * len(solution))
    assert not valid_answer(kind, order, None)


def test_busy_seconds_counts_overlapping_requests_once():
    assert _busy_seconds([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0), (5.5, 5.75)]) == 4.0
    assert _busy_seconds([]) == 0.0


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http-hit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_multiwalk_refuses_the_numpy_fallback():
    env = dict(os.environ, REPRO_NO_CKERNELS="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multiwalk", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert "compiled" in proc.stderr
    assert '"metrics"' not in proc.stdout
