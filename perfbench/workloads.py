"""The four workloads and the metrics each one reports.

Every workload reports the same five end-to-end metrics (:data:`END_TO_END`),
each read in the workload's own unit of work:

================  ====================  ====================  ============  ==================
metric            paper-pool            multiwalk             http-hit      http-search
================  ====================  ====================  ============  ==================
p50_ms            walk time             time to solution      request       request, from due
tail_ms           p90 of the same       p90 of the same       p99           p95
throughput_per_s  pool iterations/s     solves/s              requests/s    in limit/busy s
ok_ratio          walks solved, valid   races solved, valid   2xx, valid    in 1000 ms, valid
================  ====================  ====================  ============  ==================

A traced run reports :data:`PER_LAYER` instead.  Layers a workload does not
pass through read 0 and are listed under ``not_on_path`` in the detail
record; a layer metric that cannot be measured from outside is listed under
``unmeasured`` with the reason.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import spans as spanlib
from perfbench.client import Connection, Record, closed_loop, open_loop
from perfbench.common import (
    PERFBENCH_DIR,
    SETUP_REPEATS,
    AnswerError,
    BenchmarkError,
    Outcome,
    derive_seed,
    median,
    percentile,
    tail_ok,
    timed_child,
    valid_answer,
)
from perfbench.server import ServerProcess

WORKLOADS = ("paper-pool", "multiwalk", "http-hit", "http-search")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_ratio": "share",
}

#: Per-layer metrics of a traced run: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "http_async.self_ms.p50": ("ms", "lower"),
    "http_async.self_ms.p99": ("ms", "lower"),
    "http_async.non2xx": ("count", "lower"),
    "api.submit_us.p50": ("us", "lower"),
    "api.source_share.store": ("share", "higher"),
    "api.source_share.construction": ("share", "higher"),
    "api.source_share.search": ("share", "higher"),
    "store.get_us.p50.cache": ("us", "lower"),
    "store.get_us.p50.sqlite": ("us", "lower"),
    "store.cache_hit_ratio": ("share", "higher"),
    "store.insert_ms.p50": ("ms", "lower"),
    "store.inserts": ("count", "higher"),
    "store.duplicates": ("count", "lower"),
    "problems.construct_ms.p50": ("ms", "lower"),
    "problems.construct_calls": ("count", "lower"),
    "scheduler.queue_wait_ms.p50": ("ms", "lower"),
    "scheduler.queue_wait_ms.p95": ("ms", "lower"),
    "scheduler.depth.max": ("count", "lower"),
    "scheduler.coalesced": ("count", "lower"),
    "scheduler.rejected": ("count", "lower"),
    "workers.roundtrip_ms.p50": ("ms", "lower"),
    "workers.overhead_ms.p50": ("ms", "lower"),
    "workers.respawns": ("count", "lower"),
    "workers.requeues": ("count", "lower"),
    "engine.iters_per_s": ("it/s", "higher"),
    "engine.iterations": ("count", "lower"),
    "engine.walk_ms.p50": ("ms", "lower"),
    "models.build_ms.p50": ("ms", "lower"),
    "cwalk.iters_per_s": ("it/s", "higher"),
    "cwalk.iterations": ("count", "lower"),
    "multiwalk.overhead_ms.p50": ("ms", "lower"),
    "multiwalk.useful_ratio": ("share", "higher"),
    "multiwalk.missing_walks": ("count", "lower"),
    "runner.self_ms": ("ms", "lower"),
    "cluster.simulate_ms": ("ms", "lower"),
    "loadgen.lag_ms.p99": ("ms", "lower"),
    "loadgen.conn_wait_share": ("share", "lower"),
    "http.warmup_requests": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    **{f"traced.{name}": (unit, "higher" if name in ("throughput_per_s", "ok_ratio") else "lower")
       for name, unit in END_TO_END.items()},
}

#: Latency limit of ``ok_ratio`` on http-search.
SEARCH_LIMIT_MS = 1000.0


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    #: Small inputs for the benchmark's own tests: same code paths, no
    #: sample-count or steady-state requirements.
    tiny: bool
    workdir: Path


# ------------------------------------------------------------------ reporting
def _report(
    ctx: Context,
    outcome: Outcome,
    e2e: Dict[str, float],
    layers: Dict[str, float],
    on_path: Sequence[str],
) -> Outcome:
    """Fill ``outcome.metrics`` with the e2e metrics, or the per-layer ones
    when traced (layers off this workload's path read 0)."""
    if not ctx.trace:
        outcome.metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
        return outcome
    values = dict(layers)
    values.update({f"traced.{name}": value for name, value in e2e.items()})
    prefixes = tuple(on_path) + ("traced.", "trace.")
    outcome.detail["not_on_path"] = sorted(
        name for name in PER_LAYER if not name.startswith(prefixes)
    )
    outcome.metrics = {
        name: (float(values.get(name, 0.0)), unit) for name, (unit, _) in PER_LAYER.items()
    }
    return outcome


def _check_tail(ctx: Context, outcome: Outcome, count: int, q: int) -> None:
    outcome.detail["samples"] = count
    outcome.detail["tail_percentile"] = q
    if not ctx.tiny and not tail_ok(count, q):
        raise BenchmarkError(f"{count} samples leave fewer than 10 beyond p{q}")


def _setup_probe(ctx: Context, workload: str) -> List[float]:
    repeats = 1 if ctx.tiny else SETUP_REPEATS["probe"]
    return [timed_child([str(PERFBENCH_DIR / "probe.py"), workload]) for _ in range(repeats)]


# ----------------------------------------------------------------- paper-pool
class _PoolFactory:
    """Costas problem factory that keeps every problem it built, so each
    pool walk's final state can be checked after the pool is collected."""

    def __init__(self, order: int) -> None:
        from repro.experiments.base import costas_factory

        self._make = costas_factory(order)
        self.problems: List[Any] = []

    def __call__(self) -> Any:
        problem = self._make()
        self.problems.append(problem)
        return problem


def paper_pool(ctx: Context) -> Outcome:
    """Tables III/IV of the default scale: 150-walk pools at orders 12 and 13,
    then every table cell of both machines, repeated until time is up."""
    from repro.core.engine import AdaptiveSearch
    from repro.costas.array import is_costas
    from repro.experiments.base import costas_params
    from repro.experiments.config import ExperimentScale
    from repro.parallel.cluster import HA8000, JUGENE
    from repro.parallel.runner import ExperimentRunner

    scale = ExperimentScale.default()
    orders = (9, 10) if ctx.tiny else tuple(scale.table4_orders)
    runs = 12 if ctx.tiny else scale.pool_runs
    tables = ((HA8000, scale.table3_cores), (JUGENE, scale.table4_cores))
    outcome = Outcome()
    setup = _setup_probe(ctx, "paper-pool")

    recorder = spanlib.SpanRecorder() if ctx.trace else None
    if recorder is not None:
        recorder.wrap(AdaptiveSearch, "solve", "engine.solve")
        recorder.wrap(_PoolFactory, "__call__", "models.build")
        recorder.wrap(ExperimentRunner, "collect_pool", "runner.collect_pool")
        recorder.wrap(ExperimentRunner, "parallel_time_summary", "cluster.simulate")
        recorder.wrap(ExperimentRunner, "sequential_time_summary", "cluster.simulate")
    runner = ExperimentRunner()
    #: Per pass: walk times (ms), iterations, wall time (s), span bounds.
    passes: List[Tuple[List[float], int, float, Tuple[float, float]]] = []
    invalid = 0
    bad_cells = 0
    start = time.perf_counter()
    try:
        for pass_index in itertools.count():
            t0 = time.perf_counter()
            walk_ms: List[float] = []
            iterations = 0
            for order in orders:
                factory = _PoolFactory(order)
                pool = runner.collect_pool(
                    factory,
                    costas_params(order),
                    runs,
                    seed_root=derive_seed(ctx.seed, pass_index, order),
                    use_cache=False,
                )
                # The first problem only names the pool; one per walk follows.
                for sample, problem in zip(pool.samples, factory.problems[1:]):
                    walk_ms.append(sample.wall_time * 1e3)
                    iterations += sample.iterations
                    if not (sample.solved and is_costas(problem.configuration())):
                        invalid += 1
                for machine, cores in tables:
                    for core_count in cores:
                        if core_count == 1:
                            cell = runner.sequential_time_summary(pool, machine)
                        else:
                            cell = runner.parallel_time_summary(
                                pool, machine, core_count, scale.cell_repetitions,
                                rng=derive_seed(ctx.seed, pass_index, order, core_count),
                            )
                        if not (0.0 <= cell.minimum <= cell.median <= cell.maximum < math.inf):
                            bad_cells += 1
            t1 = time.perf_counter()
            _check_tail(ctx, outcome, len(walk_ms), 90)
            passes.append((walk_ms, iterations, t1 - t0, (t0, t1)))
            # At least two passes; another starts only if half of it fits.
            mean_pass = (t1 - start) / len(passes)
            if t1 - start + mean_pass / 2 >= ctx.seconds and (ctx.tiny or len(passes) >= 2):
                break
    finally:
        if recorder is not None:
            recorder.unwrap_all()

    # Two or three passes give no median worth the name: walk times are
    # pooled over the run, which also halves the luck of the draw in the tail.
    walk_ms = [ms for p in passes for ms in p[0]]
    iterations = sum(p[1] for p in passes)
    outcome.attempted = len(walk_ms)
    outcome.failed = invalid
    outcome.correct = invalid == 0 and bad_cells == 0
    e2e = {
        "setup_s": median(setup),
        "p50_ms": median(walk_ms),
        "tail_ms": percentile(walk_ms, 90),
        "throughput_per_s": iterations / sum(p[2] for p in passes),
        "ok_ratio": (len(walk_ms) - invalid) / len(walk_ms),
    }
    outcome.named = {
        "setup_s": (e2e["setup_s"], "s"),
        "fail_ratio": (invalid / len(walk_ms), "share"),
        "pool_s": (median([p[2] for p in passes]), "s"),
        "pool_iters_per_s": (e2e["throughput_per_s"], "it/s"),
    }
    outcome.detail.update(
        orders=list(orders), runs_per_pool=runs, passes=len(passes), iterations=iterations,
        bad_cells=bad_cells,
    )
    layers: Dict[str, float] = {}
    if recorder is not None:
        spans = recorder.spans
        self_time = spanlib.self_times(spans)
        walk_s = [s[4] - s[3] for s in spanlib.by_name(spans, "engine.solve")]
        per_pass_runner = [
            sum(self_time[s[0]] for s in spanlib.in_window(
                spanlib.by_name(spans, "runner.collect_pool"), *p[3]))
            for p in passes
        ]
        per_pass_cluster = [
            sum(s[4] - s[3] for s in spanlib.in_window(
                spanlib.by_name(spans, "cluster.simulate"), *p[3]))
            for p in passes
        ]
        layers = {
            "engine.iters_per_s": iterations / sum(walk_s),
            # The first pass's pools depend on the seed alone: exact per seed.
            "engine.iterations": passes[0][1],
            "engine.walk_ms.p50": median(walk_s) * 1e3,
            "models.build_ms.p50": median(
                [s[4] - s[3] for s in spanlib.by_name(spans, "models.build")]
            ) * 1e3,
            "runner.self_ms": median(per_pass_runner) * 1e3,
            "cluster.simulate_ms": median(per_pass_cluster) * 1e3,
            "trace.spans": len(spans),
        }
    return _report(ctx, outcome, e2e, layers, ("engine.", "models.", "runner.", "cluster."))


# ------------------------------------------------------------------ multiwalk
def multiwalk(ctx: Context) -> Outcome:
    """Compiled two-process multi-walk races to solution, one seed per solve."""
    from repro.core import _ckernels
    from repro.costas.array import is_costas
    from repro.experiments.base import costas_factory, costas_params
    from repro.parallel.multiwalk import MultiWalkSolver

    if _ckernels.mode() != "c":
        raise AnswerError(
            "compiled kernels unavailable (mode "
            f"{_ckernels.mode()!r}): the compiled engine would silently fall back to NumPy"
        )
    order = 10 if ctx.tiny else 14
    n_workers = 2
    outcome = Outcome()
    setup = _setup_probe(ctx, "multiwalk")

    recorder = spanlib.SpanRecorder() if ctx.trace else None
    if recorder is not None:
        recorder.wrap(MultiWalkSolver, "solve", "multiwalk.solve")
    #: Per race: (start, end, MultiWalkResult).
    results: List[Tuple[float, float, Any]] = []
    invalid = 0
    start = time.perf_counter()
    try:
        for index in itertools.count():
            t0 = time.perf_counter()
            result = MultiWalkSolver(
                costas_factory(order),
                costas_params(order),
                solver="compiled",
                n_workers=n_workers,
                population=1,
                seed_root=derive_seed(ctx.seed, index),
            ).solve(max_time=60.0)
            best = result.best
            if best.extra.get("engine") != "compiled":
                raise AnswerError(
                    f"winner ran engine {best.extra.get('engine')!r}, not the compiled kernel"
                )
            if result.missing_walks or not (best.solved and is_costas(best.configuration)):
                invalid += 1
            results.append((t0, time.perf_counter(), result))
            if time.perf_counter() - start >= ctx.seconds and (
                ctx.tiny or tail_ok(len(results), 90)
            ):
                break
    finally:
        if recorder is not None:
            recorder.unwrap_all()

    outcome.attempted = len(results)
    outcome.failed = invalid
    outcome.correct = invalid == 0
    _check_tail(ctx, outcome, len(results), 90)
    tts = [r.wall_time for *_, r in results]
    e2e = {
        "setup_s": median(setup),
        "p50_ms": median(tts) * 1e3,
        "tail_ms": percentile(tts, 90) * 1e3,
        "throughput_per_s": len(tts) / sum(tts),
        "ok_ratio": (len(results) - invalid) / len(results),
    }
    results = [r for *_, r in results]
    outcome.named = {
        "setup_s": (e2e["setup_s"], "s"),
        "fail_ratio": (invalid / len(results), "share"),
        "tts_p50_s": (e2e["p50_ms"] / 1e3, "s"),
        "tts_p90_s": (e2e["tail_ms"] / 1e3, "s"),
    }
    outcome.detail.update(order=order, solves=len(results), n_workers=n_workers)
    layers: Dict[str, float] = {}
    if recorder is not None:
        # Solve wall time as timed from outside; the layers below report
        # through MultiWalkResult fields only.
        solve_s = [s[4] - s[3] for s in spanlib.by_name(recorder.spans, "multiwalk.solve")]
        walks = [w for r in results for w in r.results]
        total = sum(r.total_iterations for r in results)
        layers = {
            "cwalk.iters_per_s": sum(w.iterations for w in walks) / sum(w.wall_time for w in walks),
            # Winners' iterations are exact per seed (a loser stops whenever
            # the winner's signal reaches it); the first 100 races.
            "cwalk.iterations": sum(r.best.iterations for r in results[:100]),
            "multiwalk.overhead_ms.p50": median(
                [t - r.best.wall_time for t, r in zip(solve_s, results)]
            ) * 1e3,
            "multiwalk.useful_ratio": sum(r.best.iterations * n_workers for r in results) / total,
            "multiwalk.missing_walks": sum(len(r.missing_walks) for r in results),
            "trace.spans": len(recorder.spans),
        }
    return _report(ctx, outcome, e2e, layers, ("cwalk.", "multiwalk."))


# ---------------------------------------------------------------------- HTTP
def _post_json(conn: Connection, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    status, body = conn.request("POST", path, json.dumps(payload).encode())
    if status != 200:
        raise BenchmarkError(f"POST {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


def _set_up_servers(
    ctx: Context, stream: int, warm: Callable[[ServerProcess], None]
) -> Tuple[ServerProcess, List[float]]:
    """Start and warm a fresh server several times, timing each set-up; the
    last server is returned running, the others are stopped."""
    repeats = 1 if ctx.tiny else SETUP_REPEATS["server"]
    times: List[float] = []
    for repeat in range(repeats):
        t0 = time.perf_counter()
        server = ServerProcess(
            ctx.workdir / f"server{repeat}",
            seed_root=derive_seed(ctx.seed, stream, repeat),
            trace=ctx.trace,
        )
        try:
            warm(server)
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - t0)
        if repeat < repeats - 1:
            server.stop()
    return server, times


def _requests_answered(server: ServerProcess) -> int:
    return sum(int(k.get("requests", 0)) for k in server.stats()["kinds"].values())


def _parse(records: Sequence[Record]) -> List[Optional[Dict[str, Any]]]:
    parsed: List[Optional[Dict[str, Any]]] = []
    for record in records:
        try:
            parsed.append(json.loads(record.body) if 200 <= record.status < 300 else None)
        except ValueError:
            parsed.append(None)
    return parsed


def _check_answers(
    parsed: Sequence[Optional[Dict[str, Any]]],
    expected: Sequence[Tuple[str, int]],
) -> List[bool]:
    """Per record: answered, solved and valid for the (kind, order) it asked."""
    verdicts: Dict[Tuple[str, int, str], bool] = {}
    ok: List[bool] = []
    for answer, (kind, order) in zip(parsed, expected):
        if answer is None or not answer.get("solved") or answer.get("kind") != kind:
            ok.append(False)
            continue
        key = (kind, order, json.dumps(answer.get("solution")))
        if key not in verdicts:
            verdicts[key] = answer.get("order") == order and valid_answer(
                kind, order, answer.get("solution")
            )
        ok.append(verdicts[key])
    return ok


def _http_layers(
    records: Sequence[Record],
    parsed: Sequence[Optional[Dict[str, Any]]],
    spans: List[spanlib.Span],
    t0: float,
    t1: float,
) -> Dict[str, float]:
    """Per-layer metrics shared by both HTTP workloads, from the client
    records and the server's spans inside the window ``[t0, t1]``."""
    window = spanlib.in_window(spans, t0, t1)
    submits = {s[5].get("rid"): s for s in spanlib.by_name(window, "api.submit")}
    http_self: List[float] = []
    for record, answer in zip(records, parsed):
        span = submits.get(answer.get("request_id")) if answer else None
        if span is None:
            continue
        submit_s = span[4] - span[3]
        wait_s = max(0.0, span[5].get("done", span[4]) - span[4])
        http_self.append((record.end - record.sent) - submit_s - wait_s)
    sources = [a.get("source") for a in parsed if a is not None]
    gets = spanlib.by_name(window, "store.get")
    hits = [s for s in gets if s[5].get("hit")]
    cache = [s[4] - s[3] for s in hits if s[5].get("cache")]
    sqlite = [s[4] - s[3] for s in hits if not s[5].get("cache")]
    inserts = [s[4] - s[3] for s in spanlib.by_name(window, "store.insert")]
    return {
        "http_async.self_ms.p50": median(http_self) * 1e3,
        "http_async.self_ms.p99": percentile(http_self, 99) * 1e3,
        "http_async.non2xx": sum(1 for r in records if not 200 <= r.status < 300),
        "api.submit_us.p50": median([s[4] - s[3] for s in submits.values()]) * 1e6,
        **{
            f"api.source_share.{tier}": sources.count(tier) / max(1, len(records))
            for tier in ("store", "construction", "search")
        },
        "store.get_us.p50.cache": median(cache) * 1e6,
        "store.get_us.p50.sqlite": median(sqlite) * 1e6,
        "store.cache_hit_ratio": len(cache) / len(hits) if hits else 0.0,
        "store.insert_ms.p50": median(inserts) * 1e3,
        "trace.spans": len(spans),
    }


def _busy_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _stat_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    def delta(section: str, key: str) -> float:
        return float(after[section][key]) - float(before[section][key])

    return {
        "store.inserts": delta("store", "inserts"),
        "store.duplicates": delta("store", "duplicates"),
        "scheduler.coalesced": delta("scheduler", "coalesced"),
        "scheduler.rejected": delta("scheduler", "rejected"),
        "workers.respawns": delta("pool", "workers_respawned"),
        "workers.requeues": delta("pool", "walks_requeued"),
    }


def _hit_keys(tiny: bool) -> List[Tuple[str, int]]:
    """(kind, order) keys with an algebraic construction, so the set-up fill
    never searches; more of them than the store's 256-entry LRU."""
    from repro.costas.constructions import available_constructions

    top = 30 if tiny else 170
    keys = [("costas", n) for n in range(10, 80 if not tiny else 30) if available_constructions(n)]
    keys += [("queens", n) for n in range(10, top)]
    keys += [("all-interval", n) for n in range(10, top)]
    return keys


def http_hit(ctx: Context) -> Outcome:
    """Closed loop, two keep-alive connections, Zipf mix of store hits."""
    import numpy as np

    from repro.service.api import SolverService

    keys = _hit_keys(ctx.tiny)
    rng = np.random.default_rng(derive_seed(ctx.seed, 1))
    # Zipf ranks are dealt round-robin from four size bands, each shuffled
    # by the seed: which keys are hot changes with the seed, but the hot set
    # always mixes small and large answers, so the seed does not decide the
    # bytes per request.
    bands = np.array_split(np.argsort([order for _, order in keys], kind="stable"), 4)
    bands = [rng.permutation(band) for band in bands]
    ranked = np.array(
        [i for group in itertools.zip_longest(*bands) for i in group if i is not None]
    )
    weights = 1.0 / np.arange(1, len(keys) + 1)
    stream = ranked[rng.choice(len(keys), size=400_000, p=weights / weights.sum())]
    key_bodies = [
        json.dumps({"kind": kind, "order": order, "wait": True}).encode() for kind, order in keys
    ]
    bodies = [key_bodies[i] for i in stream]
    steady = 200 if ctx.tiny else SolverService._MAX_RETAINED_REQUESTS
    outcome = Outcome()

    def warm(server: ServerProcess) -> None:
        with Connection(server.port) as conn:
            # Fill: every key answered once by its construction, then stored;
            # the batch route keeps set-up short.
            for chunk in range(0, len(keys), 128):
                part = keys[chunk : chunk + 128]
                reply = _post_json(
                    conn, "/solve-batch", {"items": [{"kind": k, "order": n} for k, n in part]}
                )
                for (kind, order), item in zip(part, reply["results"]):
                    if item.get("status") != "done" or not valid_answer(
                        kind, order, item.get("solution")
                    ):
                        raise AnswerError(f"fill answer for {kind} n={order} is invalid")
            # Warm-up past the retained-request bound, so the timed window
            # sees the server's steady state on every request.
            answered, cursor = len(keys), 0
            while answered <= steady:
                part = stream[cursor : cursor + 128]
                cursor += 128
                _post_json(
                    conn, "/solve-batch",
                    {"items": [{"kind": keys[i][0], "order": keys[i][1]} for i in part]},
                )
                answered += len(part)
        closed_loop(server.port, bodies, duration=0.1 if ctx.tiny else 0.5)

    server, setup = _set_up_servers(ctx, 2, warm)
    try:
        before = server.stats()
        warmup_requests = _requests_answered(server)
        records: List[Record] = []
        t_start = t_end = 0.0
        window_s = 0.0
        while not records or (not ctx.tiny and not tail_ok(len(records), 99)):
            more, t_start_more, t_end = closed_loop(
                server.port, bodies, duration=ctx.seconds, start_index=len(records) + 1
            )
            t_start = t_start or t_start_more
            window_s += t_end - t_start_more
            records += more
        after = server.stats()
    finally:
        spans = server.stop()

    records.sort(key=lambda r: r.sent)
    parsed = _parse(records)
    expected = [keys[stream[r.index % len(stream)]] for r in records]
    ok = _check_answers(parsed, expected)
    outcome.attempted = len(records)
    outcome.failed = ok.count(False)
    outcome.correct = all(
        ok[i] or parsed[i] is None for i in range(len(records))
    )
    _check_tail(ctx, outcome, len(records), 99)
    latency = [(r.end - r.sent) * 1e3 for r in records]
    e2e = {
        "setup_s": median(setup),
        "p50_ms": median(latency),
        "tail_ms": percentile(latency, 99),
        "throughput_per_s": len(records) / window_s,
        "ok_ratio": ok.count(True) / len(records),
    }
    outcome.named = {
        "setup_s": (e2e["setup_s"], "s"),
        "fail_ratio": (outcome.failed / len(records), "share"),
        "hit_p50_ms": (e2e["p50_ms"], "ms"),
        "hit_p99_ms": (e2e["tail_ms"], "ms"),
        "hit_rps": (e2e["throughput_per_s"], "req/s"),
    }
    outcome.detail.update(keys=len(keys), warmup_requests=warmup_requests)
    if warmup_requests <= steady:
        raise BenchmarkError(f"timed window began after only {warmup_requests} requests")
    layers: Dict[str, float] = {}
    if spans is not None:
        layers = _http_layers(records, parsed, spans, t_start, t_end)
        layers.update(_stat_deltas(before, after))
        construct = [s[4] - s[3] for s in spanlib.by_name(spans, "problems.construct")]
        layers["problems.construct_ms.p50"] = median(construct) * 1e3
        layers["problems.construct_calls"] = len(construct)
        layers["http.warmup_requests"] = warmup_requests
        outcome.detail["unmeasured"] = {
            "problems.*": "constructions run during set-up only; reported over the "
            "measured server's whole life, not the timed window",
        }
    return _report(
        ctx, outcome, e2e, layers,
        ("http_async.", "api.", "store.", "problems.", "loadgen.", "http."),
    )


#: http-search mix: (kind, order) whose default-solver searches take ~5-100 ms.
#: Light-tailed classes only: with one worker, queueing amplifies the
#: variance of the search times into the latency tail.
SEARCH_MIX = (
    ("costas", 11),
    ("queens", 96), ("queens", 128),
    ("all-interval", 9),
)
#: Poisson arrival rate (requests/s).  At this rate the server had a request
#: in flight 19-39% of the window and the worker spent 13-28% of it inside
#: walks, depending on the host's speed (``server_busy_share`` and
#: ``walk_busy_share`` of the detail record).  At 40 requests/s (about half busy) queueing amplified
#: the host's own speed swings, and the tail spread twice as much from seed
#: to seed.
SEARCH_RATE = 30.0


def _search_schedule(
    seed: int, seconds: float, rate: float
) -> List[Tuple[float, Tuple[str, int], bytes]]:
    """Poisson arrivals drawn up front; each request's ``max_time`` carries a
    unique micro-jitter so no two requests coalesce into one job."""
    import random

    rng = random.Random(derive_seed(seed, 3))
    events = []
    t = rng.expovariate(rate)
    serial = 0
    while t < seconds:
        serial += 1
        kind, order = SEARCH_MIX[rng.randrange(len(SEARCH_MIX))]
        body = json.dumps(
            {
                "kind": kind,
                "order": order,
                "wait": True,
                "use_store": False,
                "use_constructions": False,
                "max_time": round(30.0 + serial * 1e-6, 6),
            }
        ).encode()
        events.append((t, (kind, order), body))
        t += rng.expovariate(rate)
    return events


def http_search(ctx: Context) -> Outcome:
    """Open loop of fresh searches at a fixed Poisson rate."""
    outcome = Outcome()
    seconds = ctx.seconds

    def warm(server: ServerProcess) -> None:
        with Connection(server.port) as conn:
            for kind, order in SEARCH_MIX:
                answer = _post_json(
                    conn, "/solve",
                    {"kind": kind, "order": order, "wait": True,
                     "use_store": False, "use_constructions": False},
                )
                if not valid_answer(kind, order, answer.get("solution")):
                    raise AnswerError(f"warm-up answer for {kind} n={order} is invalid")

    server, setup = _set_up_servers(ctx, 4, warm)
    try:
        before = server.stats()
        schedule = _search_schedule(ctx.seed, seconds, SEARCH_RATE)
        while not ctx.tiny and not tail_ok(len(schedule), 95):
            seconds *= 1.25
            schedule = _search_schedule(ctx.seed, seconds, SEARCH_RATE)
        records, t_start, t_end = open_loop(
            server.port, [(offset, body) for offset, _, body in schedule]
        )
        after = server.stats()
    finally:
        spans = server.stop()

    records.sort(key=lambda r: r.index)
    parsed = _parse(records)
    expected = [schedule[r.index][1] for r in records]
    ok = _check_answers(parsed, expected)
    latency = [(r.end - r.due) * 1e3 for r in records]
    in_limit = [good and lat <= SEARCH_LIMIT_MS for good, lat in zip(ok, latency)]
    outcome.attempted = len(schedule)
    outcome.failed = ok.count(False) + len(schedule) - len(records)
    outcome.correct = all(ok[i] or parsed[i] is None for i in range(len(records)))
    _check_tail(ctx, outcome, len(records), 95)
    window_s = t_end - t_start
    busy_s = _busy_seconds([(r.sent, r.end) for r in records])
    walk_s = [
        float(a.get("detail", {}).get("wall_time", 0.0)) for a in parsed if a is not None
    ]
    e2e = {
        "setup_s": median(setup),
        "p50_ms": median(latency),
        "tail_ms": percentile(latency, 95),
        # Answers within the limit per second the server had a request in
        # flight: the schedule fixes how many requests come, so only the
        # time the server needs for them is the program's figure.
        "throughput_per_s": in_limit.count(True) / busy_s,
        "ok_ratio": in_limit.count(True) / len(schedule),
    }
    outcome.named = {
        "setup_s": (e2e["setup_s"], "s"),
        "fail_ratio": (outcome.failed / len(schedule), "share"),
        "search_p50_ms": (e2e["p50_ms"], "ms"),
        "search_p95_ms": (e2e["tail_ms"], "ms"),
        "search_ok_ratio": (e2e["ok_ratio"], "share"),
    }
    # How loaded the server was: the share of the window with a request in
    # flight, and the share the worker spent inside walks.
    outcome.detail.update(
        rate_per_s=SEARCH_RATE, limit_ms=SEARCH_LIMIT_MS, window_s=window_s,
        server_busy_share=busy_s / window_s, walk_busy_share=sum(walk_s) / window_s,
    )
    layers: Dict[str, float] = {}
    if spans is not None:
        layers = _http_layers(records, parsed, spans, t_start, t_end)
        layers.update(_stat_deltas(before, after))
        window = spanlib.in_window(spans, t_start, t_end)
        # A job is queued from its first submit until next_job hands it out;
        # walk both in time order, since id() values are reused once a job
        # is gone.
        queued: Dict[Any, float] = {}
        waits: List[float] = []
        events: List[Tuple[float, int]] = []
        for span in sorted(window, key=lambda s: s[4]):
            job = span[5].get("job")
            if span[2] == "scheduler.submit":
                queued.setdefault(job, span[4])
            elif span[2] == "scheduler.next_job" and job in queued:
                since = queued.pop(job)
                waits.append(span[4] - since)
                events += [(since, 1), (span[4], -1)]
        depth = peak = 0
        for _, step in sorted(events):
            depth += step
            peak = max(peak, depth)
        pool = [s for s in spanlib.by_name(window, "workers.submit") if "done" in s[5]]
        roundtrip = [s[5]["done"] - s[3] for s in pool]
        overhead = [s[5]["done"] - s[3] - s[5]["walk_s"] for s in pool if "walk_s" in s[5]]
        iterations = sum(int(a.get("detail", {}).get("iterations", 0)) for a in parsed if a)
        # The worker's busy share: walks plus dispatch, submit to on_done.
        outcome.detail["worker_busy_share"] = sum(roundtrip) / window_s
        layers.update(
            {
                "scheduler.queue_wait_ms.p50": median(waits) * 1e3,
                "scheduler.queue_wait_ms.p95": percentile(waits, 95) * 1e3,
                "scheduler.depth.max": peak,
                "workers.roundtrip_ms.p50": median(roundtrip) * 1e3,
                "workers.overhead_ms.p50": median(overhead) * 1e3,
                "engine.iters_per_s": iterations / sum(walk_s) if sum(walk_s) else 0.0,
                "engine.iterations": iterations,
                "engine.walk_ms.p50": median(walk_s) * 1e3,
                "loadgen.lag_ms.p99": percentile([r.sent - r.due for r in records], 99) * 1e3,
                "loadgen.conn_wait_share": sum(r.waited for r in records) / len(records),
            }
        )
        outcome.detail["unmeasured"] = {
            "models.build_ms.p50": "the problem is built inside the worker process; "
            "tracing there is a change to the program",
        }
    return _report(
        ctx, outcome, e2e, layers,
        ("http_async.", "api.", "store.", "scheduler.", "workers.", "engine.", "loadgen."),
    )


RUNNERS: Dict[str, Callable[[Context], Outcome]] = {
    "paper-pool": paper_pool,
    "multiwalk": multiwalk,
    "http-hit": http_hit,
    "http-search": http_search,
}
