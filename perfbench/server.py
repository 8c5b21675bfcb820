"""Benchmark-owned launcher of the default asyncio server, and its handle.

Run as a script, this module builds the server the way ``repro serve`` does
by default (asyncio front-end, file-backed SQLite store, QoS lanes, quotas
and faults off), but with one worker process and a seed root from the
workload seed.  Given ``--spans-out`` it first wraps the public methods of
the service layers (see :func:`install_service_spans`), so every span is
recorded from the benchmark's own code; the spans are written to that file
when the server stops on SIGTERM.

:class:`ServerProcess` starts the launcher as a child process in its own
session and stops it (and every process it started) again.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans as spanlib  # noqa: E402
from perfbench.common import ROOT, BenchmarkError  # noqa: E402


def install_service_spans(recorder: spanlib.SpanRecorder) -> None:
    """Wrap the public entry points of api, store, problems, scheduler and
    workers.  Must run before the server (and its service) is built."""
    from repro.problems import ProblemFamily
    from repro.service.api import SolverService
    from repro.service.scheduler import RequestScheduler
    from repro.service.store import SolutionStore
    from repro.service.workers import WorkerPool

    def submit_after(info, args, kwargs, request):
        info["rid"] = request.request_id
        request.future.add_done_callback(
            lambda _f, info=info: info.__setitem__("done", time.perf_counter())
        )

    def get_before(info, args, kwargs):
        info["cache"] = args[0].stats.cache_hits

    def get_after(info, args, kwargs, result):
        info["cache"] = args[0].stats.cache_hits > info["cache"]
        info["hit"] = result is not None

    def pool_before(info, args, kwargs):
        on_done = kwargs["on_done"]

        def done(handle, on_done=on_done):
            info["done"] = time.perf_counter()
            best = handle.best
            if best is not None:
                info["walk_s"] = float(best.wall_time)
            on_done(handle)

        kwargs["on_done"] = done

    recorder.wrap(SolverService, "submit", "api.submit", after=submit_after)
    recorder.wrap(SolutionStore, "get", "store.get", before=get_before, after=get_after)
    recorder.wrap(
        SolutionStore, "insert", "store.insert",
        after=lambda info, a, k, r: info.__setitem__("new", bool(r)),
    )
    recorder.wrap(
        ProblemFamily, "try_construct", "problems.construct",
        after=lambda info, a, k, r: info.__setitem__("ok", r is not None),
    )
    recorder.wrap(
        RequestScheduler, "submit", "scheduler.submit",
        after=lambda info, a, k, ticket: info.__setitem__("job", id(ticket.job)),
    )
    recorder.wrap(
        RequestScheduler, "next_job", "scheduler.next_job",
        after=lambda info, a, k, job: info.__setitem__(
            "job", id(job) if job is not None else None
        ),
    )
    recorder.wrap(WorkerPool, "submit", "workers.submit", before=pool_before)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True, help="SQLite store path")
    parser.add_argument("--seed-root", type=int, required=True)
    parser.add_argument("--spans-out", default=None, help="trace, and write the spans here")
    args = parser.parse_args(argv)

    recorder = spanlib.SpanRecorder() if args.spans_out else None
    if recorder is not None:
        install_service_spans(recorder)

    from repro.service.api import ServiceConfig
    from repro.service.http_async import AsyncServiceHTTPServer

    config = ServiceConfig(store_path=args.db, n_workers=1, seed_root=args.seed_root)
    server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config, verbose=False)
    print(json.dumps({"port": server.port}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.stop(drain=True)
        if recorder is not None:
            recorder.dump(Path(args.spans_out))
    return 0


class ServerProcess:
    """A launcher child process serving on an ephemeral port."""

    def __init__(self, workdir: Path, *, seed_root: int, trace: bool, timeout: float = 60.0):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.spans_path = workdir / "spans.json" if trace else None
        self._stderr = open(workdir / "server.log", "wb")
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--db", str(workdir / "store.db"),
            "--seed-root", str(seed_root),
        ]
        if self.spans_path is not None:
            cmd += ["--spans-out", str(self.spans_path)]
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            self.port = self._read_port(timeout)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise BenchmarkError(
                f"server did not start: {(self.workdir / 'server.log').read_text()[-600:]}"
            )
        return int(json.loads(line)["port"])

    def stop(self, timeout: float = 30.0) -> Optional[List[spanlib.Span]]:
        """SIGTERM, bounded drain, then SIGKILL the whole session; returns the
        spans when traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stragglers of the session
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        if self.spans_path is not None and self.spans_path.is_file():
            return spanlib.load(self.spans_path)
        return None

    def stats(self) -> Dict[str, Any]:
        from perfbench.client import Connection

        with Connection(self.port) as conn:
            status, body = conn.request("GET", "/stats")
        if status != 200:
            raise BenchmarkError(f"GET /stats answered {status}")
        return json.loads(body)


if __name__ == "__main__":
    sys.exit(main())
