"""In-memory spans around the public entry points of each layer.

The benchmark records spans from its own files only: :meth:`SpanRecorder.wrap`
replaces a public method on its class with a wrapper that notes the call's
name, start, end and parent span (the innermost span open on the same
thread).  Spans stay in memory and are written out once, when the run ends.
Nothing inside the program is changed or consulted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: ``(span_id, parent_id, name, start, end, info)``; parent 0 is the root.
Span = List[Any]

Hook = Callable[..., None]


class SpanRecorder:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Trace every call of ``owner.attr`` as span *name*.

        ``before(info, args, kwargs)`` runs before the call and may rewrite
        ``kwargs`` (to wrap a callback); ``after(info, args, kwargs, result)``
        annotates the span with what the call returned.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            info: Dict[str, Any] = {}
            if before is not None:
                before(info, args, kwargs)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append([span_id, parent, name, start, end, info])
            if after is not None:
                after(info, args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped method (latest first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load(path: Path) -> List[Span]:
    return json.loads(Path(path).read_text())


def by_name(spans: Iterable[Span], name: str) -> List[Span]:
    return [s for s in spans if s[2] == name]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        span_id, _, _, start, end, _ = span
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def in_window(spans: Iterable[Span], t0: float, t1: float) -> List[Span]:
    """Spans that started inside ``[t0, t1]``."""
    return [s for s in spans if t0 <= s[3] <= t1]
