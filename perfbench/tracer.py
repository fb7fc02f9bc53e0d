"""Traced mode: spans around the program's public boundaries.

The wrappers live here, in the benchmark's own files: ``install`` swaps a
public function or method for a timing shim, records one span per call
in memory and leaves the program's code untouched.  Spans are plain
tuples ``(name, request_id, start, end, extra)``; the request id is the
program's own correlation id (``X-Request-ID`` over HTTP), read through
``repro.telemetry.tracing.current_request_id``.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (``self_time``).
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, Optional[str], float, float, object]


class SpanLog:
    """In-memory span store; written out as JSONL when the run ends."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, Optional[str]], int] = {}
        self._lock = threading.Lock()
        self._rid: Callable[[], Optional[str]] = lambda: None

    def use_request_ids(self, rid: Callable[[], Optional[str]]) -> None:
        self._rid = rid

    def add(self, name: str, start: float, end: float,
            extra: object = None) -> None:
        span = (name, self._rid(), start, end, extra)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str) -> None:
        key = (name, self._rid())
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def wrap(self, owner, attr: str, name: str,
             extra: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``extra(args, kwargs, result)`` may attach a small value (a row
        count, a table size) to the span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        clock = time.perf_counter
        add = self.add

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            add(name, t0, t1,
                extra(args, kwargs, out) if extra is not None else None)
            return out

        setattr(owner, attr, classmethod(shim) if is_classmethod else shim)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count the calls of ``owner.attr`` per request id (no timing)."""
        fn = getattr(owner, attr)
        count = self.count

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        setattr(owner, attr, shim)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s[0] == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, rid, t0, t1, extra in self.spans:
                fh.write(json.dumps({"name": name, "request_id": rid,
                                     "start": t0, "end": t1,
                                     "extra": extra}) + "\n")
            for (name, rid), n in sorted(self.counts.items(),
                                         key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"count": name, "request_id": rid,
                                     "n": n}) + "\n")


def read_jsonl(path: str) -> Tuple[List[Span], Dict[Tuple[str, Optional[str]], int]]:
    spans: List[Span] = []
    counts: Dict[Tuple[str, Optional[str]], int] = {}
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if "count" in doc:
                counts[(doc["count"], doc["request_id"])] = doc["n"]
            else:
                spans.append((doc["name"], doc["request_id"], doc["start"],
                              doc["end"], doc["extra"]))
    return spans, counts


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(parent: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (parent[1] - parent[0]) - covered(parent, children)


def by_request(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    out: Dict[Optional[str], List[Span]] = {}
    for s in spans:
        out.setdefault(s[1], []).append(s)
    return out


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0
