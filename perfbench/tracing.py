"""Spans around calls into pairlink, recorded from the benchmark's own code.

A traced run swaps selected functions at their module attributes for timing
wrappers (see :func:`instrument`), so calls the library makes internally
(``train()`` calling ``gradient``, ``infer`` calling ``decode``) are seen
too.  Nothing under ``src/`` is edited; the originals are restored on exit.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans (id, name, start, end, parent id) plus integer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        """``fn`` inside a span; ``hook(tracer, args, kwargs, result)`` runs after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def times_ms(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive ms and self ms.

        Self time is a span's duration minus the durations of its direct
        children, so nested library calls are not counted twice.
        """
        child_s: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_ms": 0.0, "self_ms": 0.0}
        )
        for span_id, name, start, end, _ in self.spans:
            row = out[name]
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[span_id]) * 1e3
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


@contextmanager
def instrument(tracer: Tracer, targets):
    """Replace ``owner.attr`` by a traced wrapper for each ``(owner, attr, name, hook)``."""
    saved = []
    try:
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
