"""In-memory spans around the benchmark's own calls into the library.

A span records its name, parent span, the op it belongs to, start and end,
how much work the call did (entries, lane-steps, grid points) and the
exception type if the call raised.  With tracing off, `call` is a plain call.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional


class Mismatch(Exception):
    """An op's output disagreed with its oracle; blamed on one span name."""

    def __init__(self, layer: str, detail: str):
        super().__init__(f"{layer}: {detail}")
        self.layer = layer


def _blame(e: Exception, name: str) -> bool:
    # the innermost span an exception leaves is the layer that failed
    if getattr(e, "layer", None) is None:
        e.layer = name
        return True
    return False


def check(ok: bool, layer: str, detail: str) -> None:
    if not ok:
        raise Mismatch(layer, detail)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0
    work: float = 1.0
    calls: int = 1
    error: Optional[str] = None


@dataclass
class Tracer:
    enabled: bool = False
    spans: list = field(default_factory=list)
    wrong: dict = field(default_factory=lambda: defaultdict(int))
    peaks: dict = field(default_factory=dict)
    op: int = 0
    _stack: list = field(default_factory=list)
    _deferred: list = field(default_factory=list)

    def call(self, name: str, fn, *args, work: float = 1.0, calls: int = 1, **kw):
        if not self.enabled:
            try:
                return fn(*args, **kw)
            except Exception as e:
                _blame(e, name)
                raise
        span = Span(name, self._stack[-1] if self._stack else None, self.op,
                    time.perf_counter(), work=work, calls=calls)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kw)
        except Exception as e:
            if _blame(e, name):
                span.error = type(e).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def defer(self, fn) -> None:
        """Run fn after the current op's clock stops; only when tracing."""
        if self.enabled:
            self._deferred.append(fn)

    def run_deferred(self) -> None:
        while self._deferred:
            self._deferred.pop(0)()

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def blame(self, layer: str) -> None:
        if self.enabled:
            self.wrong[layer] += 1

    def summary(self) -> dict:
        """Per span name: self time, calls, work, failures."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0.0, "failures": 0})
        for i, s in enumerate(self.spans):
            row = out[s.name]
            row["self_s"] += (s.end - s.start) - child[i]
            row["calls"] += s.calls
            row["work"] += s.work
            row["failures"] += s.error is not None
        for name, n in self.wrong.items():
            out[name]["failures"] += n
        return dict(out)
