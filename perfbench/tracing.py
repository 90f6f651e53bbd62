"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent). Spans are kept in a list and
written out once, when the run ends. Self time is a span's duration
minus the time its direct children cover. With ``on=False`` every
method is a no-op, so untimed and timed code can share one call site.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def seconds_under(self, root: Span, name: str) -> float:
        """Total duration of the spans called ``name`` below ``root``."""
        return sum(s.seconds for s in self.spans if s.name == name and self._below(s, root))

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(s.seconds for s in self.spans if s.parent == span.id)

    def last(self, name: str) -> Span:
        return next(s for s in reversed(self.spans) if s.name == name)

    def _below(self, s: Span, root: Span) -> bool:
        while s.parent is not None:
            s = self.spans[s.parent]
            if s.id == root.id:
                return True
        return False

    def dump(self, path) -> None:
        """Write every span, with its self time, as one JSON document."""
        rows = [
            dict(
                id=s.id,
                name=s.name,
                start=s.start,
                end=s.end,
                parent=s.parent,
                self_s=self.self_seconds(s),
            )
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


@contextlib.contextmanager
def patched(module, attr: str, replacement):
    """Temporarily rebind ``module.attr`` (how its callers look it up)."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)
