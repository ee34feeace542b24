"""Spans around calls into the mnmt modules, recorded from outside the program.

A `Tracer` replaces module attributes (the names callers look up at call
time, such as ``mnmt.model.encode_batch``) with wrappers that open a span on
entry and close it on exit.  Spans are kept in memory; `write` dumps them as
JSON lines when the run ends, and `layer_report` turns them into per-layer
self times.  Nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# Spans whose layer is one of these are harness bookkeeping, not program work.
HARNESS_LAYERS = ("phase", "trace")


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "info")

    def __init__(self, span_id: int, name: str, layer: str, start: float, parent: int | None):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        out = {"id": self.id, "name": self.name, "layer": self.layer,
               "start": self.start, "end": self.end, "parent": self.parent}
        if self.info:
            out["info"] = self.info
        return out


class Tracer:
    """Collects nested spans; every patch it makes is undone by `restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list = []

    # --- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), parent)
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s
        finally:
            self.close(s)

    # --- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, after=None, around=None) -> None:
        """Trace calls to ``owner.attr``.

        ``after(span, args, kwargs, result)`` runs once the span is closed.
        ``around(span, call, args, kwargs)`` replaces the plain ``call()``
        inside the span, for wrappers that sample something while it runs.
        """
        spans, open_, now = self.spans, self._open, time.perf_counter

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                # inlined open/close: keeps the wrapper's own cost inside the
                # span, so it is not billed to the harness in the coverage figure
                s = Span(len(spans), name, layer, now(), open_[-1] if open_ else None)
                spans.append(s)
                open_.append(s.id)
                try:
                    if around is None:
                        result = original(*args, **kwargs)
                    else:
                        result = around(s, lambda: original(*args, **kwargs), args, kwargs)
                finally:
                    s.end = now()
                    open_.pop()
                if after is not None:
                    after(s, args, kwargs, result)
                return result

            return traced

        self._undo.append(patch(owner, attr, make))

    def restore(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # --- queries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span, its duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def phase_of(self) -> list[str | None]:
        """The enclosing phase name of every span (None outside phases)."""
        out: list[str | None] = [None] * len(self.spans)
        for s in self.spans:
            if s.layer == "phase":
                out[s.id] = s.name
            elif s.parent is not None:
                out[s.id] = out[s.parent]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_dict()) + "\n")


def patch(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)``; returns the undo function.

    A classmethod stays a classmethod.  This is the one place the harness
    replaces a program attribute.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    replacement = make(raw.__func__ if is_classmethod else raw)
    setattr(owner, attr, classmethod(replacement) if is_classmethod else replacement)
    return lambda: setattr(owner, attr, raw)


@contextmanager
def after_calls(owner, attr: str, after):
    """Untraced: ``after(args, kwargs, result)`` follows every call to ``owner.attr``."""

    def make(original):
        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return hooked

    undo = patch(owner, attr, make)
    try:
        yield
    finally:
        undo()


def layer_report(tracer: Tracer) -> dict:
    """Per phase name: wall time, self time per layer, and the share layers cover.

    A layer's self time is its spans' durations minus the parts their child
    spans cover.  Harness spans (phases and tracing bookkeeping) are not
    layers, so coverage below 1 is time spent in the harness itself.
    """
    selfs = tracer.self_times()
    phases = tracer.phase_of()
    report: dict = {}
    for s in tracer.spans:
        if s.layer == "phase":
            entry = report.setdefault(s.name, {"wall_s": 0.0, "layers": {}, "counts": {}})
            entry["wall_s"] += s.duration
    for s, own, phase in zip(tracer.spans, selfs, phases):
        if phase is None or s.layer in HARNESS_LAYERS:
            continue
        entry = report[phase]
        entry["layers"][s.layer] = entry["layers"].get(s.layer, 0.0) + own
        entry["counts"][s.name] = entry["counts"].get(s.name, 0) + 1
    for entry in report.values():
        covered = sum(entry["layers"].values())
        entry["coverage"] = covered / entry["wall_s"] if entry["wall_s"] > 0 else 1.0
    return report
