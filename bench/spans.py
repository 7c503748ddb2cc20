"""Span tracer for the benchmark.

A Tracer replaces package functions by timing wrappers in the namespace that
calls them (for example `dendrosim.solver.gradient_arrays`, the name `step`
looks up) and puts the originals back on exit.  Each call becomes one Span
that knows its parent, so self time is the span's duration minus the part
its child spans cover.  Spans stay in memory; the benchmark reduces them to
metrics when it ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a span with no traced caller on its thread
    name: str
    seconds: float
    self_seconds: float
    extra: object = None


def resolve(path: str):
    """The object at a dotted path such as 'dendrosim.physics.RngStream', or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Context manager that records a Span for every call of the given points.

    A point is (owner path, attribute, span name, extra), where extra is None
    or a function of the call's arguments whose result is stored on the span.
    A point whose owner or attribute no longer exists is skipped, so a
    function the package stopped calling reads as zero calls.
    """

    def __init__(self, points):
        self.points = points
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        for owner_path, attr, name, extra in self.points:
            owner = resolve(owner_path)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extra))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]  # span id, seconds covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                info = None
                if extra is not None:
                    try:
                        info = extra(*args, **kwargs)
                    except (TypeError, AttributeError):
                        info = None  # the traced signature changed; drop the extra
                self.spans.append(Span(frame[0], parent, name, seconds, seconds - frame[1], info))

        return wrapper

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def within(spans, ancestor: str):
    """The spans that ran inside a span named `ancestor`."""
    links = {s.id: (s.parent, s.name) for s in spans}
    inside = []
    for s in spans:
        parent = s.parent
        while parent in links:
            parent, name = links[parent]
            if name == ancestor:
                inside.append(s)
                break
    return inside
