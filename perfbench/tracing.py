"""In-memory spans around the calls into each layer of entangle_lab.

The tracer patches module attributes that the package (and this benchmark)
call through, such as ``entangle_lab.rng.stream_key`` or
``entangle_lab.cli.estimate_table``, with wrappers that record a span per
call: name, start, end, parent span, op number and a work count.  Nothing
inside the package changes; :meth:`Tracer.uninstall` restores every
original.  Spans stay in memory until the run ends.  Single-threaded only:
the traced ops run with ``workers=1``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name, work count from (args, kwargs, result)).
# A layer reached through several module namespaces is patched in each.
_PATCHES = [
    ("rng", "stream_key", "rng.stream_key", None),
    ("strings", "block_uniforms", "rng.block_uniforms", lambda a, k, r: int(r.size)),
    ("strings", "estimate_table", "strings.estimate_table", lambda a, k, r: 4 * a[1]),
    ("cli", "estimate_table", "strings.estimate_table", lambda a, k, r: 4 * a[1]),
    ("strings", "analytic_table", "strings.analytic_table", None),
    ("cli", "analytic_table", "strings.analytic_table", None),
    ("probability", "chsh", "probability.chsh", None),
    ("cli", "chsh", "probability.chsh", None),
    ("probability", "marginals", "probability.marginals", None),
    ("cli", "marginals", "probability.marginals", None),
    ("probability", "check_bell_bounds", "probability.check_bell_bounds", None),
    ("cli", "check_bell_bounds", "probability.check_bell_bounds", None),
    ("quantum", "scan_tsirelson", "quantum.scan_tsirelson", lambda a, k, r: len(r)),
    ("quantum", "table_for_axes", "quantum.table_for_axes", None),
    ("cli", "table_for_axes", "quantum.table_for_axes", None),
    ("cli", "collapse_counts", "bloch.collapse_counts", lambda a, k, r: a[3]),
    ("cli", "universal_average", "bloch.universal_average", lambda a, k, r: a[2] * a[3]),
    ("cli", "decompose", "bloch.decompose", None),
    ("cli", "report_to_json", "report.report_to_json", lambda a, k, r: len(r.encode())),
    ("cli", "emit_csv", "report.emit_csv", lambda a, k, r: len(a[1])),
]

_GENERATOR_PATCHES = [("cli", "iter_trials", "strings.iter_trials")]


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "op", "work", "child_time")

    def __init__(self, name, label, start, parent, op):
        self.name = name
        self.label = label
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.work = 0
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, label: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, label, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextmanager
    def span(self, name: str, label: str | None = None):
        span = self._open(name, label)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.work = 1 if work is None else work(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        """Time only the generator's own steps, not the consumer between them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span.work = 1
                yield item

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, work in _PATCHES:
            module = importlib.import_module(f"entangle_lab.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))
        for module_name, attr, name in _GENERATOR_PATCHES:
            module = importlib.import_module(f"entangle_lab.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_generator(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced ops."""

    @contextmanager
    def span(self, name: str, label: str | None = None):
        yield None


def totals(spans, name: str) -> tuple[int, float, float, int]:
    """(calls, total duration s, total self time s, total work) of one span name."""
    calls, duration, self_time, work = 0, 0.0, 0.0, 0
    for span in spans:
        if span.name == name:
            calls += 1
            duration += span.duration
            self_time += span.self_time
            work += span.work
    return calls, duration, self_time, work
