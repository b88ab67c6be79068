"""In-memory span tracer for the benchmark's traced run.

A span is one wrapped public call: its name, start and end (perf_counter
seconds), the span that was open when it started, and the run id shared by
every span of one traced command.  Spans stay in memory and are written out
once, when the command ends.  A layer's self time is its span's duration
minus the part of that interval covered by its child spans.

Wrapping works by rebinding module and class attributes, so the traced
program runs unmodified: every module of the package that imported a wrapped
function by name gets the wrapper too.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for one process; `wrap` makes a traced stand-in for a function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(id=len(self.spans), name=name, start=time.perf_counter(), end=0.0,
                    parent=self._stack[-1] if self._stack else None, run_id=self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str,
             annotate: Callable[[tuple, dict, object], dict] | None = None) -> Callable:
        """Traced stand-in for `fn`; `annotate(args, kwargs, result)` adds span attributes.

        A generator function gets one span whose duration is the time spent
        inside its `next()` calls only, laid end to end from the first call;
        the consumer's work between items is not charged to it.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, annotate)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    def _wrap_generator(self, fn, name, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            span = None
            busy = 0.0
            items = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    if span is None:
                        span = Span(id=len(tracer.spans), name=name, start=t0, end=t0,
                                    parent=tracer._stack[-1] if tracer._stack else None,
                                    run_id=tracer.run_id)
                        tracer.spans.append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter() - t0
                    items += 1
                    yield item
            finally:
                if span is not None:
                    span.end = span.start + busy
                    span.attrs["items"] = items
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, None))

        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]) + "\n",
                              encoding="utf-8")


def install(tracer: Tracer, package: str, targets: dict[str, tuple[str, str, Callable | None]]
            ) -> None:
    """Rebind each target to its traced stand-in wherever the package refers to it.

    `targets` maps a span name to (module, attribute, annotate); the attribute
    may be `Class.method`.  Every already-imported module of `package` whose
    global refers to the same function object is rebound as well.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for name, (module_name, attr, annotate) in targets.items():
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(original, name, annotate))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(original, name, annotate)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def load_spans(path: str | Path) -> list[Span]:
    return [Span(**row) for row in json.loads(Path(path).read_text(encoding="utf-8"))]


def self_times(spans: list[Span]) -> dict[tuple[str, int], float]:
    """(run id, span id) -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's.  Span ids are unique within
    one run id, so spans from several runs may be passed together.
    """
    children: dict[tuple[str, int], list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.run_id, span.parent), []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get((span.run_id, span.id), []), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[(span.run_id, span.id)] = (span.end - span.start) - covered
    return out
