"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: :class:`Tracer`
wraps calls into the program's public functions (:meth:`Tracer.patch`)
and the benchmark's own client code opens spans directly
(:meth:`Tracer.span`, :meth:`Tracer.record`).  Nothing inside ``src/``
knows about it.  Every span has a name, start, end, parent and request
id; the list stays in memory until :meth:`Tracer.write` dumps it as
JSON lines when the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (children may overlap, so the union is
subtracted, not the sum).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    request_id: "str | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, parent: "int | None", request_id: "str | None") -> Span:
        with self._lock:
            span = Span(next(self._ids), name, start, start, parent, request_id)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, *, request_id: "str | None" = None) -> Iterator[Span]:
        """Open a span around the ``with`` body, nested under the current one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = self._new(name, time.perf_counter(), parent.id if parent else None, request_id)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: "Span | None" = None,
        request_id: "str | None" = None,
    ) -> Span:
        """Record an already-finished span (e.g. one that began at a due time)."""
        span = self._new(name, start, parent.id if parent else None, request_id)
        span.end = end
        return span

    # -- wrapping the program's public functions ---------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator:
                with self.span(name):
                    yield from fn(*args, **kwargs)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, fn: Callable, name: str) -> int:
        """Wrap every module-level binding of ``fn`` in the ``repro`` package.

        Call sites look a function up in their own module's globals, so
        each importing module's binding is replaced.  Returns how many
        bindings were wrapped (0 means the program no longer has it).
        """
        wrapped = self._wrap(fn, name)
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)
                    count += 1
        return count

    def patch_method(self, cls: type, attr: str, name: str) -> int:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
        count = 0
        pending = [cls]
        seen: set[type] = set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if attr in vars(klass) and callable(vars(klass)[attr]):
                self._set(klass, attr, self._wrap(vars(klass)[attr], name))
                count += 1
        return count

    def unpatch(self) -> None:
        """Undo every wrap, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_times(self, roots: "list[Span]") -> dict[str, float]:
        """Self time in seconds per span name, over ``roots`` and their descendants."""
        kids = self.children()
        totals: dict[str, float] = {}
        pending = list(roots)
        while pending:
            span = pending.pop()
            children = kids.get(span.id, [])
            pending.extend(children)
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - _covered(span, children)
        return totals

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(span: Span, children: "list[Span]") -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered
