"""In-memory spans around library functions, for the benchmark's traced run.

A `Tracer` replaces functions by wrappers under the module attribute each
caller looks up, so a function imported into two modules is wrapped in both.
Every call records a span (name, start, end, parent, run id).  Counters are
computed from a call's arguments and result only after the traced pipeline
has finished, so they add nothing to any span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

#: (args, kwargs, result) -> counter values
CounterFn = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    run: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []
        self._pending: list[tuple[Span, CounterFn, tuple, dict, Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        sp = Span(name, self.run, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module: Any, attr: str, name: str, counter: Optional[CounterFn] = None) -> None:
        """Trace calls made through `module.attr`; a missing attribute raises."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter is not None:
                self._pending.append((sp, counter, args, kwargs, result))
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def settle(self) -> None:
        """Compute the counters of every span closed since the last call."""
        for sp, counter, args, kwargs, result in self._pending:
            sp.counters.update(counter(args, kwargs, result))
        self._pending.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, child_time)]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": sp.name,
                "run": sp.run,
                "parent": sp.parent,
                "start": sp.start,
                "end": sp.end,
                **({"counters": sp.counters} if sp.counters else {}),
            }
            for sp in self.spans
        ]
