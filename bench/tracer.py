"""Span recorder for the traced benchmark run.

The recorder wraps public functions of tcforge from the outside: it
replaces every module attribute that refers to the original function, so
from-import copies (``synthesis.apply_circuit``, ``dynamics.jm_basis``, ...)
are traced as well as the defining module.  Nothing under ``src/`` changes.

Each span stores its name, start, end, parent span and thread.  A span's
self time is its duration minus the durations of its children in the same
thread.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    error: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans from wrapped functions and explicit ``span`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields a dict whose "name" the
        block may replace once it knows its result."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        info = {"name": name, "error": None}
        start = time.perf_counter()
        try:
            yield info
        except Exception as exc:
            # An exception is charged to the innermost span it leaves; the
            # enclosing spans see the same object and do not count it again.
            if getattr(self._local, "last_error", None) is not exc:
                self._local.last_error = exc
                info["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, info["name"], start, end,
                                   threading.get_ident(), info["error"]))

    def wrap(self, original: Callable, name_of, modules) -> int:
        """Route every attribute that is ``original`` in ``modules`` through
        a span.  ``name_of`` is a span name, or ``(args, kwargs, result) ->
        name`` where result is None if the call raised.  Returns the number
        of attributes patched."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs, None)
            with self.span(name) as info:
                result = original(*args, **kwargs)
                if not isinstance(name_of, str):
                    info["name"] = name_of(args, kwargs, result)
                return result

        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)
                    count += 1
        return count

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def self_ms(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        out = {s.sid: s.ms for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ms
        return out

    def dump(self) -> list[list]:
        """Spans as rows: id, parent, name, start, end (s from the first
        span), thread, error."""
        t0 = min((s.start for s in self.spans), default=0.0)
        return [[s.sid, s.parent, s.name, round(s.start - t0, 7),
                 round(s.end - t0, 7), s.thread, s.error]
                for s in sorted(self.spans, key=lambda s: s.sid)]


def tcforge_modules() -> list:
    """The loaded tcforge package and its submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tcforge" or name.startswith("tcforge."))]


def span_cost_us(reps: int = 9, calls: int = 20000) -> list[float]:
    """What tracing adds to one call, in µs, once per repetition: a no-op
    function called through a wrapper (with a name callback, the dearer of
    the wrapper's two paths) against the same function called directly."""
    def noop():
        return None

    host = types.SimpleNamespace(noop=noop)
    tracer = Tracer()
    tracer.wrap(noop, lambda args, kwargs, result: "cost.noop", [host])
    traced = host.noop
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        samples.append(((t2 - t1) - (t1 - t0)) / calls * 1e6)
    return samples
