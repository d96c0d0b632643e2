"""Outside-in span tracer for the package's public functions.

``Tracer.install()`` walks every loaded module whose name is the package
or starts with ``<package>.``, and replaces each public module attribute
that is a plain function defined in the package with a timing wrapper.
The wrapper is chosen by function identity, so every module that imported
the same function (``from .network import gradient``) gets the same
wrapper, and a function moved to another module is still found.  Spans
carry the function's run-time ``__module__.__qualname__``.

Each thread keeps its own stack of open spans.  A span opened on a thread
with no open span (a pool worker) takes as parent the innermost open span
of the thread that installed the tracer, which is the call that started
the pool.  Spans stay in memory until ``spans`` is read.

``self_times`` subtracts from each span the part of its interval that its
children cover; children on other threads may overlap each other, so the
covered part is the union of their intervals.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str            # __module__.__qualname__ at run time
    thread: int
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Wraps a package's public functions; one instance per traced run.

    ``hooks`` maps a function's ``__qualname__`` to
    ``hook(args, kwargs, result, span)``, called after each successful call
    to record counts at the same boundary (see ``counts``).  A hook that
    raises is recorded in ``hook_errors`` and never disturbs the call.
    """

    def __init__(self, package: str, hooks: dict | None = None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.hook_errors: dict[str, str] = {}
        self.wrapped: dict[str, str] = {}     # qualname -> __module__
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._lock = threading.Lock()

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _is_target(self, name: str, obj) -> bool:
        return (
            isinstance(obj, types.FunctionType)
            and not name.startswith("_")
            and (obj.__module__ or "").split(".")[0] == self.package
        )

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._owner_stack
        wrappers: dict[int, object] = {}
        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                if not self._is_target(name, obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                    self.wrapped[obj.__qualname__] = obj.__module__
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])
        return self

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def absent(self, qualnames) -> list[str]:
        """Those of ``qualnames`` that no traced module defines."""
        return [q for q in qualnames if q not in self.wrapped]

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn):
        name = f"{fn.__module__}.{fn.__qualname__}"
        qualname = fn.__qualname__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            try:
                parent = (stack or tracer._owner_stack)[-1].id
            except IndexError:  # no open span here, or the owner's just closed
                parent = None
            span = Span(next(tracer._ids), parent, name, threading.get_ident(),
                        time.perf_counter_ns())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            hook = tracer.hooks.get(qualname)
            if hook is not None:
                try:
                    hook(args, kwargs, result, span)
                except Exception as e:  # a counter must never break the run
                    tracer.hook_errors[qualname] = f"{type(e).__name__}: {e}"
            return result

        return traced

    def count(self, key: str, amount: float = 1.0):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part covered by its children (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start_ns, sp.end_ns))
    return {
        sp.id: sp.duration_ns - covered_ns(children.get(sp.id, ()), sp.start_ns, sp.end_ns)
        for sp in spans
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self time in ms."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sp in spans:
        row = out.setdefault(sp.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += sp.duration_ns / 1e6
        row["self_ms"] += selfs[sp.id] / 1e6
    return out
