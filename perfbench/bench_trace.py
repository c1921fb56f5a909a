"""Span tracing of rnorm's public functions, installed from outside the package.

Each target is a public function or class method of an rnorm module.  A
function is wrapped in every rnorm module namespace that binds it (so a call
through ``rnorm.engine.grid_radon_2d`` and one through
``rnorm.cli.grid_radon_2d`` are both seen), and methods are wrapped on their
class.  A target that no longer exists is skipped and records zero calls,
so the tracer keeps working when the package is refactored.

Spans are kept in memory: name, layer, start, end, parent span and op id,
plus counters that hooks attach from the call's arguments or result.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int | None = None
    op: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._active: set[str] = set()
        self.op = -1

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._active.add(name)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._active.discard(span.name)

    def is_active(self, name: str) -> bool:
        return name in self._active

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "counts": s.counts}
            for s in self.spans
        ]


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``parent`` fields are indices into ``spans`` (the tracer's full list).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered_length(children.get(i, ())) for i, s in enumerate(spans)]


@dataclass(frozen=True)
class Target:
    """A traced callable: ``module.attr`` or ``module.cls.attr``.

    ``module`` is where the callable lives today; when it has moved, the
    package root's binding of the same name is used instead.  The span's
    layer is the module that defines the callable.
    """

    name: str
    module: str
    attr: str
    cls: str | None = None
    hook: object = None  # hook(span, args, kwargs, result) -> None


def _rnorm_modules() -> dict:
    return {
        n: m for n, m in list(sys.modules.items())
        if m is not None and (n == "rnorm" or n.startswith("rnorm."))
    }


def _lookup(modules: dict, module: str, attr: str):
    for name in (module, "rnorm"):
        value = getattr(modules.get(name), attr, None)
        if value is not None:
            return value
    return None


class Installed:
    """Wrappers currently in place; ``remove`` restores every original binding."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def remove(self) -> None:
        for obj, attr, original in reversed(self.patches):
            setattr(obj, attr, original)
        self.patches.clear()


def _make_wrapper(tracer: Tracer, target: Target, layer: str, fn):
    name, hook = target.name, target.hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.is_active(name):
            # re-entrant call (PiecewisePolynomial.__call__ recurses per point)
            return fn(*args, **kwargs)
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.spans[idx], args, kwargs, result)
        return result

    return wrapper


def _layer(obj) -> str:
    return getattr(obj, "__module__", "rnorm").rsplit(".", 1)[-1]


def install(tracer: Tracer, targets) -> Installed:
    """Wrap every target that exists; record the names of those that do not."""
    inst = Installed()
    modules = _rnorm_modules()
    for t in targets:
        if t.cls is not None:
            cls = _lookup(modules, t.module, t.cls)
            raw = cls.__dict__.get(t.attr) if isinstance(cls, type) else None
            if raw is None:
                inst.missing.append(t.name)
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_make_wrapper(tracer, t, _layer(cls), raw.__func__))
            else:
                wrapped = _make_wrapper(tracer, t, _layer(cls), raw)
            inst.patches.append((cls, t.attr, raw))
            setattr(cls, t.attr, wrapped)
            continue
        original = _lookup(modules, t.module, t.attr)
        if not callable(original):
            inst.missing.append(t.name)
            continue
        wrapper = _make_wrapper(tracer, t, _layer(original), original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst.patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
    return inst
