"""In-memory spans recorded around rbell's public callables.

The tracer replaces module and class attributes, so every caller that
looks a name up at call time (``scenarios.build_schedules``,
``cli.run_scenario`` imported from ``scenarios``, a method on
``SettingSchedule``) goes through a wrapper that records one span:
name, start, end, parent span and the operation it belongs to.
Nothing inside the package changes; :meth:`Tracer.uninstall` puts every
original attribute back.

Spans stay in memory until the run ends.  Self time is a span's
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable, Mapping, Optional, Sequence

PACKAGE = "rbell"
#: The layers a traced run wraps, in rbell's dependency order.
LAYERS = ("spacetime", "models", "inequalities", "estimation", "scenarios",
          "optimizer", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    counts: dict = field(default_factory=dict)
    ok: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Counts taken at one wrapped boundary.

    ``before(bound, counts)`` may return replacement arguments as
    ``(args, kwargs)``; ``after(bound, result, counts)`` may return a
    replacement result.  ``bound`` maps parameter names to the call's
    arguments.  Both run inside the span.
    """

    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _signature(fn: Callable) -> Optional[inspect.Signature]:
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


class Tracer:
    """Records spans for the public callables of rbell's layers."""

    def __init__(self, hooks: Optional[Mapping[str, Hook]] = None):
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.wrapped: set[str] = set()
        self.hook_errors: dict[str, str] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records a span called ``name``."""
        hook = self.hooks.get(name)
        sig = _signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                arguments = None
                if hook is not None:
                    arguments, replaced = self._run_hook(name, hook.before, args, kwargs,
                                                         span.counts, sig)
                    if replaced is not None:
                        args, kwargs = replaced
                result = fn(*args, **kwargs)
                if hook is not None and hook.after is not None and arguments is not None:
                    replaced = self._guard(name, hook.after, arguments, result, span.counts)
                    if replaced is not None:
                        result = replaced
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                self._close(span)

        return wrapper

    def _guard(self, name: str, fn: Callable, *args):
        """Run a hook; a hook that fails marks its span name as unreadable
        instead of failing the call it observes."""
        try:
            return fn(*args)
        except Exception as exc:
            self.hook_errors.setdefault(name, repr(exc))
            return None

    def _run_hook(self, name, before, args, kwargs, counts, sig):
        if sig is None:
            self.hook_errors.setdefault(name, "no inspectable signature")
            return None, None
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return None, None  # the call itself will raise
        bound.apply_defaults()
        arguments = bound.arguments
        if before is None:
            return arguments, None
        return arguments, self._guard(name, before, arguments, counts)

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and public method of :data:`LAYERS`.

        A function is replaced in every module of rbell that binds it,
        which covers names imported with ``from .x import y``.
        """
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"{PACKAGE}.{layer}")))
            except ImportError:
                continue  # its names are reported as absent
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for layer, module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap_function(f"{layer}.{attr}", obj, namespaces)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)

    def _wrap_function(self, name: str, fn: Callable,
                       namespaces: Iterable[ModuleType]) -> None:
        wrapper = self.traced(name, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._patch(ns, attr, wrapper)
        self.wrapped.add(name)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, staticmethod):
                replacement = staticmethod(self.traced(name, member.__func__))
            elif isinstance(member, classmethod):
                replacement = classmethod(self.traced(name, member.__func__))
            elif inspect.isfunction(member):
                replacement = self.traced(name, member)
            else:
                continue
            self._patch(cls, attr, replacement)
            self.wrapped.add(name)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Parent/child index over a list of spans."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the span its children cover."""
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.id, ())
        ]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        return span.duration - covered

    def _has_ancestor_in(self, span: Span, names: frozenset) -> bool:
        pid = span.parent
        while pid is not None:
            parent = self.by_id.get(pid)
            if parent is None:
                return False
            if parent.name in names:
                return True
            pid = parent.parent
        return False

    def outermost(self, names: Iterable[str]) -> list[Span]:
        """Spans named in ``names`` with no ancestor also named there."""
        names = frozenset(names)
        return [s for name in names for s in self.by_name.get(name, ())
                if not self._has_ancestor_in(s, names)]

    def covered(self, names: Iterable[str]) -> float:
        """Wall time spent inside any span named in ``names``."""
        return sum(s.duration for s in self.outermost(names))

    def total_self(self, names: Iterable[str]) -> float:
        return sum(self.self_time(s) for name in frozenset(names)
                   for s in self.by_name.get(name, ()))

    def count(self, names: Iterable[str], key: Optional[str] = None,
              ok_only: bool = False) -> float:
        """Number of outermost calls, or the sum of one recorded count."""
        total = 0
        for s in self.outermost(names):
            if ok_only and not s.ok:
                continue
            total += 1 if key is None else s.counts.get(key, 0)
        return total
