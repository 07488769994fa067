"""In-memory span tracer that times program layers from outside.

The benchmark never edits the program: a :class:`Hook` names a public
function or method of ``repro``; :meth:`Tracer.install` rebinds that
function object to a timing wrapper in every loaded ``repro.*`` module
namespace that references it (so a moved call site still counts) and
patches methods on their classes; :meth:`Tracer.uninstall` restores the
originals.  Spans are ``(name, start, end, id, parent, step)`` tuples
kept in a list until the run ends.

This module is stdlib-only so the span arithmetic can be tested without
the program.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    id: int
    parent: int  # -1 for a root span
    step: int  # one id per time step (the "request" of this system)


class Hook(NamedTuple):
    """One timing target: ``layer`` is the span name it records under.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``.  ``split`` names a second layer for kernels that fuse
    two layers and return the timestamp of their internal boundary as
    ``result.t_boundary``: the part before it is charged to ``layer``,
    the part after it to ``split``.
    """

    layer: str
    module: str
    qualname: str
    split: Optional[str] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.step = 0
        #: Hook targets that no longer exist, as ``module:qualname``.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._plan: Optional[list] = None  # resolved patches, see _resolve
        self._installed = False

    # -- recording ------------------------------------------------------

    def open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def close(self, name: str, sid: int, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else -1
        self.spans.append(Span(name, start, end, sid, parent, self.step))

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block (the driver's own layer boundaries)."""
        sid = self.open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.close(name, sid, t0, perf_counter())

    def wrap(self, hook: Hook, fn):
        """A timing wrapper around ``fn`` recording under ``hook.layer``."""
        tracer = self
        layer, split = hook.layer, hook.split

        if split is None:

            def wrapper(*args, **kwargs):
                sid = tracer.open()
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(layer, sid, t0, perf_counter())

        else:

            def wrapper(*args, **kwargs):
                sid = tracer.open()
                t0 = perf_counter()
                t_boundary = None
                try:
                    result = fn(*args, **kwargs)
                    t_boundary = result.t_boundary
                    return result
                finally:
                    t1 = perf_counter()
                    if t_boundary is None:  # raised: charge it all to layer
                        tracer.close(layer, sid, t0, t1)
                    else:
                        # Two sibling spans; nested hooks keep the frame
                        # id, which becomes the second (later) part.
                        tracer.close(split, sid, t_boundary, t1)
                        first = tracer._next_id
                        tracer._next_id += 1
                        last = tracer.spans[-1]
                        tracer.spans.append(
                            Span(layer, t0, t_boundary, first, last.parent,
                                 last.step)
                        )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- hook installation ----------------------------------------------

    def install(self, hooks: Iterable[Hook], prefix: str = "repro") -> None:
        """Install every hook whose target exists; note the rest.

        Targets are resolved on the first call and the same patches are
        re-applied afterwards, so a block-alternating caller can switch
        the hooks on and off cheaply.  A no-op while they are on.
        """
        if self._installed:
            return
        if self._plan is None:
            self._plan = self._resolve(hooks, prefix)
        for namespace, attr, _, wrapper in self._plan:
            setattr(namespace, attr, wrapper)
        self._installed = True

    def _resolve(self, hooks: Iterable[Hook], prefix: str) -> list:
        """``(namespace, attribute, original, wrapper)`` per patch."""
        plan = []
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
                *path, attr = hook.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                target = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                key = f"{hook.module}:{hook.qualname}"
                if key not in self.missing:
                    self.missing.append(key)
                continue
            wrapper = self.wrap(hook, target)
            if path:  # a method: patch it on its class
                plan.append((owner, attr, target, wrapper))
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (
                    name == prefix or name.startswith(prefix + ".")
                ):
                    continue
                plan += [
                    (mod, key, target, wrapper)
                    for key, value in list(vars(mod).items())
                    if value is target
                ]
        return plan

    def uninstall(self) -> None:
        if self._installed:
            for namespace, attr, original, _ in self._plan:
                setattr(namespace, attr, original)
            self._installed = False

    # -- analysis -------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus its direct children's durations."""
    spans = list(spans)
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.end - s.start
    return out


def busy_by_layer(
    spans: Iterable[Span], roots: Iterable[str]
) -> Dict[str, Dict[int, float]]:
    """Layer name -> {step id -> seconds busy inside that step}.

    ``roots`` names the whole-step spans.  A layer's busy time is the
    duration of its spans called directly from a step span: a hooked
    function reached through another hooked function belongs to the
    layer the step called (the reservoir's own collisions are reservoir
    time), and is never counted twice.  A root span's entry is its self
    time, so the entries of one step add up to the step span exactly.
    """
    spans = list(spans)
    roots = set(roots)
    root_ids = {s.id for s in spans if s.name in roots}
    own = self_times(spans)
    out: Dict[str, Dict[int, float]] = {}
    for s in spans:
        if s.id in root_ids:
            seconds = own[s.id]
        elif s.parent in root_ids:
            seconds = s.end - s.start
        else:
            continue
        per_step = out.setdefault(s.name, {})
        per_step[s.step] = per_step.get(s.step, 0.0) + seconds
    return out
