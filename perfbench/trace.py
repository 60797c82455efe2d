"""Span tracing from outside the program, by wrapping layer boundaries.

The program under test carries no tracing of its own, so the traced run
times each layer from outside: :class:`Tracer` replaces a function (a
class attribute, or a module attribute at the binding its caller actually
uses — a ``from x import f`` binding is patched in the importing module)
with a wrapper that records a span.  Spans nest on one stack; a layer's
*self* time is its span minus the spans nested inside it, and time spent
while no span is open is booked to ``other``.  So the self times plus
``other`` add up to the traced wall time, which :meth:`Tracer.check`
verifies against an independent clock reading.

The stack is shared by the threads and asyncio tasks of one process.  That
is exact as long as only one operation is in flight at a time, which the
traced replay guarantees (it drives one request or statement at a time).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Relative tolerance of the self-time bookkeeping against the wall clock.
SUM_TOLERANCE = 0.01


class WrapperNotFired(AssertionError):
    """A layer wrapper the workload should exercise never ran."""


class Tracer:
    """Span recorder: per-layer self time and per-wrapper call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.other_seconds = 0.0
        self._stack: List[List[Any]] = []
        self._idle_since: Optional[float] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Calls per installed wrapper, keyed ``Owner.name``.
        self.fired_counts: Dict[str, int] = {}
        self._started: Optional[float] = None
        self.wall_seconds = 0.0

    # -- spans -------------------------------------------------------------
    def _enter(self, layer: str) -> None:
        now = self.clock()
        if not self._stack and self._idle_since is not None:
            self.other_seconds += now - self._idle_since
        self._stack.append([layer, now, 0.0])

    def _exit(self) -> None:
        end = self.clock()
        layer, start, children = self._stack.pop()
        total = end - start
        self.self_seconds[layer] += total - children
        if self._stack:
            self._stack[-1][2] += total
        else:
            self._idle_since = end

    def start(self) -> None:
        """Open a traced window (time from here counts as ``other``)."""
        self._started = self._idle_since = self.clock()

    def stop(self) -> None:
        """Close the traced window; its wall time is added here.  Time
        between a ``stop`` and the next ``start`` is not traced."""
        end = self.clock()
        if self._stack:
            raise RuntimeError(
                f"spans still open at stop: {[s[0] for s in self._stack]}"
            )
        assert self._started is not None and self._idle_since is not None
        self.other_seconds += end - self._idle_since
        self.wall_seconds += end - self._started
        self._idle_since = None

    # -- wrappers ------------------------------------------------------------
    def _wrapper(
        self,
        label: str,
        layer: Optional[str],
        func: Callable,
        observe: Optional[Callable[..., None]],
    ) -> Callable:
        fired = self.fired_counts
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                fired[label] += 1
                if layer is None:
                    result = await func(*args, **kwargs)
                else:
                    self._enter(layer)
                    try:
                        result = await func(*args, **kwargs)
                    finally:
                        self._exit()
                if observe is not None:
                    observe(result, *args, **kwargs)
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            fired[label] += 1
            if layer is None:
                result = func(*args, **kwargs)
            else:
                self._enter(layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._exit()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: Optional[str],
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.name`` by a span wrapper for ``layer``.

        ``layer=None`` installs a counting-only hook (no span): ``observe``
        sees ``(result, *args, **kwargs)`` after each call.  Class-level
        ``classmethod``/``staticmethod`` descriptors are re-wrapped as such.
        """
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        descriptor = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            descriptor = type(raw)
            func = raw.__func__
        label = f"{getattr(owner, '__name__', owner)}.{name}"
        wrapped = self._wrapper(label, layer, func, observe)
        if descriptor is not None:
            wrapped = descriptor(wrapped)
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, raw))
        self.fired_counts.setdefault(label, 0)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # -- integrity -------------------------------------------------------------
    def check(self, required: List[str]) -> None:
        """Raise unless every ``required`` wrapper fired and the self times
        plus ``other`` add up to the wall time."""
        unknown = [label for label in required if label not in self.fired_counts]
        if unknown:
            raise WrapperNotFired(f"no wrapper installed for: {unknown}")
        missing = [label for label in required if not self.fired_counts[label]]
        if missing:
            raise WrapperNotFired(
                "wrappers installed but never called (a missed import "
                f"binding?): {', '.join(missing)}"
            )
        negative = {k: v for k, v in self.self_seconds.items() if v < 0}
        if negative:
            raise AssertionError(f"negative self time: {negative}")
        total = sum(self.self_seconds.values()) + self.other_seconds
        if abs(total - self.wall_seconds) > SUM_TOLERANCE * self.wall_seconds:
            raise AssertionError(
                f"layer self times sum to {total:.6f}s but the traced wall "
                f"time is {self.wall_seconds:.6f}s"
            )

    def table(self, ops: int, scale: float) -> List[Tuple[str, float, float]]:
        """``(layer, ms per op, share of wall)`` rows, ``other`` last;
        times are multiplied by ``scale``."""
        rows = [
            (layer, seconds * scale * 1000.0 / ops,
             seconds / self.wall_seconds)
            for layer, seconds in sorted(
                self.self_seconds.items(), key=lambda item: -item[1]
            )
        ]
        rows.append((
            "other",
            self.other_seconds * scale * 1000.0 / ops,
            self.other_seconds / self.wall_seconds,
        ))
        return rows
