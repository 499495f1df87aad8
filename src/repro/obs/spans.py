"""Per-request spans: one timed tree from admission to terminal outcome.

A :class:`Span` is deliberately small — a name, monotonic start/end
times, a flat attribute dict, a list of timestamped events, and child
spans.  The query service opens one ``request`` span per submission and
hangs ``queue`` / ``engine`` children off it, so a single structure
answers "where did this request's time go" the way the paper's Figure 5
wall-clock curves answer it for a whole workload:

- the **request** span covers submit → terminal outcome;
- the **queue** child covers admission wait (charged against the
  request's deadline — see docs/serving.md);
- the **engine** child covers the engine run and carries the algorithm,
  routing strategy and per-run operation counts as attributes; breaker
  fallbacks and degradations appear as events.

Timestamps come from :func:`repro.core.stats.monotonic_seconds` — the
sanctioned monotonic clock (lint rule WPL008 forbids ``time.time()`` for
durations) — so span durations are immune to wall-clock steps.  Spans
are thread-compatible in the same way tickets are: the submitting thread
creates the span, exactly one worker thread mutates it afterwards, and
the internal lock makes the handoff and concurrent readers safe.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.core.stats import monotonic_seconds


class SpanEvent:
    """One timestamped point annotation inside a span."""

    __slots__ = ("name", "at_seconds", "attributes")

    def __init__(self, name: str, at_seconds: float, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.at_seconds = at_seconds
        self.attributes = attributes

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation."""
        return {
            "name": self.name,
            "at_seconds": self.at_seconds,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return f"SpanEvent({self.name} @ {self.at_seconds:.6f})"


class Span:
    """One timed operation; may carry attributes, events and children."""

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.start_seconds = monotonic_seconds()
        self._lock = threading.Lock()
        self._end_seconds: Optional[float] = None
        self._attributes: Dict[str, Any] = dict(attributes or {})
        self._events: List[SpanEvent] = []
        self._children: List["Span"] = []

    # -- recording ---------------------------------------------------------------

    def annotate(self, key: str, value: Any) -> None:
        """Set one attribute (last write wins)."""
        with self._lock:
            self._attributes[key] = value

    def event(self, name: str, **attributes: Any) -> None:
        """Append a timestamped event."""
        stamped = SpanEvent(name, monotonic_seconds() - self.start_seconds, attributes)
        with self._lock:
            self._events.append(stamped)

    def child(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> "Span":
        """Open a child span starting now."""
        child = Span(name, attributes)
        with self._lock:
            self._children.append(child)
        return child

    def finish(self, end_seconds: Optional[float] = None) -> None:
        """Close the span (idempotent — the first finish wins)."""
        now = end_seconds if end_seconds is not None else monotonic_seconds()
        with self._lock:
            if self._end_seconds is None:
                self._end_seconds = now

    # -- reading -----------------------------------------------------------------

    def finished(self) -> bool:
        """Has :meth:`finish` been called?"""
        with self._lock:
            return self._end_seconds is not None

    def duration_seconds(self) -> float:
        """Elapsed seconds; for an open span, elapsed so far."""
        with self._lock:
            end = self._end_seconds
        if end is None:
            end = monotonic_seconds()
        return max(end - self.start_seconds, 0.0)

    def attributes(self) -> Dict[str, Any]:
        """Copy of the attribute dict."""
        with self._lock:
            return dict(self._attributes)

    def events(self) -> List[SpanEvent]:
        """Copy of the event list, in append order."""
        with self._lock:
            return list(self._events)

    def children(self) -> List["Span"]:
        """Copy of the child list, in creation order."""
        with self._lock:
            return list(self._children)

    def find(self, name: str) -> Optional["Span"]:
        """First child (recursively, pre-order) named ``name``."""
        for child in self.children():
            if child.name == name:
                return child
            nested = child.find(name)
            if nested is not None:
                return nested
        return None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly span tree (durations, attributes, events)."""
        with self._lock:
            end = self._end_seconds
            attributes = dict(self._attributes)
            events = [event.as_dict() for event in self._events]
            children = list(self._children)
        duration = (end - self.start_seconds) if end is not None else None
        return {
            "name": self.name,
            "duration_seconds": duration,
            "attributes": attributes,
            "events": events,
            "children": [child.as_dict() for child in children],
        }

    def __repr__(self) -> str:
        state = f"{self.duration_seconds():.6f}s" if self.finished() else "open"
        return f"Span({self.name}, {state}, events={len(self.events())})"


class _NullSpan(Span):
    """What a disabled :class:`~repro.obs.Observability` opens: one shared
    span that records nothing, so callers keep a single code path (the
    null instruments of :mod:`repro.obs.metrics`, for spans)."""

    def annotate(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def child(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> Span:
        return self

    def finish(self, end_seconds: Optional[float] = None) -> None:
        pass


NULL_SPAN: Span = _NullSpan("null")
