"""Runtime lock-coverage race detection for Whirlpool-M.

A simplified Eraser-style `lockset <https://doi.org/10.1145/265924.265927>`_
checker, specialized to this repo's shared classes.  While the context
manager is active it:

- replaces ``threading.Lock`` / ``threading.RLock`` with tracing wrappers,
  so every lock *created inside the context* records, per thread, when it
  is held (``threading.Condition`` is covered transitively: it acquires
  through the lock object it wraps, including the ``RLock`` it allocates
  by default);
- patches ``__setattr__`` on the watched classes (by default every class
  :data:`~repro.analysis.lint.rules.SHARED_CLASSES` names — the top-k
  set and its entries, statistics, trace, queues, the ``_InFlight``
  counter, and the fault, service, observability, recovery, cluster,
  index and clock classes that WPL001 guards) so every field *write*
  records ``(thread, object, field, locks-held)``; writes during
  ``__init__`` are exempt — an object is not shared before construction
  completes.

Findings:

- **unguarded-field** — a field written by two or more distinct threads
  whose accesses share no common lock (the classic lockset violation);
- **lock-order** — a pair of locks acquired in both nesting orders by the
  observed threads (a deadlock-in-waiting even if no deadlock occurred).

Granularity caveats, documented rather than hidden: only attribute
*writes* are observed (in-place container mutation such as
``self._heap.append`` goes through the already-held queue lock here, and
the AST rule ``WPL001`` covers it statically), and only locks created
inside the context participate in locksets.  Create the engine inside the
``with`` block::

    with RaceCheck() as check:
        runner = WhirlpoolM(..., threads_per_server=2)
        runner.run()
    assert not check.findings(), check.report()
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

__all__ = ["RaceCheck", "RaceFinding", "default_watched_classes"]


class RaceFinding:
    """One detected violation (``unguarded-field`` or ``lock-order``)."""

    __slots__ = ("kind", "detail", "threads")

    def __init__(self, kind: str, detail: str, threads: Tuple[str, ...]) -> None:
        self.kind = kind
        self.detail = detail
        self.threads = threads

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {"kind": self.kind, "detail": self.detail, "threads": list(self.threads)}

    def __repr__(self) -> str:
        return f"RaceFinding({self.kind}: {self.detail})"


class _TracedLock:
    """Wrapper around a real lock that reports acquire/release events.

    Implements the optional ``_release_save`` / ``_acquire_restore`` /
    ``_is_owned`` trio so :class:`threading.Condition` drives the wrapper
    (and therefore the registry) instead of bypassing it.
    """

    def __init__(self, inner: Any, registry: "_Registry", kind: str) -> None:
        self._inner = inner
        self._registry = registry
        self._kind = kind

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._registry.on_acquire(self)
        return acquired

    def release(self) -> None:
        self._registry.on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    # -- Condition integration ---------------------------------------------------

    def _release_save(self) -> Any:
        self._registry.on_release(self)
        inner_save = getattr(self._inner, "_release_save", None)
        if inner_save is not None:
            return inner_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state: Any) -> None:
        inner_restore = getattr(self._inner, "_acquire_restore", None)
        if inner_restore is not None:
            inner_restore(state)
        else:
            self._inner.acquire()
        self._registry.on_acquire(self)

    def _is_owned(self) -> bool:
        inner_owned = getattr(self._inner, "_is_owned", None)
        if inner_owned is not None:
            return bool(inner_owned())
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def __repr__(self) -> str:
        return f"_TracedLock({self._kind}, id={id(self):#x})"


class _FieldState:
    """Lockset state for one (object, field) pair."""

    __slots__ = ("class_name", "field", "threads", "lockset", "initialized")

    def __init__(self, class_name: str, field: str) -> None:
        self.class_name = class_name
        self.field = field
        self.threads: Set[str] = set()
        #: Intersection of traced-lock id-sets across all writes so far.
        self.lockset: Optional[FrozenSet[int]] = None
        self.initialized = False


class _Registry:
    """Event sink: held-lock tracking, field states, lock-order edges."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._state_lock = threading.Lock()
        self.fields: Dict[Tuple[int, str], _FieldState] = {}
        #: (outer lock id, inner lock id) -> example thread name.
        self.order_edges: Dict[Tuple[int, int], str] = {}
        self.lock_names: Dict[int, str] = {}
        #: ids of objects currently inside a watched ``__init__``.
        self._constructing: Set[int] = set()

    # -- per-thread held stack ---------------------------------------------------

    def _held(self) -> List[int]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def on_acquire(self, lock: _TracedLock) -> None:
        held = self._held()
        lock_id = id(lock)
        if held:
            with self._state_lock:
                self.lock_names.setdefault(lock_id, repr(lock))
                for outer in set(held):
                    if outer != lock_id:
                        self.order_edges.setdefault(
                            (outer, lock_id), threading.current_thread().name
                        )
        held.append(lock_id)

    def on_release(self, lock: _TracedLock) -> None:
        held = self._held()
        lock_id = id(lock)
        # Remove the innermost occurrence (reentrant locks stack).
        for index in range(len(held) - 1, -1, -1):
            if held[index] == lock_id:
                del held[index]
                break

    # -- construction exemption ----------------------------------------------------

    def begin_construct(self, obj_id: int) -> None:
        with self._state_lock:
            self._constructing.add(obj_id)
            # A watched ``__init__`` on this id means a NEW object: any
            # recorded field states belong to a freed object whose
            # address was recycled.  Dropping them prevents cross-object
            # false positives (two sequential runs' entries landing at
            # the same address look like one object written by two
            # threads).
            stale = [key for key in self.fields if key[0] == obj_id]
            for key in stale:
                del self.fields[key]

    def end_construct(self, obj_id: int) -> None:
        with self._state_lock:
            self._constructing.discard(obj_id)

    # -- field writes ---------------------------------------------------------------

    def on_write(self, obj: object, field: str) -> None:
        obj_id = id(obj)
        lockset = frozenset(self._held())
        thread_name = threading.current_thread().name
        with self._state_lock:
            if obj_id in self._constructing:
                return
            key = (obj_id, field)
            state = self.fields.get(key)
            if state is None:
                state = self.fields[key] = _FieldState(type(obj).__name__, field)
            state.threads.add(thread_name)
            if state.lockset is None:
                state.lockset = lockset
            else:
                state.lockset = state.lockset & lockset


def default_watched_classes() -> List[type]:
    """The shared-state classes :data:`~repro.analysis.lint.rules.SHARED_CLASSES`
    names — the list WPL001 checks statically (lazy imports)."""
    from repro.analysis.lint.rules import SHARED_CLASSES

    classes = []
    for path in SHARED_CLASSES:
        module, _, name = path.rpartition(".")
        classes.append(getattr(importlib.import_module(module), name))
    return classes


class RaceCheck:
    """Context manager that instruments locks + watched classes and reports.

    Parameters
    ----------
    watch:
        Classes whose attribute writes are observed.  Defaults to
        :func:`default_watched_classes`; pass your own list to check other
        shared structures (the tests seed a deliberately racy class).
    """

    def __init__(self, watch: Optional[Iterable[type]] = None) -> None:
        self.registry = _Registry()
        self._watch: List[type] = (
            list(watch) if watch is not None else default_watched_classes()
        )
        self._saved_factories: Dict[str, Callable[..., Any]] = {}
        self._saved_members: List[Tuple[type, str, Optional[Any]]] = []
        self._active = False

    # -- instrumentation -----------------------------------------------------------

    def __enter__(self) -> "RaceCheck":
        if self._active:
            raise RuntimeError("RaceCheck is not reentrant")
        self._active = True
        registry = self.registry

        real_lock = threading.Lock
        real_rlock = threading.RLock
        self._saved_factories = {"Lock": real_lock, "RLock": real_rlock}

        def traced_lock() -> _TracedLock:
            return _TracedLock(real_lock(), registry, "Lock")

        def traced_rlock() -> _TracedLock:
            return _TracedLock(real_rlock(), registry, "RLock")

        threading.Lock = traced_lock  # type: ignore[misc, assignment]
        threading.RLock = traced_rlock  # type: ignore[misc, assignment]

        for cls in self._watch:
            self._patch_class(cls)
        return self

    def _patch_class(self, cls: type) -> None:
        registry = self.registry
        original_setattr = cls.__setattr__
        original_init = cls.__dict__.get("__init__")

        self._saved_members.append((cls, "__setattr__", cls.__dict__.get("__setattr__")))
        self._saved_members.append((cls, "__init__", original_init))

        def traced_setattr(obj: object, name: str, value: object) -> None:
            registry.on_write(obj, name)
            original_setattr(obj, name, value)

        cls.__setattr__ = traced_setattr  # type: ignore[method-assign, assignment]

        init_to_wrap = original_init if original_init is not None else cls.__init__

        def traced_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            registry.begin_construct(id(obj))
            try:
                init_to_wrap(obj, *args, **kwargs)
            finally:
                registry.end_construct(id(obj))

        cls.__init__ = traced_init  # type: ignore[method-assign, misc]

    def __exit__(self, *exc_info: object) -> None:
        threading.Lock = self._saved_factories["Lock"]  # type: ignore[misc, assignment]
        threading.RLock = self._saved_factories["RLock"]  # type: ignore[misc, assignment]
        for cls, member, original in reversed(self._saved_members):
            if original is None:
                try:
                    delattr(cls, member)
                except AttributeError:
                    pass
            else:
                setattr(cls, member, original)
        self._saved_members = []
        self._active = False

    # -- reporting -----------------------------------------------------------------

    def findings(self) -> List[RaceFinding]:
        """All violations observed so far (callable inside or after the block)."""
        out: List[RaceFinding] = []
        with self.registry._state_lock:
            field_states = list(self.registry.fields.values())
            edges = dict(self.registry.order_edges)
        for state in field_states:
            if len(state.threads) >= 2 and not state.lockset:
                out.append(
                    RaceFinding(
                        kind="unguarded-field",
                        detail=(
                            f"{state.class_name}.{state.field} written by "
                            f"{len(state.threads)} threads with no common lock"
                        ),
                        threads=tuple(sorted(state.threads)),
                    )
                )
        reported: Set[Tuple[int, int]] = set()
        for (outer, inner), thread_name in edges.items():
            if (inner, outer) in edges and (inner, outer) not in reported:
                reported.add((outer, inner))
                out.append(
                    RaceFinding(
                        kind="lock-order",
                        detail=(
                            f"locks {outer:#x} and {inner:#x} acquired in both "
                            f"nesting orders (potential deadlock)"
                        ),
                        threads=tuple(
                            sorted({thread_name, edges[(inner, outer)]})
                        ),
                    )
                )
        out.sort(key=lambda finding: (finding.kind, finding.detail))
        return out

    def report(self) -> str:
        """Human-readable summary of the findings."""
        findings = self.findings()
        if not findings:
            return "racecheck: no findings"
        lines = [f"racecheck: {len(findings)} finding(s)"]
        for finding in findings:
            threads = ", ".join(finding.threads)
            lines.append(f"  [{finding.kind}] {finding.detail} (threads: {threads})")
        return "\n".join(lines)
