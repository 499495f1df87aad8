"""How much per-extension work one Whirlpool-S run does — as counts.

One server operation produces all its extensions at once, and what they
share is meant to be paid for once per operation
(:meth:`~repro.core.base.EngineBase.absorb_extensions`).  This driver pins
that for two fixed queries so the trajectory gate
(:mod:`repro.bench.trajectory`) fails when per-extension work comes back:

- ``observe_calls`` — meetings with the top-k set: one per seed, one per
  unfinished extension, one per *batch* of completed siblings;
- ``match_materializations`` — ``instantiations`` / ``qualities`` dicts
  built; a fault-free relaxed run without a trace reads none (0);
- ``bound_table_entries`` — distinct visited sets the run looked its
  unvisited servers up for (at most 2^servers; the remaining bound each
  leaves is summed once per root, in the root's row of the bound table);
- ``exclusion_sets_allocated`` — routing decisions answered with anything
  but the supervisor's shared empty set (0 without faults);
- ``stats_closures_built`` — functions ``ExecutionStats.record_*`` built
  to bump a counter: calls × the nested functions in the method (0);
- ``lock_rounds`` — lock acquisitions of a warmed run, counted by a lock
  factory installed the way :class:`~repro.analysis.racecheck.RaceCheck`
  installs its tracing locks, around a fresh Engine and two runs (the
  first warms its probe memos; the second is counted).  Whirlpool-S is
  one thread, so it declares its state unshared and takes no lock (0);
  the probe memos, which runs share, take theirs on a miss only;
- ``frames_per_operation`` — Python calls into ``repro`` per server
  operation of a warmed run, counted with :func:`sys.setprofile`: what
  the loop pays in wrapper layers (the same on every supported Python);
- ``build_calls_per_probe`` — Python calls into ``repro`` while one
  ``Engine`` is built, per (root, server) pair its sweep probes: what a
  cold query pays per bound-table cell before its first run.

All are counted from outside for the duration of one run, so they are
deterministic and nothing in the engines knows it is being counted.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import types
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple
from unittest import mock

from repro.bench.params import DEFAULTS, QUERIES
from repro.bench.step_codec import counted
from repro.bench.workloads import get_database, get_engine
from repro.core.engine import Engine
from repro.core.match import PartialMatch
from repro.core.stats import ExecutionStats
from repro.core.topk import TopKSet
from repro.faults.supervisor import Supervisor


def stats_recorders() -> Dict[str, int]:
    """``ExecutionStats.record_*`` name → functions one call of it builds
    (lambdas, nested defs) before it touches a counter."""
    return {
        name: sum(isinstance(const, types.CodeType) for const in method.__code__.co_consts)
        for name, method in vars(ExecutionStats).items()
        if name.startswith("record_")
    }


def run_counts(query: str, k: int) -> Dict[str, int]:
    """The counts of one Whirlpool-S run of ``query`` over the bench document."""
    run = get_engine(query).open(k, algorithm="whirlpool_s")
    shared_empty = Supervisor().excluded_for(0)
    observes, materializations, exclusions = [0], [0], [0]
    recorders = stats_recorders()
    recorded = {name: [0] for name in recorders}
    with contextlib.ExitStack() as stack:
        stack.enter_context(counted(TopKSet, "observe", observes))
        stack.enter_context(counted(PartialMatch, "_materialize", materializations))
        stack.enter_context(
            counted(
                Supervisor,
                "excluded_for",
                exclusions,
                when=lambda excluded: excluded is not shared_empty,
            )
        )
        for name in recorders:
            stack.enter_context(counted(ExecutionStats, name, recorded[name]))
        run.run()
    return {
        "observe_calls": observes[0],
        "match_materializations": materializations[0],
        "bound_table_entries": len(run.bound_table),
        "exclusion_sets_allocated": exclusions[0],
        "stats_closures_built": sum(
            recorded[name][0] * built for name, built in recorders.items()
        ),
        "lock_rounds": lock_rounds(query, k),
        "frames_per_operation": frames_per_operation(query, k),
        "build_calls_per_probe": build_calls_per_probe(query),
    }


class _CountingLock:
    """A real lock that counts its acquisitions into ``count[0]``."""

    def __init__(self, inner: Any, count: List[int]) -> None:
        self._inner = inner
        self._count = count

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            self._count[0] += 1
        return acquired

    def release(self) -> None:
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        # ``locked`` and the hooks a ``threading.Condition`` looks for
        # (``_is_owned`` ...) are the real lock's.
        return getattr(self._inner, name)


@contextlib.contextmanager
def counting_locks(count: List[int]) -> Iterator[None]:
    """While the block runs, ``threading.Lock`` and ``threading.RLock``
    build locks that count their acquisitions into ``count[0]``."""
    real_lock, real_rlock = threading.Lock, threading.RLock
    with mock.patch.object(
        threading, "Lock", lambda: _CountingLock(real_lock(), count)
    ), mock.patch.object(threading, "RLock", lambda: _CountingLock(real_rlock(), count)):
        yield


def lock_rounds(query: str, k: int) -> int:
    """Lock acquisitions of a warmed Whirlpool-S run of ``query`` over
    the bench document: every lock the Engine and the run build counts."""
    count = [0]
    with counting_locks(count):
        engine = Engine(get_database(), QUERIES[query], normalization=DEFAULTS["scoring"])
        engine.run(k)
        count[0] = 0
        engine.run(k)
    return count[0]


#: Comprehension frames Python 3.12 no longer makes (PEP 709).
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def calls_into_repro(call: Callable[[], Any]) -> Tuple[Any, int]:
    """``call()``'s result and the Python frames it entered in the
    ``repro`` package, less the :data:`_INLINED` comprehensions."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
    count = [0]

    def profile(frame: types.FrameType, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package) and code.co_name not in _INLINED:
                count[0] += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, count[0]


def frames_per_operation(query: str, k: int) -> float:
    """Python frames entered in the ``repro`` package (:func:`calls_into_repro`)
    per server operation of a warmed Whirlpool-S run of ``query`` over the
    bench document (2 decimals)."""
    engine = Engine(get_database(), QUERIES[query], normalization=DEFAULTS["scoring"])
    engine.run(k)  # fills the probe memos
    result, calls = calls_into_repro(functools.partial(engine.run, k))
    return round(calls / result.stats.server_operations, 2)


def build_calls_per_probe(query: str) -> float:
    """:func:`calls_into_repro` of one ``Engine`` build of ``query`` over
    the bench document, per (root, server) pair it probes (2 decimals),
    after a first build warms the process-wide compiled-predicate cache."""
    build = functools.partial(
        Engine, get_database(), QUERIES[query], normalization=DEFAULTS["scoring"]
    )
    build()
    engine, calls = calls_into_repro(build)
    roots = len(engine.index[engine.pattern.root.tag])
    return round(calls / (roots * len(engine.pattern.non_root_nodes())), 2)


def hot_path_work(queries: Sequence[str] = ("Q2", "Q3"), k: int = 15) -> Dict[str, Any]:
    """Per-query hot-path counts of Whirlpool-S at one ``k``."""
    return {"k": k, "queries": {query: run_counts(query, k) for query in queries}}
