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
  the probe memos, which runs share, take theirs on a miss only.

All are counted from outside for the duration of one run, so they are
deterministic and nothing in the engines knows it is being counted.
"""

from __future__ import annotations

import contextlib
import threading
import types
from typing import Any, Dict, Iterator, List, Sequence
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


def hot_path_work(queries: Sequence[str] = ("Q2", "Q3"), k: int = 15) -> Dict[str, Any]:
    """Per-query hot-path counts of Whirlpool-S at one ``k``."""
    return {"k": k, "queries": {query: run_counts(query, k) for query in queries}}
