"""Disabled-guard overhead: the measurement behind every "near-zero cost
when disabled" claim.

The observer hooks, the fault-injection hooks and the checkpoint guard
all cost the same two instructions per site when switched off::

    observer = self.observer
    if observer is not None: ...

:func:`guard_overhead` micro-times that guard, multiplies it by the
number of guard executions the caller counts on the same run — an upper
bound, taken from the calls an attached counter receives — and divides by
the run's wall time: a deterministic *upper bound* on the disabled
overhead.  Median end-to-end walls of the
caller's run configurations (the first one is the disabled baseline)
give the enabled-cost context.  A configuration is one timed run: it gets
``run(**options)``, a Whirlpool-S run of the engine at the payload's k,
and may do more around it — the observability one folds the run's trace
into a registry, as the query service does.

:func:`obs_overhead_payload` is the observability instance, shared by
the ``obs_overhead`` paper claim under ``benchmarks/`` and the
perf-trajectory driver (:mod:`repro.bench.trajectory`), so both report
the same numbers measured the same way.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Mapping

from repro.bench.workloads import get_engine
from repro.core import ExecutionTrace
from repro.obs import MetricsRegistry, record_run

GUARD_SAMPLES = 200_000

#: A run configuration: one timed run, given ``run(**options)``.
RunOnce = Callable[[Callable[..., Any]], Any]

#: How many guard executions one run makes: given ``open_run(**options)``,
#: which opens the run (:meth:`~repro.core.engine.Engine.open`) for the
#: count to repeat with a counter attached, and the baseline's result.
SiteCount = Callable[[Callable[..., Any], Any], int]


class HookSite:
    """The exact attribute-load + None-test shape of a disabled hook."""

    __slots__ = ("observer",)

    def __init__(self):
        self.observer = None


def time_disabled_guard(samples: int = GUARD_SAMPLES) -> float:
    """Median per-call cost (seconds) of the disabled guard.

    Seven repeats, not three: contention from other processes only adds
    time, and over 40 interleaved calls on a shared 2-CPU Linux host the
    median of three read up to 34.7 ns where the median of seven stayed
    at or under 22.6 ns.
    """
    site = HookSite()
    sink = 0
    measurements = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(samples):
            observer = site.observer
            if observer is not None:
                sink += 1
        measurements.append((time.perf_counter() - start) / samples)
    assert sink == 0
    measurements.sort()
    return measurements[len(measurements) // 2]


def median_wall(engine, k: int, rounds: int, configuration: RunOnce):
    """The last result and the median wall of ``rounds`` Whirlpool-S runs."""
    walls = []
    result = None
    run = functools.partial(engine.run, k, algorithm="whirlpool_s")
    for _ in range(rounds):
        start = time.perf_counter()
        result = configuration(run)
        walls.append(time.perf_counter() - start)
    walls.sort()
    return result, walls[len(walls) // 2]


def guard_overhead(
    engine,
    k: int,
    rounds: int,
    configurations: Mapping[str, RunOnce],
    site_count: SiteCount,
) -> Dict:
    """Median wall per configuration, the guard cost, and the bound.

    ``site_count`` counts the guard executions of the baseline run
    (:data:`SiteCount`).
    """
    results: Dict[str, Any] = {}
    walls: Dict[str, float] = {}
    for name, configuration in configurations.items():
        results[name], walls[name] = median_wall(engine, k, rounds, configuration)
    baseline = next(iter(configurations))
    guard_cost = time_disabled_guard()
    open_run = functools.partial(engine.open, k, "whirlpool_s")
    sites = site_count(open_run, results[baseline])
    return {
        "walls": walls,
        "guard_cost_ns": guard_cost * 1e9,
        "hook_sites": sites,
        "overhead_bound": (sites * guard_cost) / walls[baseline],
    }


def hook_site_count(open_run: Callable[..., Any], baseline: Any) -> int:
    """Observer-hook guard executions of one run: the hook calls the same
    run makes with an :class:`ExecutionTrace` attached (one event or queue
    depth each), plus one.

    Observers decide nothing, so the observed run takes the disabled
    run's path, and every disabled guard precedes at least one hook call
    there — one per call, or one per batch for a completed sibling batch
    — except Whirlpool-S's early stop: one guard stands for an
    ``on_prune`` per tuple it drains, and an empty drain has none (the
    one added).
    """
    trace = ExecutionTrace()
    open_run(observer=trace).run()
    return len(trace.events) + len(trace.queue_depths) + 1


def trace_and_metrics(run: Callable[..., Any]) -> Any:
    """What an enabled service pays per run: a traced run, then its
    fold into a fresh registry."""
    trace = ExecutionTrace()
    result = run(observer=trace)
    record_run(MetricsRegistry(), "whirlpool_s", "min_alive", "served", result, trace)
    return result


def obs_overhead_payload(query: str = "Q2", k: int = 15, rounds: int = 5) -> Dict:
    """The observability overhead: walls, guard cost, and the bound."""
    configurations: Dict[str, RunOnce] = {
        "no_observer": lambda run: run(),
        "trace_and_metrics": trace_and_metrics,
    }
    return {
        "query": query,
        "k": k,
        "rounds": rounds,
        **guard_overhead(get_engine(query), k, rounds, configurations, hook_site_count),
    }
