"""Disabled-guard overhead: the measurement behind every "near-zero cost
when disabled" claim.

The observer hooks, the fault-injection hooks and the checkpoint guard
all cost the same two instructions per site when switched off::

    observer = self.observer
    if observer is not None: ...

:func:`guard_overhead` micro-times that guard, multiplies it by the
caller's deliberately over-counted number of site executions in a
representative run, and divides by the run's wall time — a deterministic
*upper bound* on the disabled overhead.  Median end-to-end walls of the
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
    site_count: Callable[[Any], int],
) -> Dict:
    """Median wall per configuration, the guard cost, and the bound.

    ``site_count`` maps the baseline run's stats to its over-counted
    number of guard executions.
    """
    results: Dict[str, Any] = {}
    walls: Dict[str, float] = {}
    for name, configuration in configurations.items():
        results[name], walls[name] = median_wall(engine, k, rounds, configuration)
    baseline = next(iter(configurations))
    guard_cost = time_disabled_guard()
    sites = site_count(results[baseline].stats)
    return {
        "walls": walls,
        "guard_cost_ns": guard_cost * 1e9,
        "hook_sites": sites,
        "overhead_bound": (sites * guard_cost) / walls[baseline],
    }


def hook_site_count(stats) -> int:
    """Over-count of observer-hook guard executions in one run.

    One ``on_seed``/``on_extension`` per partial match created, one
    ``on_route`` plus one potential ``on_prune`` per routing decision,
    and an ``on_queue_depth`` guard for every match that could have
    crossed a queue (every routed match and every generated extension —
    an overestimate, since pruned extensions never reach a queue).
    """
    crossings = stats.routing_decisions + stats.extensions_generated
    return (
        stats.partial_matches_created
        + 2 * stats.routing_decisions
        + stats.partial_matches_pruned
        + crossings
    )


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
