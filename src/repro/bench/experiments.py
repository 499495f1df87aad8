"""Experiment drivers — one function per paper figure/table.

Each driver returns a plain-dict payload with the series the paper plots;
the table of artifacts under ``benchmarks/`` renders them as tables and
persists them via :func:`repro.bench.reporting.write_results`.  All
drivers are deterministic given the seed (Whirlpool-M always runs through
the discrete-event simulator here; the threaded engine is exercised by
tests and examples).

Conventions:

- "time" means *modeled* execution time: operations × the paper's default
  1.8 ms join cost for sequential engines, simulated makespan for
  Whirlpool-M (same per-operation cost plus a thread-overhead term).
- static sweeps subsample the permutation space to ``REPRO_BENCH_PERMS``
  orders (default 24; paper value 120 = set it that high) chosen by even
  stride over the lexicographic enumeration, always including the identity
  and reversed orders.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.makespan import CostModel, simulate
from repro.bench.params import DEFAULTS, QUERIES
from repro.bench.workloads import get_engine
from repro.core.engine import Engine
from repro.core.queues import QueuePolicy
from repro.core.whirlpool_m import WhirlpoolM

#: Per-operation thread-scheduling overhead charged to Whirlpool-M in the
#: simulator (the paper's "threading overhead" that penalizes small
#: queries / low parallelism).
THREAD_OVERHEAD = 0.0004

DEFAULT_COST = CostModel.DEFAULT_OPERATION_COST


def _perm_budget() -> int:
    return int(os.environ.get("REPRO_BENCH_PERMS", "24"))


def static_orders(server_ids: Sequence[int], budget: Optional[int] = None) -> List[Tuple[int, ...]]:
    """A deterministic sample of server-order permutations.

    Includes identity and reversed orders; fills the remaining budget by
    even stride over the lexicographic enumeration.  ``budget >= n!``
    returns all permutations (the paper's 120 for Q2).
    """
    budget = budget if budget is not None else _perm_budget()
    all_perms = list(itertools.permutations(server_ids))
    if budget >= len(all_perms):
        return all_perms
    picked = {all_perms[0], all_perms[-1]}
    stride = max(len(all_perms) // budget, 1)
    index = 0
    while len(picked) < budget and index < len(all_perms):
        picked.add(all_perms[index])
        index += stride
    return sorted(picked)


# ---------------------------------------------------------------------------
# Runner helpers
# ---------------------------------------------------------------------------


def run_whirlpool_s(
    engine: Engine,
    k: int,
    routing: str = "min_alive",
    order: Optional[Sequence[int]] = None,
):
    """One Whirlpool-S run; returns its TopKResult."""
    return engine.run(k, algorithm="whirlpool_s", routing=routing, static_order=order)


def run_whirlpool_m_sim(
    engine: Engine,
    k: int,
    routing: str = "min_alive",
    order: Optional[Sequence[int]] = None,
    n_processors: Optional[int] = 2,
    operation_cost: float = DEFAULT_COST,
    thread_overhead: float = THREAD_OVERHEAD,
    queue_policy: QueuePolicy = QueuePolicy.MAX_FINAL_SCORE,
):
    """One simulated Whirlpool-M run; returns its SimulationResult."""
    run = engine.open(
        k,
        "whirlpool_m",
        routing=routing,
        static_order=order,
        queue_policy=queue_policy,
    )
    return simulate(
        run,
        n_processors=n_processors,
        cost_model=CostModel(operation_cost=operation_cost + thread_overhead),
    )


def run_lockstep(
    engine: Engine,
    k: int,
    order: Optional[Sequence[int]] = None,
    prune: bool = True,
    queue_policy: QueuePolicy = QueuePolicy.MAX_FINAL_SCORE,
):
    """One LockStep / LockStep-NoPrun run; returns its TopKResult."""
    return engine.run(
        k,
        algorithm="lockstep" if prune else "lockstep_noprun",
        static_order=order,
        queue_policy=queue_policy,
    )


def modeled_time(result, operation_cost: float = DEFAULT_COST) -> float:
    """Sequential modeled time for a TopKResult."""
    return result.stats.server_operations * operation_cost


def _summary(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "median": ordered[len(ordered) // 2],
        "max": ordered[-1],
    }


# ---------------------------------------------------------------------------
# Figure 5 — adaptive routing strategies
# ---------------------------------------------------------------------------


def fig5_routing_strategies(
    query: str = None, doc: str = None, k: int = None
) -> Dict:
    """Query time for Whirlpool-S and Whirlpool-M under the three adaptive
    routing strategies (max_score, min_score, min_alive_partial_matches)."""
    query = query or DEFAULTS["query"]
    doc = doc or DEFAULTS["doc"]
    k = k or DEFAULTS["k"]
    engine = get_engine(query, doc)
    routings = ("max_score", "min_score", "min_alive")
    payload = {"query": query, "doc": doc, "k": k, "series": {}}
    for routing in routings:
        ws = run_whirlpool_s(engine, k, routing=routing)
        wm = run_whirlpool_m_sim(engine, k, routing=routing)
        payload["series"][routing] = {
            "whirlpool_s_time": modeled_time(ws),
            "whirlpool_s_ops": ws.stats.server_operations,
            "whirlpool_m_time": wm.makespan,
            "whirlpool_m_ops": wm.result.stats.server_operations,
        }
    return payload


# ---------------------------------------------------------------------------
# Figures 6 & 7 — adaptive vs static routing (time and server operations)
# ---------------------------------------------------------------------------


def fig6_7_adaptive_vs_static(
    query: str = None, doc: str = None, k: int = None
) -> Dict:
    """Static min/median/max + adaptive, for all four algorithms.

    One payload feeds both Figure 6 (times) and Figure 7 (operations).
    """
    query = query or DEFAULTS["query"]
    doc = doc or DEFAULTS["doc"]
    k = k or DEFAULTS["k"]
    engine = get_engine(query, doc)
    server_ids = sorted(engine.server_node_ids())
    orders = static_orders(server_ids)

    payload: Dict = {
        "query": query,
        "doc": doc,
        "k": k,
        "orders_swept": len(orders),
        "algorithms": {},
    }

    def record(name: str, static_times, static_ops, adaptive_time=None, adaptive_ops=None):
        entry = {
            "static_time": _summary(static_times),
            "static_ops": _summary(static_ops),
        }
        if adaptive_time is not None:
            entry["adaptive_time"] = adaptive_time
            entry["adaptive_ops"] = adaptive_ops
        payload["algorithms"][name] = entry

    # LockStep-NoPrun / LockStep: static by nature.
    for name, prune in (("lockstep_noprun", False), ("lockstep", True)):
        times, ops = [], []
        for order in orders:
            result = run_lockstep(engine, k, order=order, prune=prune)
            times.append(modeled_time(result))
            ops.append(result.stats.server_operations)
        record(name, times, ops)

    # Whirlpool-S: static sweep + adaptive.
    times, ops = [], []
    for order in orders:
        result = run_whirlpool_s(engine, k, routing="static", order=order)
        times.append(modeled_time(result))
        ops.append(result.stats.server_operations)
    adaptive = run_whirlpool_s(engine, k)
    record(
        "whirlpool_s",
        times,
        ops,
        adaptive_time=modeled_time(adaptive),
        adaptive_ops=adaptive.stats.server_operations,
    )

    # Whirlpool-M (simulated, default 2 processors): static sweep + adaptive.
    times, ops = [], []
    for order in orders:
        sim = run_whirlpool_m_sim(engine, k, routing="static", order=order)
        times.append(sim.makespan)
        ops.append(sim.result.stats.server_operations)
    adaptive_sim = run_whirlpool_m_sim(engine, k)
    record(
        "whirlpool_m",
        times,
        ops,
        adaptive_time=adaptive_sim.makespan,
        adaptive_ops=adaptive_sim.result.stats.server_operations,
    )
    return payload


# ---------------------------------------------------------------------------
# Figure 8 — cost of adaptivity
# ---------------------------------------------------------------------------


def fig8_adaptivity_cost(
    query: str = None,
    doc: str = None,
    k: int = None,
    operation_costs: Sequence[float] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
) -> Dict:
    """Execution-time ratio over the best LockStep-NoPrun as the
    per-operation cost varies.

    Time(c) = measured wall-clock of the run (which includes the real
    Python cost of adaptivity — the min_alive estimates) + operations × c,
    mirroring the paper's experiment of scaling the join-operation cost.
    """
    query = query or DEFAULTS["query"]
    doc = doc or DEFAULTS["doc"]
    k = k or DEFAULTS["k"]
    engine = get_engine(query, doc)
    server_ids = sorted(engine.server_node_ids())
    orders = static_orders(server_ids)

    def best_static(runner) -> Tuple[float, int]:
        """(wall seconds, ops) of the best (fewest-ops) static order."""
        best = None
        for order in orders:
            result = runner(order)
            key = (result.stats.server_operations, result.stats.wall_time_seconds)
            if best is None or key < best[0]:
                best = (key, result)
        result = best[1]
        return result.stats.wall_time_seconds, result.stats.server_operations

    adaptive = run_whirlpool_s(engine, k)
    candidates = {
        "whirlpool_s_adaptive": (
            adaptive.stats.wall_time_seconds,
            adaptive.stats.server_operations,
        ),
        "whirlpool_s_static": best_static(
            lambda order: run_whirlpool_s(engine, k, routing="static", order=order)
        ),
        "lockstep": best_static(
            lambda order: run_lockstep(engine, k, order=order, prune=True)
        ),
        "lockstep_noprun": best_static(
            lambda order: run_lockstep(engine, k, order=order, prune=False)
        ),
    }

    payload = {
        "query": query,
        "doc": doc,
        "k": k,
        "operation_costs": list(operation_costs),
        "wall_and_ops": {name: list(value) for name, value in candidates.items()},
        "ratios": {},
    }
    for cost in operation_costs:
        base_wall, base_ops = candidates["lockstep_noprun"]
        base_time = base_wall + base_ops * cost
        payload["ratios"][cost] = {
            name: (wall + ops * cost) / base_time
            for name, (wall, ops) in candidates.items()
        }
    return payload


# ---------------------------------------------------------------------------
# Figure 9 — effect of parallelism
# ---------------------------------------------------------------------------


def fig9_parallelism(
    doc: str = None,
    k: int = None,
    processors: Sequence[Optional[int]] = (1, 2, 4, None),
) -> Dict:
    """Whirlpool-M / Whirlpool-S execution-time ratio per processor count.

    Whirlpool-M pays :data:`THREAD_OVERHEAD` per operation (threading
    cost); Whirlpool-S is sequential at the plain operation cost, so with
    one processor Whirlpool-M loses, and gains appear as processors do.
    """
    doc = doc or DEFAULTS["doc"]
    k = k or DEFAULTS["k"]
    payload: Dict = {"doc": doc, "k": k, "ratios": {}}
    for query in QUERIES:
        engine = get_engine(query, doc)
        ws = run_whirlpool_s(engine, k)
        ws_time = modeled_time(ws)
        ratios = {}
        for n_processors in processors:
            sim = run_whirlpool_m_sim(engine, k, n_processors=n_processors)
            label = "inf" if n_processors is None else str(n_processors)
            ratios[label] = sim.makespan / ws_time if ws_time > 0 else 0.0
        payload["ratios"][query] = ratios
    return payload


# ---------------------------------------------------------------------------
# Figure 10 — varying k; Figure 11 — varying document size
# ---------------------------------------------------------------------------


def fig10_vary_k(
    doc: str = None, k_values: Sequence[int] = (3, 15, 75)
) -> Dict:
    """Execution time per query per k, for Whirlpool-S and Whirlpool-M."""
    doc = doc or DEFAULTS["doc"]
    payload: Dict = {"doc": doc, "series": {}}
    for query in QUERIES:
        engine = get_engine(query, doc)
        per_k = {}
        for k in k_values:
            ws = run_whirlpool_s(engine, k)
            wm = run_whirlpool_m_sim(engine, k)
            per_k[k] = {
                "whirlpool_s_time": modeled_time(ws),
                "whirlpool_m_time": wm.makespan,
                "whirlpool_s_ops": ws.stats.server_operations,
                "whirlpool_m_ops": wm.result.stats.server_operations,
            }
        payload["series"][query] = per_k
    return payload


def fig10_backend_speedup(
    doc: str = None, k_values: Sequence[int] = (3, 15, 75)
) -> Dict:
    """Index-backend comparison on the fig10 workload (ROADMAP item 2).

    Runs the fig10 query/k matrix once per index backend over the same
    document and reports, per query: the *deterministic* probe cost in
    modeled boxed component comparisons (see
    :class:`repro.xmldb.index.ProbeCost` — identical probe sequences, so
    the ratio isolates the encoding) and the wall seconds of the sweep
    (machine-noisy; the engines' own machinery dominates at bench scale,
    so the wall numbers mostly bound the regression risk rather than show
    the win).  Answers are bit-identical across backends — the
    differential tests assert that; this driver only measures cost.
    """
    import time as _time

    from repro.bench.workloads import get_database
    from repro.xmldb.index import INDEX_BACKENDS

    doc = doc or DEFAULTS["doc"]
    database = get_database(doc)
    payload: Dict = {"doc": doc, "k_values": list(k_values), "series": {}}
    totals: Dict[str, int] = {}
    for query in QUERIES:
        per_backend: Dict[str, Dict] = {}
        for backend in INDEX_BACKENDS:
            engine = Engine(database, QUERIES[query], index_backend=backend)
            engine.index.reset_probe_cost()
            started = _time.perf_counter()
            for k in k_values:
                run_whirlpool_s(engine, k)
                # Runs from Engine.open probe nothing (the Engine's memos
                # are warm): the probes counted are a cold run's, built
                # with private memos.
                cold = WhirlpoolM(engine.pattern, engine.index, engine.score_model, k)
                simulate(cold, cost_model=CostModel(DEFAULT_COST + THREAD_OVERHEAD))
            wall = _time.perf_counter() - started
            units, probes = engine.index.probe_cost()
            per_backend[backend] = {
                "probe_units": units,
                "probes": probes,
                "wall_s": wall,
            }
            totals[backend] = totals.get(backend, 0) + units
        payload["series"][query] = per_backend
    payload["total_units"] = dict(totals)
    payload["speedup_units"] = (
        totals["object"] / totals["columnar"] if totals.get("columnar") else 0.0
    )
    return payload


def fig11_vary_docsize(
    k: int = None, docs: Sequence[str] = ("1M", "10M", "50M")
) -> Dict:
    """Execution time per query per document size (k fixed at the default)."""
    k = k or DEFAULTS["k"]
    payload: Dict = {"k": k, "series": {}}
    for query in QUERIES:
        per_doc = {}
        for doc in docs:
            engine = get_engine(query, doc)
            ws = run_whirlpool_s(engine, k)
            wm = run_whirlpool_m_sim(engine, k)
            per_doc[doc] = {
                "whirlpool_s_time": modeled_time(ws),
                "whirlpool_m_time": wm.makespan,
            }
        payload["series"][query] = per_doc
    return payload


# ---------------------------------------------------------------------------
# Table 2 — scalability (fraction of partial matches created)
# ---------------------------------------------------------------------------


def table2_scalability(
    k: int = None, docs: Sequence[str] = ("1M", "10M", "50M")
) -> Dict:
    """Partial matches created by Whirlpool-M as a percentage of the
    maximum possible (= what LockStep-NoPrun creates)."""
    k = k or DEFAULTS["k"]
    payload: Dict = {"k": k, "percentages": {}}
    for query in QUERIES:
        row = {}
        for doc in docs:
            engine = get_engine(query, doc)
            wm = run_whirlpool_m_sim(engine, k)
            noprun = run_lockstep(engine, k, prune=False)
            total = noprun.stats.partial_matches_created
            created = wm.result.stats.partial_matches_created
            row[doc] = 100.0 * created / total if total else 0.0
        payload["percentages"][query] = row
    return payload


# ---------------------------------------------------------------------------
# Ablations — queue policies (Section 6.1.3) and scoring functions (6.3.5)
# ---------------------------------------------------------------------------


def queue_policy_ablation(query: str = None, doc: str = None, k: int = None) -> Dict:
    """Operations/time per queue policy, LockStep and simulated Whirlpool-M
    (the paper: max-final-score beat all other queues everywhere)."""
    query = query or DEFAULTS["query"]
    doc = doc or DEFAULTS["doc"]
    k = k or DEFAULTS["k"]
    engine = get_engine(query, doc)
    payload: Dict = {"query": query, "doc": doc, "k": k, "series": {}}
    for policy in QueuePolicy:
        lockstep = run_lockstep(engine, k, queue_policy=policy)
        wm = run_whirlpool_m_sim(engine, k, queue_policy=policy)
        payload["series"][policy.value] = {
            "lockstep_ops": lockstep.stats.server_operations,
            "lockstep_time": modeled_time(lockstep),
            "whirlpool_m_ops": wm.result.stats.server_operations,
            "whirlpool_m_time": wm.makespan,
        }
    return payload


def scoring_function_ablation(query: str = None, doc: str = None, k: int = None) -> Dict:
    """Sparse vs dense scoring: pruning effectiveness and times."""
    query = query or DEFAULTS["query"]
    doc = doc or DEFAULTS["doc"]
    k = k or DEFAULTS["k"]
    payload: Dict = {"query": query, "doc": doc, "k": k, "series": {}}
    for normalization in ("sparse", "dense"):
        engine = get_engine(query, doc, normalization=normalization)
        ws = run_whirlpool_s(engine, k)
        wm = run_whirlpool_m_sim(engine, k)
        payload["series"][normalization] = {
            "whirlpool_s_time": modeled_time(ws),
            "whirlpool_s_created": ws.stats.partial_matches_created,
            "whirlpool_s_pruned": ws.stats.partial_matches_pruned,
            "whirlpool_m_time": wm.makespan,
            "whirlpool_m_created": wm.result.stats.partial_matches_created,
        }
    return payload
