"""Drivers of the artifacts that have no function in :mod:`repro.bench`.

The extension studies (baselines, ablations, the paper's future work) and
the disabled-cost bounds of the fault, checkpoint and observer hooks.
Each driver returns the payload ``bench_results/<name>.json`` holds;
``test_paper_artifacts.py`` names the table and the claims over it.
"""

import json
import random
import time

from repro.bench.experiments import run_whirlpool_m_sim, run_whirlpool_s, static_orders
from repro.bench.latency import LatencyIndex
from repro.bench.makespan import CostModel, simulate
from repro.bench.motivating import sweep
from repro.bench.obs_overhead import guard_overhead
from repro.bench.params import QUERIES
from repro.bench.step_codec import counted
from repro.bench.workloads import get_engine
from repro.biblio import BiblioConfig, generate_catalogs, reference_query
from repro.core import (
    Engine,
    NoRandomAccess,
    RewritingEngine,
    ThresholdAlgorithm,
    WhirlpoolM,
    WhirlpoolS,
    build_predicate_lists,
    make_router,
)
from repro.faults import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.recovery import CheckpointPolicy
from repro.scoring.quality import RankingEvaluation
from repro.xmark.generator import generate_database, generate_for_size
from repro.xmark.schema import XMarkConfig

K = 15


def _scores(result):
    return [round(answer.score, 9) for answer in result.answers]


def fig3_motivating():
    """Figure 3's series: per plan id, (currentTopK, join operations) points."""
    return {str(plan): points for plan, points in sweep().items()}


# ---------------------------------------------------------------------------
# Section 3 baselines
# ---------------------------------------------------------------------------


def fagin_baseline():
    """TA/NRA over Def. 4.4 predicate lists vs Whirlpool (1M-scale, k=15)."""
    rows = {}
    for query_label in ("Q1", "Q2", "Q3"):
        engine = get_engine(query_label, "1M")
        start = time.perf_counter()
        lists = build_predicate_lists(engine.pattern, engine.index, engine.statistics)
        build_seconds = time.perf_counter() - start
        ta = ThresholdAlgorithm(lists, K).run()
        nra = NoRandomAccess(lists, K).run()
        whirlpool = engine.run(K, algorithm="whirlpool_s")
        # TA/NRA only rank roots with positive aggregate score (roots
        # absent from every list are never seen); compare against the
        # positive prefix of the brute-force Def. 4.4 ranking.
        oracle_scores = [round(s, 9) for _n, s in engine.tfidf_ranking() if s > 0][:K]
        rows[query_label] = {
            "list_entries": sum(len(entries) for entries in lists),
            "build_seconds": build_seconds,
            "ta_sorted": ta.sorted_accesses,
            "ta_random": ta.random_accesses,
            "nra_sorted": nra.sorted_accesses,
            "whirlpool_ops": whirlpool.stats.server_operations,
            "ta_matches_oracle": [round(s, 9) for s in ta.scores()] == oracle_scores,
            "nra_matches_oracle": [round(s, 9) for s in nra.scores()] == oracle_scores,
        }
    return rows


def rewriting_baseline():
    """Whirlpool-S (one outer-join plan) vs one exact evaluation per
    relaxed query; Q3's closure is too large by design."""
    rows = {}
    for query_label in ("Q1", "Q2"):
        engine = get_engine(query_label, "1M")
        whirlpool = engine.run(K, algorithm="whirlpool_s")
        rewriting_engine = RewritingEngine(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=K,
            max_queries=300,
        )
        rewriting = rewriting_engine.run()
        rows[query_label] = {
            "whirlpool_comparisons": whirlpool.stats.join_comparisons,
            "whirlpool_wall": whirlpool.stats.wall_time_seconds,
            "rewriting_comparisons": rewriting.stats.join_comparisons,
            "rewriting_wall": rewriting.stats.wall_time_seconds,
            "queries_evaluated": rewriting_engine.queries_evaluated,
            "answers_agree": _scores(rewriting) == _scores(whirlpool),
        }
    return rows


# ---------------------------------------------------------------------------
# Ablations and validation the paper skips or defers
# ---------------------------------------------------------------------------


def join_algorithms():
    """The paper's nested-loop scan vs the Dewey-interval index probe (Q2)."""
    rows = {}
    for doc in ("1M", "10M"):
        engine = get_engine("Q2", doc)
        index_run = engine.run(K, join_algorithm="index")
        scan_run = engine.run(K, join_algorithm="scan")
        rows[doc] = {
            "index_comparisons": index_run.stats.join_comparisons,
            "scan_comparisons": scan_run.stats.join_comparisons,
            "index_ops": index_run.stats.server_operations,
            "scan_ops": scan_run.stats.server_operations,
            "answers_agree": _scores(index_run) == _scores(scan_run),
        }
    return rows


#: Seller mixes, from schema-conforming ("nested") only to none of it.
MIXES = {
    "homogeneous": {"nested": 1.0},
    "mild": {"nested": 1.0, "flat": 0.5, "deep": 0.5},
    "diverse": {"nested": 1.0, "flat": 1.0, "deep": 1.0, "reviews": 1.0},
    "hostile": {"flat": 1.0, "deep": 1.0, "reviews": 1.0, "minimal": 1.0},
}


def catalogs(mix):
    return generate_catalogs(BiblioConfig(books_per_seller=40, seed=5, seller_mix=MIXES[mix]))


def heterogeneity():
    """Exact vs relaxed top-10 of the reference query over each seller mix."""
    rows = {}
    for label in MIXES:
        db = catalogs(label)
        relaxed = Engine(db, reference_query()).run(10)
        exact_only = Engine(db, reference_query(), relaxed=False).run(10)
        rows[label] = {
            "books": len(db.nodes_with_tag("book")),
            "exact_answers": len(exact_only.answers),
            "relaxed_answers": len(relaxed.answers),
            "ops": relaxed.stats.server_operations,
            "created": relaxed.stats.partial_matches_created,
            "pruned": relaxed.stats.partial_matches_pruned,
            "top_score": relaxed.answers[0].score if relaxed.answers else 0.0,
        }
    return rows


QUALITY_K = 20
QUALITY_SEED = 23


def scoring_quality():
    """Precision/recall of the tf*idf ranking on ground-truth-marked books
    (the reference record every seller schema renders), against exact-only
    evaluation and a random ordering."""
    database = generate_catalogs(
        BiblioConfig(books_per_seller=40, seed=QUALITY_SEED, reference_fraction=0.12)
    )
    relevant = {
        book.dewey
        for book in database.nodes_with_tag("book")
        if any(c.tag == "@ref" for c in book.children)
    }
    relaxed = Engine(database, reference_query()).run(QUALITY_K)
    exact = Engine(database, reference_query(), relaxed=False).run(QUALITY_K)
    rng = random.Random(QUALITY_SEED)
    universe = [book.dewey for book in database.nodes_with_tag("book")]
    rng.shuffle(universe)

    def evaluate(ranking):
        return RankingEvaluation(ranking, relevant, QUALITY_K).as_dict()

    return {
        "relevant_count": len(relevant),
        "books": len(universe),
        "tfidf": evaluate([a.root_node.dewey for a in relaxed.answers]),
        "exact_only": evaluate([a.root_node.dewey for a in exact.answers]),
        "random": evaluate(universe[:QUALITY_K]),
    }


def seed_robustness():
    """The headline claims on freshly generated ~150 Kb documents, per seed."""
    rows = {}
    for seed in (101, 202, 303):
        engine = Engine(generate_for_size(150_000, seed=seed), QUERIES["Q2"])
        min_alive = run_whirlpool_s(engine, K, routing="min_alive")
        max_score = run_whirlpool_s(engine, K, routing="max_score")
        simulated = run_whirlpool_m_sim(engine, K)
        static_ops = sorted(
            run_whirlpool_s(engine, K, routing="static", order=order).stats.server_operations
            for order in static_orders(sorted(engine.server_node_ids()), budget=8)
        )
        rows[str(seed)] = {
            "min_alive_ops": min_alive.stats.server_operations,
            "max_score_ops": max_score.stats.server_operations,
            "ws_time": min_alive.stats.server_operations * 0.0018,
            "wm_time": simulated.makespan,
            "best_static_ops": static_ops[0],
            "median_static_ops": static_ops[len(static_ops) // 2],
        }
    return rows


# ---------------------------------------------------------------------------
# Real threads under injected storage latency
# ---------------------------------------------------------------------------

PROBE_LATENCY = 0.002  # 2 ms per index probe ~ a fast disk seek


def _timed(engine, engine_cls, routing):
    slow_index = LatencyIndex(engine.index, probe_latency=PROBE_LATENCY)
    runner = engine_cls(
        pattern=engine.pattern,
        index=slow_index,
        score_model=engine.score_model,
        k=10,
        router=make_router(routing),
        # The Engine's bound table: the probes are left to the run's servers.
        root_bounds=engine.root_bounds,
    )
    start = time.perf_counter()
    result = runner.run()
    return {
        "wall": time.perf_counter() - start,
        "probes": slow_index.probe_count,
        "ops": result.stats.server_operations,
        "scores": _scores(result),
    }


def threaded_wallclock():
    """Whirlpool-S vs threaded Whirlpool-M with every index probe sleeping.

    ``sequential``/``threaded`` are the ``min_alive`` pair, ``min_score``
    the other.  Every run is handed the Engine's bound table, so its
    router sizes servers from the table's counts and only server
    operations probe the slow index — under threads, concurrently.
    """
    engine = Engine(generate_database(XMarkConfig(items=60, seed=5)), QUERIES["Q2"])
    return {
        "probe_latency": PROBE_LATENCY,
        "sequential": _timed(engine, WhirlpoolS, "min_alive"),
        "threaded": _timed(engine, WhirlpoolM, "min_alive"),
        "min_score": {
            "sequential": _timed(engine, WhirlpoolS, "min_score"),
            "threaded": _timed(engine, WhirlpoolM, "min_score"),
        },
    }


# ---------------------------------------------------------------------------
# The paper's Section 7 future work, implemented
# ---------------------------------------------------------------------------


def future_threads_per_server():
    """Simulated makespan (Q2, unbounded processors) per threads/server."""
    engine = get_engine("Q2")
    makespans = {}
    for threads in (1, 2, 4, 8):
        run = engine.open(K, "whirlpool_m")
        run.threads_per_server = threads
        makespans[str(threads)] = simulate(run, n_processors=None, cost_model=CostModel()).makespan
    return makespans


def future_bulk_adaptivity():
    """Plain min_alive routing vs the batching ("in bulk") router."""
    engine = get_engine("Q2")
    plain = engine.run(K, routing="min_alive")
    # Opened through the Engine like the plain run, so both share its warm
    # probe memos and the walls compare routing, not cold probes.
    run = engine.open(K, routing="min_alive", routing_batch=8)
    batched = run.run()
    return {
        "plain_ops": plain.stats.server_operations,
        "batched_ops": batched.stats.server_operations,
        "cache_hits": run.router.cache_hits,
        "cache_misses": run.router.cache_misses,
        "plain_wall": plain.stats.wall_time_seconds,
        "batched_wall": batched.stats.wall_time_seconds,
        "answers_agree": _scores(batched) == _scores(plain),
    }


def future_estimated_routing():
    """Size-based routing on exact probe counts vs path-summary estimates."""
    engine = get_engine("Q2")
    exact = engine.run(K, routing="min_alive")
    estimated = engine.run(K, routing="min_alive_estimated")
    return {
        "exact_ops": exact.stats.server_operations,
        "estimated_ops": estimated.stats.server_operations,
        "noprun_ops": engine.run(K, algorithm="lockstep_noprun").stats.server_operations,
        "exact_wall": exact.stats.wall_time_seconds,
        "estimated_wall": estimated.stats.wall_time_seconds,
        "answers_agree": _scores(estimated) == _scores(exact),
    }


# ---------------------------------------------------------------------------
# Disabled-cost bounds of the robustness hooks
# ---------------------------------------------------------------------------

ROUNDS = 5

#: Armed injector whose single rule watches a server id that does not
#: exist: every hook site consults the injector, no fault ever fires.
INERT_PLAN = FaultPlan(
    [FaultRule(FaultSite.SERVER_OP, FaultAction.ERROR, target=999_999, nth=1)]
)
CHAOS_PLAN = FaultPlan.chaos(3)


#: The None tests of the injector a run makes once: two arming it, at most
#: four building its result, and the pop that finds the queue empty.
RUN_GUARDS = 7


def fault_hook_sites(open_run, baseline):
    """Fault-hook guard executions of one run: the hook calls the same run
    makes with :data:`INERT_PLAN` armed at every site but the put, one per
    put batch, plus :data:`RUN_GUARDS`.

    The inert plan fires nothing, so the armed run takes the disabled
    run's path.  A server operation, a queue get and a routing decision
    each test the guard once and, armed, call their hook once; the
    injector counts those calls per site.  A put tests it once per batch
    (``EngineBase.put_or_abandon``), counted on the run itself.
    """
    batches = [0]
    run = open_run(faults=INERT_PLAN)
    with counted(run, "put_or_abandon", batches):
        assert run.run().failure is None, "the inert plan fired"
    calls = run.fault_injector.summary()["site_counts"]
    hooked = sum(count for key, count in calls.items() if not key.startswith("queue_put:"))
    return hooked + batches[0] + RUN_GUARDS


def fault_overhead():
    """Hooks disabled (``faults=None``) vs an armed-but-inert plan vs chaos."""
    database = generate_database(XMarkConfig(items=60, seed=5))
    configurations = {
        "disabled": lambda run: run(),
        "inert_plan": lambda run: run(faults=INERT_PLAN),
        "chaos_plan": lambda run: run(faults=CHAOS_PLAN),
    }
    return {
        "query": QUERIES["Q2"],
        "k": 10,
        "rounds": ROUNDS,
        **guard_overhead(
            Engine(database, QUERIES["Q2"]), 10, ROUNDS, configurations, fault_hook_sites
        ),
    }


#: The None tests one ``EngineBase.watches_budget`` call makes: the
#: operation budget, the deadline and the checkpoint policy.
WATCH_GUARDS = 3


def checkpoint_guard_sites(open_run, baseline):
    """Checkpoint-guard executions of one run: the ``watches_budget`` calls
    the same run makes, :data:`WATCH_GUARDS` each, plus its
    ``maybe_checkpoint`` calls, counted on the run itself.

    A single-threaded run reads ``watches_budget()`` once per ``run()``
    call and, with no budget and no policy, never calls
    ``maybe_checkpoint``; what its loop still tests per pass is a local
    flag the operation budget needs as much as the policy does.
    """
    watches, checks = [0], [0]
    run = open_run()
    with counted(run, "watches_budget", watches), counted(run, "maybe_checkpoint", checks):
        run.run()
    return WATCH_GUARDS * watches[0] + checks[0]


def _snapshot_profile(engine):
    """Snapshot size and restore latency per k."""
    rows = []
    for k in (5, 10, 15, 25):
        snapshots = []
        engine.run(
            k,
            algorithm="whirlpool_s",
            max_operations=40,
            checkpoint_policy=CheckpointPolicy(every_operations=8),
            checkpoint_sink=snapshots.append,
        )
        if not snapshots:
            continue
        snapshot = snapshots[-1]
        start = time.perf_counter()
        result = engine.run(k, algorithm="whirlpool_s", restore_from=snapshot)
        restore_wall = time.perf_counter() - start
        rows.append(
            {
                "k": k,
                "snapshot_bytes": len(json.dumps(snapshot, separators=(",", ":"))),
                "queued_matches": sum(len(entries) for entries in snapshot["queues"].values()),
                "restore_to_answer_s": restore_wall,
                "answers": len(result.answers),
            }
        )
    return rows


def checkpoint_overhead():
    """No checkpoint policy vs every-8-operations, and the snapshot profile."""
    engine = get_engine("Q2")
    configurations = {
        "no_policy": lambda run: run(),
        "every_8_operations": lambda run: run(
            checkpoint_policy=CheckpointPolicy(every_operations=8)
        ),
    }
    payload = {
        "query": "Q2",
        "k": K,
        "rounds": ROUNDS,
        **guard_overhead(engine, K, ROUNDS, configurations, checkpoint_guard_sites),
        "snapshots": _snapshot_profile(engine),
    }
    payload["guard_sites"] = payload.pop("hook_sites")  # the key checkpoint_overhead.json has
    return payload
