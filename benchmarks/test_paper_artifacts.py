"""The paper's evaluation as one table of artifacts, its claims as tests.

Each :class:`Artifact` reproduces one figure, table or extension study:
``name`` is the ``bench_results/<name>.json`` stem its payload is written
to, ``driver`` computes that payload (a :mod:`repro.bench.experiments`
function, or one in ``drivers.py``), ``headers`` and ``rows`` render its
markdown table, and ``claims`` are its named *shape* claims (who wins,
where crossovers fall), each a test of its own::

    pytest benchmarks/                   # every artifact and claim
    pytest benchmarks/ -k fig10 -s       # one figure, its table printed

A session computes each payload once, writes its JSON, and rewrites
``bench_results/tables.md`` with the tables computed so far.  Scale and
sweep size come from ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_PERMS`` (see
:mod:`repro.bench`).
"""

import functools
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import pytest

import drivers
from repro.bench import experiments
from repro.bench.motivating import PLANS, best_plans, join_operations
from repro.bench.obs_overhead import obs_overhead_payload
from repro.bench.reporting import format_table, write_results, write_tables
from repro.bench.workloads import get_engine
from repro.biblio import reference_query
from repro.core import Engine, QueuePolicy

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

K_VALUES = (3, 15, 75)
DOCS = ("1M", "10M", "50M")
PROCESSORS = ("1", "2", "4", "inf")
WS_WM = ("whirlpool_s", "whirlpool_m")

Rows = Callable[[Dict], List[Sequence]]


class Artifact(NamedTuple):
    name: str
    driver: Callable[[], Dict]
    title: str  # formatted with the payload
    headers: Sequence[str]
    rows: Rows
    claims: Dict[str, Callable[[Dict], bool]]


def _rows(*keys: str, series: Optional[str] = None) -> Rows:
    """One row per labelled entry of ``payload[series]`` (or of the
    payload itself): the label, then the entry's value under each key."""

    def rows(payload):
        entries = payload if series is None else payload[series]
        return [[label] + [entry[key] for key in keys] for label, entry in entries.items()]

    return rows


def _overhead_rows(labels: Dict[str, str]) -> Rows:
    """Configuration, median wall, and wall over the first (disabled) one."""
    baseline = next(iter(labels))

    def rows(payload):
        walls = payload["walls"]
        return [
            [label, walls[key], "-" if key == baseline else walls[key] / walls[baseline]]
            for key, label in labels.items()
        ]

    return rows


def _checkpoint_rows(payload):
    overhead = _overhead_rows(
        {"no_policy": "no policy (disabled)", "every_8_operations": "every 8 operations"}
    )
    return overhead(payload) + [
        [
            f"restore -> answer, k={row['k']} "
            f"({row['snapshot_bytes']} B, {row['queued_matches']} queued)",
            row["restore_to_answer_s"],
            "-",
        ]
        for row in payload["snapshots"]
    ]


_GUARD_BOUND = (
    "disabled guard {guard_cost_ns:.1f} ns/site x {%s} sites = {overhead_bound:.3%%} of run"
)


# -- claims that need more than a one-line expression ------------------------


def _no_plan_dominates(series):
    """For every plan some other plan is strictly better at some threshold."""
    return all(
        any(
            series[other][i][1] < series[plan][i][1]
            for i in range(len(series[plan]))
            for other in series
            if other != plan
        )
        for plan in series
    )


def _exact_matches_outrank_relaxed(_payload):
    """Within one (diverse) database, structurally exact answers score at
    least as high as relaxation-dependent ones.  (Scores are NOT comparable
    across databases: idf is database-relative, so rare structure scores
    *higher* in hostile mixes — correct tf*idf behaviour.)"""
    result = Engine(drivers.catalogs("diverse"), reference_query()).run(10)
    exact = [a.score for a in result.answers if a.match.exact_everywhere()]
    relaxed = [a.score for a in result.answers if not a.match.exact_everywhere()]
    return bool(exact) and (not relaxed or min(exact) >= max(relaxed) - 1e-9)


def _every_queue_policy_same_answers(_payload):
    engine = get_engine()
    answer_sets = {
        tuple(sorted(round(a.score, 9) for a in result.answers))
        for result in (
            experiments.run_lockstep(engine, 15, queue_policy=policy) for policy in QueuePolicy
        )
    }
    return len(answer_sets) == 1


def _priciest(payload):
    """Figure 8's ratios at the most expensive operation cost swept."""
    return payload["ratios"][max(payload["operation_costs"])]


def _scan_penalty(entry):
    return entry["scan_comparisons"] / max(entry["index_comparisons"], 1)


ARTIFACTS = (
    Artifact(
        "fig3_motivating",
        drivers.fig3_motivating,
        "Figure 3 — join operations vs currentTopK",
        ("currentTopK",) + tuple(f"Plan {plan}" for plan in PLANS),
        lambda p: [
            [f"{threshold:.2f}"] + [p[str(plan)][i][1] for plan in PLANS]
            for i, (threshold, _ops) in enumerate(p["1"])
        ],
        {
            "plan6_best_below_0_6": lambda p: best_plans(0.0) == [6] and best_plans(0.5) == [6],
            "plan5_best_at_0_65": lambda p: 5 in best_plans(0.65) and 6 not in best_plans(0.65),
            "location_first_worst_at_0": lambda p: join_operations(PLANS[3], 0.0)
            == max(join_operations(order, 0.0) for order in PLANS.values()),
            "location_first_beat_plan6_at_0_75": lambda p: all(
                join_operations(PLANS[plan], 0.75) < join_operations(PLANS[6], 0.75)
                for plan in (3, 4)
            ),
            "no_plan_dominates": _no_plan_dominates,
        },
    ),
    Artifact(
        "fig5_routing",
        experiments.fig5_routing_strategies,
        "Figure 5 — routing strategies ({query}, {doc}, k={k})",
        ("routing", "W-S ops", "W-S time", "W-M ops", "W-M time"),
        _rows(
            "whirlpool_s_ops", "whirlpool_s_time", "whirlpool_m_ops", "whirlpool_m_time",
            series="series",
        ),
        {
            "min_alive_fewest_ws_ops": lambda p: p["series"]["min_alive"]["whirlpool_s_ops"]
            <= p["series"]["min_score"]["whirlpool_s_ops"]
            and p["series"]["min_alive"]["whirlpool_s_ops"]
            < p["series"]["max_score"]["whirlpool_s_ops"],
            "min_alive_beats_max_score_wm_time": lambda p: p["series"]["min_alive"][
                "whirlpool_m_time"
            ]
            < p["series"]["max_score"]["whirlpool_m_time"],
            "min_score_beats_max_score_ws_ops": lambda p: p["series"]["min_score"][
                "whirlpool_s_ops"
            ]
            < p["series"]["max_score"]["whirlpool_s_ops"],
        },
    ),
    Artifact(
        "fig6_adaptive_vs_static",
        experiments.fig6_7_adaptive_vs_static,
        "Figure 6 — execution time, static (max/median/min) vs adaptive "
        "({query}, {doc}, k={k}, {orders_swept} orders)",
        ("algorithm", "max(STATIC)", "median(STATIC)", "min(STATIC)", "ADAPTIVE"),
        lambda p: [
            [name]
            + [entry["static_time"][stat] for stat in ("max", "median", "min")]
            + [entry.get("adaptive_time", "-")]
            for name, entry in p["algorithms"].items()
        ],
        {
            "noprun_worst": lambda p: p["algorithms"]["lockstep_noprun"]["static_time"]["min"]
            >= p["algorithms"]["lockstep"]["static_time"]["min"],
            "ws_static_beats_lockstep": lambda p: p["algorithms"]["whirlpool_s"]["static_time"][
                "median"
            ]
            <= p["algorithms"]["lockstep"]["static_time"]["median"],
            # Tolerance: the sweep subsamples permutations.
            "adaptive_within_10pct_of_best_static": lambda p: all(
                p["algorithms"][name]["adaptive_time"]
                <= p["algorithms"][name]["static_time"]["min"] * 1.10
                for name in WS_WM
            ),
            "wm_faster_than_ws": lambda p: p["algorithms"]["whirlpool_m"]["adaptive_time"]
            < p["algorithms"]["whirlpool_s"]["adaptive_time"],
        },
    ),
    Artifact(
        "fig7_server_ops",
        experiments.fig6_7_adaptive_vs_static,
        "Figure 7 — server operations, static (max/median/min) vs adaptive "
        "({query}, {doc}, k={k})",
        ("algorithm", "max(STATIC)", "median(STATIC)", "min(STATIC)", "ADAPTIVE"),
        lambda p: [
            [name]
            + [entry["static_ops"][stat] for stat in ("max", "median", "min")]
            + [entry.get("adaptive_ops", "-")]
            for name, entry in p["algorithms"].items()
            if name != "lockstep_noprun"  # the paper's Figure 7 shows LockStep, W-S, W-M
        ],
        {
            "pruning_under_noprun_ceiling": lambda p: all(
                p["algorithms"][name]["static_ops"]["min"]
                <= p["algorithms"]["lockstep_noprun"]["static_ops"]["min"]
                for name in ("lockstep",) + WS_WM
            ),
            "adaptive_ws_within_10pct_of_best_static": lambda p: p["algorithms"]["whirlpool_s"][
                "adaptive_ops"
            ]
            <= p["algorithms"]["whirlpool_s"]["static_ops"]["min"] * 1.10,
            "static_ops_ordered": lambda p: all(
                e["static_ops"]["min"] <= e["static_ops"]["median"] <= e["static_ops"]["max"]
                for e in p["algorithms"].values()
            ),
        },
    ),
    Artifact(
        "fig8_adaptivity_cost",
        experiments.fig8_adaptivity_cost,
        "Figure 8 — time ratio over best LockStep-NoPrun ({query}, {doc}, k={k})",
        ("technique", "c=1e-05", "c=0.0001", "c=0.001", "c=0.01", "c=0.1", "c=1"),
        lambda p: [
            [name] + [p["ratios"][cost][name] for cost in p["operation_costs"]]
            for name in p["wall_and_ops"]
        ],
        {
            # At high operation cost the engines order by operation count:
            # adaptive <= static Whirlpool-S <= LockStep < LockStep-NoPrun (=1).
            "adaptive_ws_best_at_expensive_ops": lambda p: _priciest(p)["whirlpool_s_adaptive"]
            <= _priciest(p)["whirlpool_s_static"] * 1.05,
            "ws_static_beats_noprun_at_expensive_ops": lambda p: _priciest(p)[
                "whirlpool_s_static"
            ]
            < _priciest(p)["lockstep_noprun"],
            "lockstep_beats_noprun_at_expensive_ops": lambda p: _priciest(p)["lockstep"]
            < _priciest(p)["lockstep_noprun"],
            # With nearly free operations time is the measured Python
            # overhead, where adaptive routing does extra estimate work.
            "walls_measured_at_cheap_ops": lambda p: p["ratios"][min(p["operation_costs"])][
                "whirlpool_s_adaptive"
            ]
            >= 0.0
            and p["wall_and_ops"]["whirlpool_s_adaptive"][0] > 0.0
            and p["wall_and_ops"]["whirlpool_s_static"][0] > 0.0,
        },
    ),
    Artifact(
        "fig9_parallelism",
        experiments.fig9_parallelism,
        "Figure 9 — Whirlpool-M time / Whirlpool-S time (doc={doc}, k={k})",
        ("query",) + tuple(f"{label} proc" for label in PROCESSORS),
        _rows(*PROCESSORS, series="ratios"),
        {
            "wm_loses_at_1_processor": lambda p: all(r["1"] > 1.0 for r in p["ratios"].values()),
            "wm_wins_at_2_processors": lambda p: all(r["2"] < 1.0 for r in p["ratios"].values()),
            # Two to four processors always help.  Past four the modeled
            # schedule interleaves differently and can do more operations:
            # with per-root bounds Q2 at unlimited processors does 293
            # against 260 at four and reads 0.3477 against 0.3426 — the
            # paper's saturation, held within 5 %, not a further gain.
            "more_processors_help_until_saturation": lambda p: all(
                r["2"] >= r["4"] - 1e-9 and r["inf"] <= r["4"] * 1.05
                for r in p["ratios"].values()
            ),
            # Q1 has 2 servers: 4 or unlimited processors change nothing.
            "q1_saturates_at_4_processors": lambda p: abs(
                p["ratios"]["Q1"]["4"] - p["ratios"]["Q1"]["inf"]
            )
            < 1e-9,
            "q3_gains_at_least_q1_beyond_2": lambda p: p["ratios"]["Q3"]["2"]
            - p["ratios"]["Q3"]["inf"]
            >= p["ratios"]["Q1"]["2"] - p["ratios"]["Q1"]["inf"] - 1e-9,
        },
    ),
    Artifact(
        "fig10_vary_k",
        experiments.fig10_vary_k,
        "Figure 10 — execution time vs k (doc={doc})",
        ("query", "k", "W-S time", "W-M time", "W-S ops", "W-M ops"),
        lambda p: [
            [query, k, e["whirlpool_s_time"], e["whirlpool_m_time"]]
            + [e["whirlpool_s_ops"], e["whirlpool_m_ops"]]
            for query, per_k in p["series"].items()
            for k, e in per_k.items()
        ],
        {
            # Strictly: fewer matches can be closed as ties against a
            # lower k-th score.
            "work_and_time_grow_with_k": lambda p: all(
                per_k[3][metric] < per_k[15][metric] < per_k[75][metric]
                for per_k in p["series"].values()
                for metric in ("whirlpool_s_ops", "whirlpool_s_time")
            ),
            "time_grows_with_query_size": lambda p: p["series"]["Q1"][15]["whirlpool_s_time"]
            <= p["series"]["Q2"][15]["whirlpool_s_time"]
            <= p["series"]["Q3"][15]["whirlpool_s_time"],
            # Section 6.3.5: the adaptive router reacts to the faster-growing
            # parallel threshold, so W-M can do fewer operations than W-S.
            "wm_can_do_fewer_ops": lambda p: any(
                e["whirlpool_m_ops"] < e["whirlpool_s_ops"]
                for per_k in p["series"].values()
                for e in per_k.values()
            ),
            "wm_faster_for_q2_q3_at_every_k": lambda p: all(
                p["series"][query][k]["whirlpool_m_time"]
                < p["series"][query][k]["whirlpool_s_time"]
                for query in ("Q2", "Q3")
                for k in K_VALUES
            ),
        },
    ),
    Artifact(
        "fig11_vary_docsize",
        experiments.fig11_vary_docsize,
        "Figure 11 — execution time vs document size (k={k})",
        ("query", "doc", "W-S time", "W-M time"),
        lambda p: [
            [query, doc, per_doc[doc]["whirlpool_s_time"], per_doc[doc]["whirlpool_m_time"]]
            for query, per_doc in p["series"].items()
            for doc in DOCS
        ],
        {
            "time_grows_with_doc_size": lambda p: all(
                per_doc["1M"]["whirlpool_s_time"]
                < per_doc["10M"]["whirlpool_s_time"]
                < per_doc["50M"]["whirlpool_s_time"]
                for per_doc in p["series"].values()
            ),
            "wm_wins_at_50M_for_q2_q3": lambda p: all(
                p["series"][query]["50M"]["whirlpool_m_time"]
                < p["series"][query]["50M"]["whirlpool_s_time"]
                for query in ("Q2", "Q3")
            ),
        },
    ),
    Artifact(
        "table2_scalability",
        experiments.table2_scalability,
        "Table 2 — partial matches created by Whirlpool-M as % of max (k={k})",
        ("query",) + DOCS,
        _rows(*DOCS, series="percentages"),
        {
            "percentages_in_range": lambda p: all(
                0.0 < row[doc] <= 100.0 + 1e-9 for row in p["percentages"].values() for doc in DOCS
            ),
            "larger_queries_prune_more_at_50M": lambda p: all(
                p["percentages"][query]["50M"] < p["percentages"]["Q1"]["50M"]
                for query in ("Q2", "Q3")
            ),
            # Pruning saves Q1 operations, not tuples: its root spawns no
            # combinational blow-up.
            "q1_near_full_at_1M": lambda p: p["percentages"]["Q1"]["1M"] > 60.0,
            # Q3's fraction shrinks (or has saturated at a low plateau).
            "q3_never_grows_materially": lambda p: p["percentages"]["Q3"]["50M"]
            <= max(p["percentages"]["Q3"]["1M"], 12.0) * 1.10,
        },
    ),
    Artifact(
        "queues_ablation",
        experiments.queue_policy_ablation,
        "Queue-policy ablation ({query}, {doc}, k={k})",
        ("policy", "LS ops", "LS time", "W-M ops", "W-M time"),
        _rows(
            "lockstep_ops", "lockstep_time", "whirlpool_m_ops", "whirlpool_m_time",
            series="series",
        ),
        {
            # Section 6.1.3, where the queue alone orders the work: LockStep
            # sweeps each server's queue whole.  Whirlpool-M's max-final
            # queue breaks bound ties by arrival and now trails (EXPERIMENTS.md).
            "max_final_best_for_lockstep": lambda p: all(
                p["series"][QueuePolicy.MAX_FINAL_SCORE.value][metric] <= e[metric]
                for e in p["series"].values()
                for metric in ("lockstep_ops", "lockstep_time")
            ),
            "every_policy_same_answers": _every_queue_policy_same_answers,
        },
    ),
    Artifact(
        "scoring_ablation",
        experiments.scoring_function_ablation,
        "Scoring-function ablation ({query}, {doc}, k={k})",
        ("scoring", "W-S time", "W-S created", "W-S pruned", "W-M time", "W-M created"),
        _rows(
            "whirlpool_s_time", "whirlpool_s_created", "whirlpool_s_pruned",
            "whirlpool_m_time", "whirlpool_m_created",
            series="series",
        ),
        {
            # Section 6.3.5: sparse scoring prunes faster; dense widens the
            # W-M-vs-W-S gap.  Whirlpool-M's side of the first no longer
            # holds here (EXPERIMENTS.md).
            "sparse_ws_creates_fewer_and_prunes_more": lambda p: (
                p["series"]["sparse"]["whirlpool_s_created"]
                < p["series"]["dense"]["whirlpool_s_created"]
                and p["series"]["sparse"]["whirlpool_s_pruned"]
                > p["series"]["dense"]["whirlpool_s_pruned"]
            ),
            "dense_widens_the_wm_ws_gap": lambda p: (
                p["series"]["dense"]["whirlpool_s_time"] - p["series"]["dense"]["whirlpool_m_time"]
                > p["series"]["sparse"]["whirlpool_s_time"]
                - p["series"]["sparse"]["whirlpool_m_time"]
            ),
        },
    ),
    Artifact(
        "fagin_baseline",
        drivers.fagin_baseline,
        "Fagin baselines over Def. 4.4 lists (1M-scale, k=15)",
        ("query", "list entries", "build s", "TA sorted", "TA random", "NRA sorted", "W ops"),
        _rows(
            "list_entries", "build_seconds", "ta_sorted", "ta_random", "nra_sorted",
            "whirlpool_ops",
        ),
        {
            "ta_nra_match_oracle": lambda p: all(
                e["ta_matches_oracle"] and e["nra_matches_oracle"] for e in p.values()
            ),
            "ta_stops_before_scanning_lists": lambda p: all(
                e["ta_sorted"] <= e["list_entries"] for e in p.values()
            ),
        },
    ),
    Artifact(
        "rewriting_baseline",
        drivers.rewriting_baseline,
        "Rewriting baseline vs Whirlpool (1M-scale, k=15)",
        ("query", "#relaxed queries", "W cmp", "RW cmp", "W wall s", "RW wall s"),
        _rows(
            "queries_evaluated", "whirlpool_comparisons", "rewriting_comparisons",
            "whirlpool_wall", "rewriting_wall",
        ),
        {
            "same_answers": lambda p: all(e["answers_agree"] for e in p.values()),
            "many_relaxed_queries": lambda p: all(e["queries_evaluated"] >= 10 for e in p.values()),
            "more_join_work": lambda p: all(
                e["rewriting_comparisons"] > e["whirlpool_comparisons"] for e in p.values()
            ),
        },
    ),
    Artifact(
        "join_algorithms",
        drivers.join_algorithms,
        "Join-algorithm ablation (Q2, k=15) — comparisons paid",
        ("doc", "index cmp", "scan cmp", "scan/index", "index ops", "scan ops"),
        lambda p: [
            [doc, e["index_comparisons"], e["scan_comparisons"], _scan_penalty(e)]
            + [e["index_ops"], e["scan_ops"]]
            for doc, e in p.items()
        ],
        {
            "same_answers": lambda p: all(e["answers_agree"] for e in p.values()),
            # Identical routing/pruning decisions -> identical operations.
            "same_operations": lambda p: all(e["index_ops"] == e["scan_ops"] for e in p.values()),
            "index_touches_fewer_nodes": lambda p: all(
                e["index_comparisons"] < e["scan_comparisons"] for e in p.values()
            ),
            # The scan pays the whole tag population per operation: its
            # penalty grows (or holds) with the document.
            "scan_penalty_grows_with_doc": lambda p: _scan_penalty(p["10M"])
            >= _scan_penalty(p["1M"]) * 0.8,
        },
    ),
    Artifact(
        "heterogeneity",
        drivers.heterogeneity,
        "Heterogeneity ablation — reference query over seller mixes (k=10)",
        ("mix", "books", "exact", "relaxed", "ops", "pruned", "top score"),
        _rows("books", "exact_answers", "relaxed_answers", "ops", "pruned", "top_score"),
        {
            "exact_collapses_without_conforming_sellers": lambda p: p["hostile"]["exact_answers"]
            == 0
            < p["homogeneous"]["exact_answers"]
            and p["homogeneous"]["exact_answers"]
            >= p["diverse"]["exact_answers"]
            >= p["hostile"]["exact_answers"],
            "relaxed_keeps_full_answer_set": lambda p: all(
                e["relaxed_answers"] == 10 for e in p.values()
            ),
            "exact_matches_outrank_relaxed": _exact_matches_outrank_relaxed,
        },
    ),
    Artifact(
        "scoring_quality",
        drivers.scoring_quality,
        "Scoring validation — {relevant_count} relevant of {books} books, k=20",
        ("ranking", "P@20", "R@20", "MAP", "nDCG@20", "MRR"),
        lambda p: [
            [name] + [p[name][metric] for metric in ("precision", "recall", "map", "ndcg", "mrr")]
            for name in ("tfidf", "exact_only", "random")
        ],
        {
            "tfidf_precision_beats_random": lambda p: p["tfidf"]["precision"]
            >= p["random"]["precision"] * 1.5
            or p["tfidf"]["precision"] > 0.6,
            "tfidf_ranks_beat_random": lambda p: p["tfidf"]["map"] > p["random"]["map"]
            and p["tfidf"]["ndcg"] > p["random"]["ndcg"]
            and p["tfidf"]["mrr"] >= p["random"]["mrr"],
            "relevant_answer_at_rank_1": lambda p: p["tfidf"]["mrr"] == pytest.approx(1.0),
            # Exact evaluation misses relevant books in non-conforming schemas.
            "relaxation_recovers_recall": lambda p: p["tfidf"]["recall"]
            > p["exact_only"]["recall"],
        },
    ),
    Artifact(
        "seed_robustness",
        drivers.seed_robustness,
        "Seed robustness (Q2-shaped, ~150 Kb docs, k=15)",
        ("seed", "min_alive ops", "max_score ops", "best static", "median static")
        + ("W-S time", "W-M time"),
        _rows(
            "min_alive_ops", "max_score_ops", "best_static_ops", "median_static_ops",
            "ws_time", "wm_time",
        ),
        {
            "min_alive_no_more_ops_than_max_score": lambda p: all(
                e["min_alive_ops"] <= e["max_score_ops"] for e in p.values()
            ),
            "wm_beats_ws": lambda p: all(e["wm_time"] < e["ws_time"] for e in p.values()),
            "adaptive_no_worse_than_median_static": lambda p: all(
                e["min_alive_ops"] <= e["median_static_ops"] for e in p.values()
            ),
            "adaptive_within_20pct_of_best_static": lambda p: all(
                e["min_alive_ops"] <= e["best_static_ops"] * 1.20 for e in p.values()
            ),
        },
    ),
    Artifact(
        "threaded_wallclock",
        drivers.threaded_wallclock,
        "Real threads under 2 ms/probe injected latency (Q2-shaped query, k=10)",
        ("routing", "engine", "wall s", "probes", "ops"),
        lambda p: [
            [routing, engine, e["wall"], e["probes"], e["ops"]]
            for routing, pair in (("min_alive", p), ("min_score", p["min_score"]))
            for engine, e in zip(WS_WM, (pair["sequential"], pair["threaded"]))
        ],
        {
            "same_scores": lambda p: p["threaded"]["scores"] == p["sequential"]["scores"]
            and p["min_score"]["threaded"]["scores"] == p["min_score"]["sequential"]["scores"],
            # Both routers size servers from the Engine's bound table, so
            # every probe is a server's, and the threads overlap them.
            "threads_overlap_probe_waits": lambda p: all(
                pair["threaded"]["wall"] < pair["sequential"]["wall"]
                for pair in (p, p["min_score"])
            ),
        },
    ),
    Artifact(
        "future_threads_per_server",
        drivers.future_threads_per_server,
        "Future work — threads per server (Q2, inf processors, k=15)",
        ("threads/server", "makespan"),
        lambda p: [list(item) for item in p.items()],
        {"more_threads_shrink_bottleneck": lambda p: p["8"] < p["1"] and p["2"] <= p["1"] + 1e-9},
    ),
    Artifact(
        "future_bulk_adaptivity",
        drivers.future_bulk_adaptivity,
        "Future work — bulk adaptivity (Q2, k=15)",
        ("router", "ops", "cache hit share", "wall s"),
        lambda p: [
            ["plain", p["plain_ops"], "-", p["plain_wall"]],
            [
                "batched",
                p["batched_ops"],
                p["cache_hits"] / (p["cache_hits"] + p["cache_misses"]),
                p["batched_wall"],
            ],
        ],
        {
            "most_decisions_from_cache": lambda p: p["cache_hits"] > p["cache_misses"],
            "same_answers": lambda p: p["answers_agree"],
            # Batching trades decision quality slightly.
            "work_comparable": lambda p: p["batched_ops"] <= p["plain_ops"] * 1.5,
        },
    ),
    Artifact(
        "future_estimated_routing",
        drivers.future_estimated_routing,
        "Future work — estimated vs exact size-based routing (Q2, k=15)",
        ("estimates", "ops", "wall s"),
        lambda p: [
            ["exact counts", p["exact_ops"], p["exact_wall"]],
            ["path-summary estimates", p["estimated_ops"], p["estimated_wall"]],
        ],
        {
            "same_answers": lambda p: p["answers_agree"],
            "under_noprun_ceiling": lambda p: p["estimated_ops"] <= p["noprun_ops"],
        },
    ),
    # Every site over-counted, the disabled guards stay under their bound.
    Artifact(
        "obs_overhead",
        obs_overhead_payload,
        "Observer-hook overhead ({query}, k={k}, median of {rounds}); "
        + _GUARD_BOUND % "hook_sites",
        ("configuration", "wall s", "x disabled"),
        _overhead_rows(
            {
                "no_observer": "no observer (disabled)",
                "trace_and_metrics": "trace, then record_run fold",
            }
        ),
        {"disabled_bound_under_2pct": lambda p: p["overhead_bound"] < 0.02},
    ),
    Artifact(
        "fault_overhead",
        drivers.fault_overhead,
        "Fault-hook overhead (Q2, 60-item document, k={k}, median of {rounds}); "
        + _GUARD_BOUND % "hook_sites",
        ("configuration", "wall s", "x disabled"),
        _overhead_rows(
            {
                "disabled": "hooks disabled (faults=None)",
                "inert_plan": "armed, inert plan",
                "chaos_plan": "armed, chaos plan (seed 3)",
            }
        ),
        {"disabled_bound_under_2pct": lambda p: p["overhead_bound"] < 0.02},
    ),
    Artifact(
        "checkpoint_overhead",
        drivers.checkpoint_overhead,
        "Checkpoint overhead ({query}, k={k}, median of {rounds}); "
        + _GUARD_BOUND % "guard_sites",
        ("run", "wall s", "x disabled"),
        _checkpoint_rows,
        {"disabled_bound_under_3pct": lambda p: p["overhead_bound"] < 0.03},
    ),
)

BY_NAME = {artifact.name: artifact for artifact in ARTIFACTS}

#: Tables EXPERIMENTS.md quotes verbatim: operation counts and modeled
#: times only, never wall.
QUOTED = (
    "fig3_motivating",
    "fig5_routing",
    "fig6_adaptive_vs_static",
    "fig9_parallelism",
    "table2_scalability",
)

_tables: Dict[str, Tuple[str, str]] = {}


@functools.lru_cache(maxsize=None)
def _drive(driver):
    return driver()


@functools.lru_cache(maxsize=None)
def payload(name: str) -> Dict:
    """Compute one artifact (once per session), persist it, render it."""
    artifact = BY_NAME[name]
    result = _drive(artifact.driver)
    write_results(name, result)
    title = artifact.title.format_map(result)
    table = format_table(artifact.headers, artifact.rows(result))
    print(f"\n## {title}\n\n{table}")
    _tables[name] = (title, table)
    write_tables([_tables[a.name] for a in ARTIFACTS if a.name in _tables])
    return result


@pytest.mark.parametrize(
    "name, claim",
    [pytest.param(a.name, claim, id=f"{a.name}-{claim}") for a in ARTIFACTS for claim in a.claims],
)
def test_claim(name, claim):
    assert BY_NAME[name].claims[claim](payload(name))


def test_experiments_md_quotes_fresh_tables():
    for name in QUOTED:
        payload(name)
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    stale = [name for name in QUOTED if _tables[name][1] not in text]
    assert not stale, f"EXPERIMENTS.md quotes stale {stale}; paste from bench_results/tables.md"
