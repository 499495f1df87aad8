"""Command-line interface: query documents, generate data, drive the demos.

Installed as ``python -m repro``::

    python -m repro query books.xml "/book[.//title = 'wodehouse']" -k 5
    python -m repro query auction.xml "//item[./name]" --exact --stats
    python -m repro explain "//item[./description/parlist]"
    python -m repro generate --size 1000000 --seed 7 -o auction.xml
    python -m repro metrics --requests 40 --format prom
    python -m repro recover --store ./recovery --populate 8
    python -m repro sim explore --budget 40
    python -m repro sim replay --corpus tests/fixtures/sim
    python -m repro sim walltime --seeds 6 --json

Every subcommand is a thin shell over the library API; anything the CLI
prints can be obtained programmatically from :mod:`repro`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.engine import ALGORITHMS, Engine
from repro.core.threshold import threshold_query
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Whirlpool: adaptive top-k queries over XML (ICDE 2005).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser(
        "query", help="run a top-k (or threshold) query against an XML file"
    )
    query.add_argument("file", help="path to the XML document")
    query.add_argument("xpath", help="tree-pattern query in the XPath subset")
    query.add_argument("-k", type=int, default=10, help="answers to return")
    query.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="whirlpool_s",
        help="evaluation algorithm",
    )
    query.add_argument(
        "--routing",
        default="min_alive",
        help="routing strategy (min_alive, min_alive_estimated, "
        "max_score, min_score)",
    )
    query.add_argument(
        "--exact", action="store_true", help="exact matches only (no relaxation)"
    )
    query.add_argument(
        "--normalization",
        choices=("sparse", "dense", "raw"),
        default="sparse",
        help="score normalization (Section 6.2.2)",
    )
    query.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="return ALL answers scoring at least this value instead of top-k",
    )
    query.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry return the best-known top-k "
        "marked degraded with its pending-score certificate",
    )
    query.add_argument(
        "--max-ops",
        type=int,
        default=None,
        metavar="N",
        help="server-operation budget (same degradation contract as "
        "--deadline)",
    )
    query.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a deterministic random fault plan (testing harness; "
        "see docs/robustness.md)",
    )
    query.add_argument(
        "--stats", action="store_true", help="print execution statistics"
    )
    query.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="show per-answer relaxation provenance",
    )

    explain = commands.add_parser(
        "explain", help="show a query's pattern, predicates and plan"
    )
    explain.add_argument("xpath", help="tree-pattern query in the XPath subset")
    explain.add_argument(
        "--relaxations",
        action="store_true",
        help="also enumerate the (capped) relaxation closure",
    )

    generate = commands.add_parser(
        "generate", help="generate an XMark-like auction document"
    )
    size = generate.add_mutually_exclusive_group()
    size.add_argument("--items", type=int, default=None, help="number of items")
    size.add_argument(
        "--size", type=int, default=None, help="approximate size in bytes"
    )
    generate.add_argument("--seed", type=int, default=42, help="generator seed")
    generate.add_argument(
        "-o", "--output", default=None, help="output file (default: stdout)"
    )

    serve = commands.add_parser(
        "serve-demo",
        help="run a seeded burst workload through the embedded query service",
    )
    serve.add_argument(
        "--items", type=int, default=60, help="XMark items in the demo document"
    )
    serve.add_argument(
        "--seed", type=int, default=11, help="document + workload seed"
    )
    serve.add_argument(
        "--requests", type=int, default=40, help="burst size to replay"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="service worker-pool size"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8, help="admission-queue capacity"
    )
    serve.add_argument(
        "--overload-policy",
        choices=("reject", "shed-oldest", "shed-lowest-priority", "degrade"),
        default="reject",
        help="what admission does when the queue is full",
    )
    serve.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a deterministic fault plan into every engine run",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="graceful-drain budget after the burst",
    )
    serve.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    cluster = commands.add_parser(
        "cluster",
        help="run one top-k query on a sharded multi-process cluster",
    )
    cluster.add_argument("xpath", help="tree-pattern query in the XPath subset")
    cluster.add_argument(
        "--items", type=int, default=120, help="XMark items in the generated document"
    )
    cluster.add_argument("--seed", type=int, default=11, help="document seed")
    cluster.add_argument("-k", type=int, default=5, help="answers to return")
    cluster.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="whirlpool_s",
        help="per-shard engine algorithm",
    )
    cluster.add_argument(
        "--shards", type=int, default=2, help="number of shard worker processes"
    )
    cluster.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="partition skew (0 = balanced; larger piles documents onto "
        "low shards)",
    )
    cluster.add_argument(
        "--partition-seed", type=int, default=0, help="partition shuffle seed"
    )
    cluster.add_argument(
        "--step-ops",
        type=int,
        default=200,
        metavar="N",
        help="server operations per scatter-gather round per shard",
    )
    cluster.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="end-to-end budget; on expiry the merged answer degrades "
        "with a sound global pending bound",
    )
    cluster.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seeded engine-level fault plan injected into every shard",
    )
    cluster.add_argument(
        "--process-chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seeded process-level fault plan (SIGKILL / hang / slow "
        "pipe at shard RPC boundaries; see docs/cluster.md)",
    )
    cluster.add_argument(
        "--net-chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seeded transport-level fault plan (partition / frame "
        "corruption / duplication / reconnect storms; see "
        "docs/robustness.md)",
    )
    cluster.add_argument(
        "--no-rebalance",
        action="store_true",
        help="disable live rebalancing: a persistently slow shard keeps "
        "its slice instead of being migrated via checkpoint shipping",
    )
    cluster.add_argument(
        "--no-failover",
        action="store_true",
        help="disable checkpoint-shipping failover: a lost shard degrades "
        "the answer instead of respawning",
    )
    cluster.add_argument(
        "--compare-single",
        action="store_true",
        help="also rank every root single-process and check the answers are "
        "a top-k of it, or within their certificate when degraded (exit 3 "
        "on mismatch)",
    )
    cluster.add_argument(
        "--stats", action="store_true", help="print merged execution statistics"
    )
    cluster.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    metrics = commands.add_parser(
        "metrics",
        help="replay a seeded workload with observability on and dump metrics",
    )
    metrics.add_argument(
        "--items", type=int, default=60, help="XMark items in the demo document"
    )
    metrics.add_argument(
        "--seed", type=int, default=11, help="document + workload seed"
    )
    metrics.add_argument(
        "--requests", type=int, default=40, help="burst size to replay"
    )
    metrics.add_argument(
        "--workers", type=int, default=2, help="service worker-pool size"
    )
    metrics.add_argument(
        "--slow-query-seconds",
        type=float,
        default=0.25,
        help="latency budget; slower requests land in the slow-query log",
    )
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="Prometheus text exposition or the JSON registry dump",
    )
    metrics.add_argument(
        "--slow-log",
        action="store_true",
        help="also print the captured slow-query entries",
    )
    metrics.add_argument(
        "--cluster-shards",
        type=int,
        default=None,
        metavar="N",
        help="route the workload through an N-shard cluster backend; the "
        "dump then includes per-shard liveness, heartbeat ages and "
        "failover counters",
    )

    recover = commands.add_parser(
        "recover",
        help="re-admit persisted request snapshots from a recovery store",
    )
    recover.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="JSON-file recovery-store directory (see docs/robustness.md)",
    )
    recover.add_argument(
        "--populate",
        type=int,
        default=0,
        metavar="N",
        help="demo mode: first burst N requests into a zero-budget drain "
        "so their snapshots land in the store, then recover them",
    )
    recover.add_argument(
        "--items", type=int, default=60, help="XMark items in the demo document"
    )
    recover.add_argument(
        "--seed", type=int, default=11, help="document + workload seed"
    )
    recover.add_argument(
        "--workers", type=int, default=2, help="service worker-pool size"
    )
    recover.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="graceful-drain budget after recovery",
    )
    recover.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    sim = commands.add_parser(
        "sim",
        help="deterministic simulation: explore fault schedules, replay "
        "the reproducer corpus, measure the virtual-clock speedup",
    )
    sim.add_argument(
        "action",
        choices=("explore", "replay", "walltime"),
        help="explore: randomized+perturbation schedule search (shrinks "
        "any violation to a minimal reproducer); replay: re-run corpus "
        "fixtures and compare verdicts byte-for-byte; walltime: run a "
        "chaos sweep under real and virtual clocks and report the "
        "wall-time reduction",
    )
    sim.add_argument(
        "--budget", type=int, default=40, help="explore: simulated runs to spend"
    )
    sim.add_argument("--seed", type=int, default=0, help="explore: search seed")
    sim.add_argument(
        "--kind",
        choices=("engine", "cluster"),
        default="engine",
        help="explore: scenario kind (cluster adds worker/net faults)",
    )
    sim.add_argument(
        "--shards", type=int, default=2, help="explore: cluster shard count"
    )
    sim.add_argument(
        "--items", type=int, default=40, help="scenario XMark document size"
    )
    sim.add_argument("-k", type=int, default=4, help="scenario top-k size")
    sim.add_argument(
        "--out",
        metavar="DIR",
        help="explore: write shrunk reproducer fixtures into DIR",
    )
    sim.add_argument(
        "--corpus",
        default="tests/fixtures/sim",
        metavar="DIR",
        help="replay: fixture corpus directory",
    )
    sim.add_argument(
        "--seeds", type=int, default=6, help="walltime: chaos seeds to sweep"
    )
    sim.add_argument(
        "--delay",
        type=float,
        default=0.05,
        help="walltime: max injected DELAY per chaos rule (seconds)",
    )
    sim.add_argument(
        "--real-clock",
        action="store_true",
        help="explore/replay: run on the real clock instead of warping",
    )
    sim.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_query(args) -> int:
    from repro.xmldb.parser import parse_document

    with open(args.file) as handle:
        database = parse_document(handle.read())
    engine = Engine(
        database,
        args.xpath,
        relaxed=not args.exact,
        normalization=args.normalization,
    )
    faults = None
    if args.chaos_seed is not None:
        from repro.faults import FaultPlan

        faults = FaultPlan.chaos(args.chaos_seed)
    run_options = dict(
        routing=args.routing,
        deadline_seconds=args.deadline,
        max_operations=args.max_ops,
        faults=faults,
    )
    if args.threshold is None:
        result = engine.run(args.k, algorithm=args.algorithm, **run_options)
    elif args.algorithm == "whirlpool_s":
        result = threshold_query(engine, args.threshold, **run_options)
    else:
        raise ReproError(f"--threshold runs on whirlpool_s, not {args.algorithm}")

    if args.json:
        payload = {
            "answers": [
                {
                    "dewey": ".".join(map(str, answer.root_node.dewey)),
                    "tag": answer.root_node.tag,
                    "score": answer.score,
                    "match": answer.match.describe(),
                }
                for answer in result.answers
            ],
            "stats": result.stats.as_dict(),
            "degraded": result.degraded,
            "pending_bound": result.pending_bound,
            "failure": result.failure.as_dict() if result.failure else None,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(result.table())
    if result.degraded:
        print(
            f"\nwarning: degraded result — unreported answers score "
            f"<= {result.pending_bound:.4f}",
            file=sys.stderr,
        )
    if result.failure is not None:
        print(f"failures: {result.failure.summary()}", file=sys.stderr)
    if args.explain:
        print()
        for answer in result.answers:
            print(answer.explain(engine.pattern))
            print()
    if args.stats:
        print("\nexecution statistics:")
        for key, value in result.stats.as_dict().items():
            print(f"  {key}: {value}")
    return 0


def _cmd_explain(args) -> int:
    from repro.query.predicates import component_predicates
    from repro.query.xpath import parse_xpath
    from repro.relax.enumeration import enumerate_relaxations
    from repro.relax.plan import compile_plan

    pattern = parse_xpath(args.xpath)
    print("pattern:")
    for line in pattern.describe().splitlines():
        print(f"  {line}")

    print("\ncomponent predicates (Definition 4.1):")
    for predicate in component_predicates(pattern):
        relaxable = " (relaxable)" if predicate.is_relaxable() else ""
        print(f"  {predicate.describe()}{relaxable}")

    plan = compile_plan(pattern)
    print(f"\ncompiled plan: {len(plan.servers)} servers")
    for node_id in plan.server_ids():
        server = plan.server(node_id)
        print(
            f"  server {server.tag}#{node_id}: probe={server.probe_axis}, "
            f"{len(server.conditionals)} conditional predicates"
        )

    if args.relaxations:
        closure = enumerate_relaxations(pattern, limit=50)
        print(f"\nrelaxation closure (first {len(closure)} queries):")
        for relaxed in closure[:20]:
            print(f"  {relaxed.to_xpath()}")
        if len(closure) > 20:
            print(f"  ... and {len(closure) - 20} more")
    return 0


def _cmd_generate(args) -> int:
    from repro.xmark.generator import generate_database, generate_for_size
    from repro.xmark.schema import XMarkConfig
    from repro.xmldb.serializer import serialize

    if args.size is not None:
        database = generate_for_size(args.size, seed=args.seed)
    else:
        items = args.items if args.items is not None else 100
        database = generate_database(XMarkConfig(items=items, seed=args.seed))
    text = serialize(database)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(
            f"wrote {len(text.encode('utf-8'))} bytes "
            f"({len(database.nodes_with_tag('item'))} items) to {args.output}",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


#: Query pool the demo workload draws from (all answerable on XMark docs).
_DEMO_QUERIES = (
    "//item[./description/parlist]",
    "//item[./mailbox/mail/text]",
    "//item[./description/parlist and ./mailbox/mail/text]",
    "//item[./name and ./payment]",
)


def _cmd_serve_demo(args) -> int:
    import random

    from repro.faults import FaultPlan
    from repro.service import OverloadPolicy, QueryRequest, WhirlpoolService
    from repro.xmark.generator import generate_database
    from repro.xmark.schema import XMarkConfig

    database = generate_database(XMarkConfig(items=args.items, seed=args.seed))
    service = WhirlpoolService(
        {"auction": database},
        workers=args.workers,
        queue_depth=args.queue_depth,
        overload_policy=OverloadPolicy.parse(args.overload_policy),
        seed=args.seed,
    )

    rng = random.Random(args.seed)
    tickets = []
    for _ in range(args.requests):
        faults = None
        if args.chaos_seed is not None:
            faults = FaultPlan.chaos(args.chaos_seed + rng.randint(0, 1000))
        request = QueryRequest(
            document="auction",
            xpath=rng.choice(_DEMO_QUERIES),
            k=rng.randint(1, 10),
            priority=rng.randint(0, 2),
            deadline_seconds=rng.choice([None, 0.05, 0.25, 1.0]),
            algorithm=rng.choice(["whirlpool_s", "whirlpool_m", "lockstep"]),
            faults=faults,
        )
        tickets.append(service.submit(request))

    drained = service.drain(args.drain_seconds)
    health = service.health()

    outcomes: dict = {}
    unresolved = 0
    for ticket in tickets:
        response = ticket.peek()
        if response is None:
            unresolved += 1
            continue
        outcomes[response.outcome.value] = outcomes.get(response.outcome.value, 0) + 1

    if args.json:
        print(
            json.dumps(
                {
                    "requests": args.requests,
                    "outcomes": dict(sorted(outcomes.items())),
                    "unresolved": unresolved,
                    "drained_within_budget": drained,
                    "health": health,
                },
                indent=2,
            )
        )
    else:
        print(f"replayed {args.requests} requests (seed {args.seed}):")
        for name, count in sorted(outcomes.items()):
            print(f"  {name:10s} {count}")
        if unresolved:
            print(f"  UNRESOLVED {unresolved}")
        print(f"drain within {args.drain_seconds:g}s budget: {drained}")
        print("\nhealth snapshot:")
        for key, value in health.items():
            if key == "breakers":
                assert isinstance(value, dict)
                for name, snap in value.items():
                    assert isinstance(snap, dict)
                    print(
                        f"  breaker {name}: {snap['state']} "
                        f"(trips={snap['trips']}, probes={snap['probes']})"
                    )
            elif key in ("counters", "engine_stats"):
                assert isinstance(value, dict)
                print(f"  {key}:")
                for inner, inner_value in value.items():
                    print(f"    {inner}: {inner_value}")
            else:
                print(f"  {key}: {value}")
    # Every submitted request must carry a terminal outcome; anything
    # unresolved is a service bug, not a workload property.
    return 0 if unresolved == 0 else 2


def _cmd_cluster(args) -> int:
    from repro.cluster import Coordinator
    from repro.faults import FaultPlan
    from repro.xmark.generator import generate_database
    from repro.xmark.schema import XMarkConfig

    database = generate_database(XMarkConfig(items=args.items, seed=args.seed))
    # One plan for all three fault boundaries: each seeded generator
    # contributes the rules of its own sites.
    rules = []
    if args.chaos_seed is not None:
        rules.extend(FaultPlan.chaos(args.chaos_seed).rules)
    if args.process_chaos_seed is not None:
        rules.extend(FaultPlan.worker_chaos(args.process_chaos_seed, args.shards).rules)
    if args.net_chaos_seed is not None:
        rules.extend(FaultPlan.net_chaos(args.net_chaos_seed, args.shards).rules)
    with Coordinator(
        database,
        shards=args.shards,
        skew=args.skew,
        partition_seed=args.partition_seed,
        step_operations=args.step_ops,
        rebalance=not args.no_rebalance,
    ) as coordinator:
        result = coordinator.run_query(
            args.xpath,
            args.k,
            algorithm=args.algorithm,
            deadline_seconds=args.deadline,
            faults=FaultPlan(rules) if rules else None,
            fail_over=not args.no_failover,
        )
        health = coordinator.health()

    # Roots tied at the k-th score are interchangeable, so the sharded
    # answer is judged against a single-process ranking of every root, not
    # root for root against another top-k run.
    mismatch = None
    if args.compare_single:
        from repro.core.topk import certificate_breach, ranked, topk_mismatch

        engine = Engine(database, args.xpath)
        ranking = ranked(engine.run(10**9, algorithm="lockstep_noprun").answers)
        if result.degraded:
            mismatch = certificate_breach(
                ranking, ranked(result.answers), args.k, result.pending_bound
            )
        else:
            mismatch = topk_mismatch(ranking, ranked(result.answers), args.k)

    if args.json:
        payload = {
            "answers": [
                {
                    "dewey": ".".join(map(str, answer.root_node.dewey)),
                    "tag": answer.root_node.tag,
                    "score": answer.score,
                }
                for answer in result.answers
            ],
            "degraded": result.degraded,
            "pending_bound": result.pending_bound,
            "shards": result.shards,
            "missing_shards": list(result.missing_shards),
            "failovers": result.failovers,
            "heartbeat_misses": result.heartbeat_misses,
            "reconnects": result.reconnects,
            "rebalances": result.rebalances,
            "rounds": result.rounds,
            "stats": result.stats.as_dict(),
            "health": health,
        }
        if args.compare_single:
            payload["matches_single_process"] = mismatch is None
        print(json.dumps(payload, indent=2))
    else:
        print(result.table())
        print(
            f"\ncluster: {result.shards} shards, "
            f"{result.rounds} rounds, {result.failovers} failovers, "
            f"{result.heartbeat_misses} heartbeat misses, "
            f"{result.reconnects} reconnects, {result.rebalances} rebalances"
        )
        if result.degraded:
            print(
                f"warning: degraded result — missing shards "
                f"{list(result.missing_shards) or 'none'}, unreported answers "
                f"score <= {result.pending_bound:.4f}",
                file=sys.stderr,
            )
        if args.compare_single:
            verdict = f"MISMATCH ({mismatch})" if mismatch else "same top-k"
            print(f"single-process comparison: {verdict}")
        if args.stats:
            print("\nmerged execution statistics:")
            for key, value in result.stats.as_dict().items():
                print(f"  {key}: {value}")
    return 3 if mismatch else 0


def _cmd_metrics(args) -> int:
    import random

    from repro.obs import Observability
    from repro.service import QueryRequest, WhirlpoolService
    from repro.xmark.generator import generate_database
    from repro.xmark.schema import XMarkConfig

    database = generate_database(XMarkConfig(items=args.items, seed=args.seed))
    obs = Observability(slow_query_seconds=args.slow_query_seconds)
    backend = None
    if args.cluster_shards is not None:
        from repro.cluster.service import ClusterBackend

        backend = ClusterBackend(shards=args.cluster_shards, observability=obs)
    service = WhirlpoolService(
        {"auction": database},
        workers=args.workers,
        seed=args.seed,
        observability=obs,
        backend=backend,
    )

    rng = random.Random(args.seed)
    tickets = [
        service.submit(
            QueryRequest(
                document="auction",
                xpath=rng.choice(_DEMO_QUERIES),
                k=rng.randint(1, 10),
                algorithm=rng.choice(["whirlpool_s", "whirlpool_m", "lockstep"]),
            )
        )
        for _ in range(args.requests)
    ]
    # Capture backend liveness once the requests have run on it, and
    # before drain tears the worker fleet down.
    for ticket in tickets:
        ticket.result(timeout=30.0)
    backend_health = service.health()["backend"]
    service.drain(30.0)

    if args.format == "json":
        payload = {"metrics": obs.registry.as_dict()}
        if backend_health is not None:
            payload["backend"] = backend_health
        if args.slow_log and obs.slow_log is not None:
            payload["slow_queries"] = obs.slow_log.as_dicts()
        print(json.dumps(payload, indent=2))
        return 0

    print(service.metrics_text(), end="")
    if backend_health is not None:
        print("\n# cluster backend health", file=sys.stderr)
        for name, doc in sorted(backend_health.get("documents", {}).items()):
            print(
                f"# {name}: {doc.get('live_shards')}/{doc.get('shards')} shards "
                f"live, {doc.get('failovers')} failovers, "
                f"{doc.get('queries')} queries "
                f"({doc.get('degraded_queries')} degraded)",
                file=sys.stderr,
            )
            for shard_id, row in sorted(doc.get("per_shard", {}).items()):
                age = row.get("last_heartbeat_age_seconds")
                age_text = "never" if age is None else f"{age:.3f}s"
                print(
                    f"#   shard {shard_id}: {row.get('state')}"
                    f"/{row.get('connection')}, "
                    f"last heartbeat {age_text}, "
                    f"failovers={row.get('failovers')}, "
                    f"misses={row.get('heartbeat_misses')}, "
                    f"reconnects={row.get('reconnects')}",
                    file=sys.stderr,
                )
    if args.slow_log and obs.slow_log is not None:
        entries = obs.slow_log.entries()
        print(
            f"\n# slow-query log: {len(entries)} entries "
            f"(budget {args.slow_query_seconds:g}s)",
            file=sys.stderr,
        )
        for entry in entries:
            print(entry.describe(), file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    import random

    from repro.recovery import JsonFileRecoveryStore
    from repro.service import QueryRequest, WhirlpoolService
    from repro.xmark.generator import generate_database
    from repro.xmark.schema import XMarkConfig

    database = generate_database(XMarkConfig(items=args.items, seed=args.seed))
    store = JsonFileRecoveryStore(args.store)

    populated = 0
    if args.populate > 0:
        # Demo "crash": admit a burst, then drain with a zero budget so
        # the queued work is shed — with the store attached each shed
        # request persists its envelope instead of vanishing.
        victim = WhirlpoolService(
            {"auction": database},
            workers=args.workers,
            queue_depth=max(args.populate, 1),
            seed=args.seed,
            recovery_store=store,
            auto_start=False,
        )
        rng = random.Random(args.seed)
        for _ in range(args.populate):
            victim.submit(
                QueryRequest(
                    document="auction",
                    xpath=rng.choice(_DEMO_QUERIES),
                    k=rng.randint(1, 10),
                    algorithm=rng.choice(["whirlpool_s", "whirlpool_m", "lockstep"]),
                )
            )
        victim.drain(budget_seconds=0.0)
        populated = store.count()

    found_before = store.count()
    service = WhirlpoolService(
        {"auction": database},
        workers=args.workers,
        seed=args.seed,
        recovery_store=store,
    )
    summary = service.recover()
    outcomes: dict = {}
    unresolved = 0
    for ticket in summary["tickets"]:
        try:
            response = ticket.result(timeout=args.drain_seconds)
        except ReproError:
            unresolved += 1
            continue
        outcomes[response.outcome.value] = outcomes.get(response.outcome.value, 0) + 1
    service.drain(args.drain_seconds)

    if args.json:
        print(
            json.dumps(
                {
                    "store": args.store,
                    "populated": populated,
                    "snapshots_found": found_before,
                    "recovered": summary["recovered"],
                    "invalid": summary["invalid"],
                    "outcomes": dict(sorted(outcomes.items())),
                    "unresolved": unresolved,
                    "pending_after": store.count(),
                },
                indent=2,
            )
        )
    else:
        if populated:
            print(f"populated {populated} snapshots via zero-budget drain")
        print(
            f"recovery store {args.store}: {found_before} snapshots, "
            f"{summary['recovered']} recovered, {summary['invalid']} invalid"
        )
        for name, count in sorted(outcomes.items()):
            print(f"  {name:10s} {count}")
        if unresolved:
            print(f"  UNRESOLVED {unresolved}")
        print(f"snapshots left in store: {store.count()}")
    return 0 if unresolved == 0 else 2


def _cmd_sim(args) -> int:
    import time as _time
    from pathlib import Path

    from repro.sim.explore import explore
    from repro.sim.harness import SimHarness, SimScenario
    from repro.sim.shrink import replay_fixture, shrink, write_fixture

    if args.action == "explore":
        scenario = SimScenario(
            kind=args.kind,
            k=args.k,
            xmark_items=args.items,
            shards=args.shards,
        )
        harness = SimHarness(scenario, virtual=not args.real_clock)
        violations, stats = explore(
            scenario, budget=args.budget, seed=args.seed, harness=harness
        )
        reproducers = []
        for index, violation in enumerate(violations):
            minimal = shrink(harness, violation.plan)
            run = harness.run(minimal)
            entry = {
                "schedule": minimal.describe(),
                "violated": [v.name for v in run.report.violations()],
            }
            if args.out:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                name = f"violation_{index}"
                entry["fixture"] = str(
                    write_fixture(out_dir / f"{name}.json", scenario, run, name)
                )
            reproducers.append(entry)
        payload = {"stats": stats.as_dict(), "reproducers": reproducers}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"explored {stats.runs} schedules "
                f"({stats.random_runs} random, {stats.perturbed_runs} perturbed) "
                f"in {stats.wall_seconds:.2f}s wall, "
                f"{stats.warped_seconds:.2f}s warped away"
            )
            for entry in reproducers:
                print(f"  violation: {' + '.join(entry['schedule'])}")
        return 1 if violations else 0

    if args.action == "replay":
        corpus = sorted(Path(args.corpus).glob("*.json"))
        if not corpus:
            print(f"error: no fixtures under {args.corpus!r}", file=sys.stderr)
            return 2
        results = []
        for path in corpus:
            replay = replay_fixture(path, virtual=not args.real_clock)
            results.append(
                {
                    "fixture": str(path),
                    "name": replay["name"],
                    "matches": replay["matches"],
                }
            )
        mismatches = [entry for entry in results if not entry["matches"]]
        if args.json:
            print(json.dumps({"replays": results}, indent=2))
        else:
            for entry in results:
                flag = "ok" if entry["matches"] else "MISMATCH"
                print(f"  {entry['name']}: {flag}")
        return 1 if mismatches else 0

    # walltime: the same chaos sweep on both clocks — answers must agree,
    # and the virtual clock must warp the injected delays away.
    from repro.core.engine import Engine
    from repro.faults.plan import FaultPlan
    from repro.sim.clock import RealClock, VirtualClock, use_clock
    from repro.xmark.generator import generate_database
    from repro.xmark.schema import XMarkConfig

    database = generate_database(XMarkConfig(items=args.items, seed=7))
    engine = Engine(
        database, "//item[./description/parlist and ./mailbox/mail/text]"
    )

    def sweep(clock) -> tuple:
        keys = []
        started = _time.monotonic()
        with use_clock(clock):
            for seed in range(args.seeds):
                plan = FaultPlan.chaos(seed, max_delay_seconds=args.delay)
                result = engine.run(args.k, faults=plan)
                keys.append(
                    (
                        result.degraded,
                        tuple(
                            (tuple(a.root_node.dewey), repr(a.score))
                            for a in result.answers
                        ),
                    )
                )
        return _time.monotonic() - started, keys

    real_seconds, real_keys = sweep(RealClock())
    virtual_seconds, virtual_keys = sweep(VirtualClock())
    equivalent = real_keys == virtual_keys
    reduction = real_seconds / virtual_seconds if virtual_seconds > 0 else float("inf")
    payload = {
        "seeds": args.seeds,
        "real_seconds": round(real_seconds, 4),
        "virtual_seconds": round(virtual_seconds, 4),
        "reduction": round(reduction, 2),
        "equivalent": equivalent,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"chaos sweep over {args.seeds} seeds: real {real_seconds:.2f}s, "
            f"virtual {virtual_seconds:.2f}s ({reduction:.1f}x reduction), "
            f"answers {'identical' if equivalent else 'DIVERGED'}"
        )
    return 0 if equivalent else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "explain": _cmd_explain,
        "generate": _cmd_generate,
        "serve-demo": _cmd_serve_demo,
        "cluster": _cmd_cluster,
        "metrics": _cmd_metrics,
        "recover": _cmd_recover,
        "sim": _cmd_sim,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
