"""The five workloads: inputs from the seed, set-up, one round of operations.

Each workload stresses different layers (``perf/README.md`` has the table).
The program only ever receives generated documents, XPath strings and ``k``:
no workload name, seed or benchmark flag crosses into ``src/repro``.
"""

from __future__ import annotations

import collections
import json
import os
import random
import sys
from statistics import median
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Engine, Outcome, QueryRequest, WhirlpoolService
from repro.bench.params import QUERIES
from repro.cluster import Coordinator
from repro.core.base import TopKResult
from repro.obs import Observability
from repro.recovery import CheckpointPolicy
from repro.xmark import generator
from repro.xmark.schema import REGIONS, XMarkConfig
from repro.xmldb import parser, serializer
from repro.xmldb.model import Database, XMLNode

from harness import Op, Unit, measure, wall
from oracle import Ranking, answers_match, full_ranking, ranking_of

K_VALUES = (3, 15, 75)
FIG10_CASES = [(query, k) for query in QUERIES for k in K_VALUES]

#: Seed of the fixed *population* of auction items every document is drawn
#: from.  The cost of a top-k query is chaotic in the population (whether at
#: least k items match perfectly decides if pruning bites: over 12 fully
#: seeded 440-item documents the fig10 operation count had a 13.7 % quartile
#: spread, more than any regression bound), so the population is fixed and
#: ``--seed`` draws everything else: item order, region and document
#: assignment, hence Dewey ids, tie-breaking and the answers.  Of the
#: populations 1..160, 44 is one where k matters (440 items: Q2 takes ~150
#: server operations at k = 3 and 1530 at k = 15 and 75; 260 items: k = 75
#: costs Q2 1496 against 921 and Q3 4283 against 1905) and yet every
#: operation but Q2/k=3 does the same number of server operations whatever
#: the item order, and the median and slowest operations of each round sit
#: inside a class of equals rather than on an edge between two.
POPULATION_SEED = 44

#: Item counts; with the default ``XMarkConfig`` an item serializes to ~1.17 KB.
ITEMS_500KB = 440
ITEMS_300KB = 260
ITEMS_FOREST = 480
FOREST_DOCUMENTS = 8


def build_forest(seed: int, items: int, documents: int = 1) -> Database:
    """``documents`` XMark sites over the fixed population, dealt by ``seed``."""
    site = generator.generate_root(XMarkConfig(items=items, seed=POPULATION_SEED))
    pool: List[XMLNode] = []
    for region in site.children[0].children:
        for item in region.children:
            item.parent = None  # detach; the model has no remove_child
            pool.append(item)
    rng = random.Random(seed)
    rng.shuffle(pool)
    share = items // documents
    roots = []
    for number in range(documents):
        by_region: Dict[str, List[XMLNode]] = {}
        for item in pool[number * share : (number + 1) * share]:
            by_region.setdefault(rng.choice(REGIONS), []).append(item)
        root = XMLNode("site")
        regions = root.child("regions")
        for region_name in REGIONS:
            if region_name in by_region:
                region_node = regions.child(region_name)
                for item in by_region[region_name]:
                    region_node.add_child(item)
        roots.append(root)
    return Database.from_roots(roots)


def timed_op(label: str, call: Callable[[], Any]) -> Op:
    """Run one operation; a raise is a failed operation, not a crashed run."""
    started = wall()
    try:
        result = call()
    except Exception as exc:  # boundary: record, count as failed, keep measuring
        traceback.print_exc(file=sys.stderr)
        result = exc
    return Op(label, wall() - started, result)


def single(label: str, call: Callable[[], Any]) -> Unit:
    return lambda: [timed_op(label, call)]


class Workload:
    """Common shape: ``set_up`` (repeatable), ``units`` (one round),
    ``extract`` / ``failures`` (the correctness gate), ``layer_extras``."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rankings: Dict[str, Ranking] = {}
        #: label -> (query name, k) of every operation in the round.
        self.cases: Dict[str, Tuple[str, int]] = {}
        #: Public counters of every served result, summed (per-layer table).
        self.totals: Dict[str, float] = collections.Counter()
        self.observed = 0

    def set_up(self) -> None:
        """Everything before the first timed operation."""
        raise NotImplementedError

    def tear_down(self) -> None:
        """Release what ``set_up`` started (threads, worker processes)."""

    def reference_database(self) -> Database:
        """The database the oracle ranks (same forest the program sees)."""
        raise NotImplementedError

    def compute_rankings(self) -> None:
        database = self.reference_database()
        for query in sorted({query for query, _ in self.cases.values()}):
            self.rankings[query] = full_ranking(database, QUERIES[query])

    def units(self) -> List[Unit]:
        raise NotImplementedError

    def served(self, result: Any) -> Optional[TopKResult]:
        """The engine result of a fully served operation, else ``None``."""
        if isinstance(result, TopKResult) and not result.degraded:
            return result
        return None

    def extract(self, op: Op) -> Optional[Ranking]:
        """What the oracle compares: (root Dewey, score) per answer, or
        ``None`` for an operation that raised, was refused or came back degraded."""
        result = self.served(op.result)
        if result is None:
            return None
        self.observe(op, result)
        return ranking_of(result.answers)

    def observe(self, op: Op, result: TopKResult) -> None:
        """Add one served result's public ``ExecutionStats`` to the totals."""
        self.observed += 1
        self.totals["core.match.created"] += result.stats.partial_matches_created
        self.totals["core.match.pruned"] += result.stats.partial_matches_pruned
        self.totals["core.server.join_comparisons"] += result.stats.join_comparisons

    def rounds_observed(self, measurement: Any) -> float:
        """Rounds whose results ``observe`` has seen (untraced and traced)."""
        return self.observed / measurement.ops_per_round

    def layer_extras(self, tracer: Any, untraced: Any, traced: Any) -> Dict[str, float]:
        """Per-layer metrics that come from public counters, or that only
        this workload can measure; counts are per round."""
        rounds = self.rounds_observed(untraced)
        extras = {name: total / rounds for name, total in self.totals.items()}
        created = self.totals["core.match.created"]
        extras["core.match.pruned_share"] = (
            self.totals["core.match.pruned"] / created if created else 0.0
        )
        return extras

    def reference_latency(self, label: str, call: Callable[[], Any]) -> float:
        """Lower-quartile latency of an extra operation, measured for ~1 s."""
        return measure([single(label, call)], lambda op: None, 1.0).op_latencies()[0]

    def failures(self, answers: List[Tuple[str, Optional[Ranking]]]) -> int:
        """Operations that were not fully served or answered wrongly."""
        self.compute_rankings()
        failed = 0
        for label, got in answers:
            query, k = self.cases[label]
            if got is None or not answers_match(self.rankings[query], got, k):
                failed += 1
        return failed


class Fig10Single(Workload):
    """Q1/Q2/Q3 x k in {3, 15, 75}, Whirlpool-S + min_alive, one ~500 KB document."""

    name = "fig10_single"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = {f"{query}/k={k}": (query, k) for query, k in FIG10_CASES}

    def set_up(self) -> None:
        self.database = build_forest(self.seed, ITEMS_500KB)
        self.engines = {name: Engine(self.database, xpath) for name, xpath in QUERIES.items()}
        for engine in self.engines.values():
            engine.run(15)
            engine.index.reset_probe_cost()

    def reference_database(self) -> Database:
        return self.database

    def units(self) -> List[Unit]:
        return [
            single(label, lambda engine=self.engines[query], k=k: engine.run(k))
            for label, (query, k) in self.cases.items()
        ]

    def layer_extras(self, tracer: Any, untraced: Any, traced: Any) -> Dict[str, float]:
        extras = super().layer_extras(tracer, untraced, traced)
        rounds = self.rounds_observed(untraced)
        probe_units = sum(engine.index.probe_cost()[0] for engine in self.engines.values())
        extras["xmldb.index.probe_units"] = probe_units / rounds
        for query in QUERIES:
            extras[f"core.engine.{query}.run_p50_s"] = untraced.latency_of(query)
        return extras


class EnginesContrast(Workload):
    """Same document, Q2, k = 15, five engine variants that use the core differently."""

    name = "engines_contrast"
    VARIANTS: Dict[str, Dict[str, Any]] = {
        "static": {"algorithm": "whirlpool_s", "routing": "static"},
        "max_score": {"algorithm": "whirlpool_s", "routing": "max_score"},
        "min_alive_estimated": {"algorithm": "whirlpool_s", "routing": "min_alive_estimated"},
        "lockstep": {"algorithm": "lockstep"},
        "lockstep_noprun": {"algorithm": "lockstep_noprun"},
    }
    #: Timed in the traced run only: the same input takes Whirlpool-M 0.14 s
    #: or 0.25-0.29 s depending on whether a two-process workload ran on the
    #: machine in the minute before, which no regression bound survives.
    THREADED = {"whirlpool_m": {"algorithm": "whirlpool_m", "routing": "min_alive"}}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = {variant: ("Q2", 15) for variant in (*self.VARIANTS, *self.THREADED)}

    def set_up(self) -> None:
        self.database = build_forest(self.seed, ITEMS_500KB)
        self.engine = Engine(self.database, QUERIES["Q2"])
        self.run_variant("min_alive_estimated")  # also builds the path summary
        self.engine.index.reset_probe_cost()

    def reference_database(self) -> Database:
        return self.database

    def run_variant(self, variant: str) -> TopKResult:
        options = dict(self.VARIANTS.get(variant) or self.THREADED[variant])
        if options.get("routing") == "static":
            options["static_order"] = self.engine.server_node_ids()
        return self.engine.run(15, **options)

    def units(self) -> List[Unit]:
        return [
            single(variant, lambda variant=variant: self.run_variant(variant))
            for variant in self.VARIANTS
        ]

    def layer_extras(self, tracer: Any, untraced: Any, traced: Any) -> Dict[str, float]:
        extras = super().layer_extras(tracer, untraced, traced)
        rounds = self.rounds_observed(untraced)
        extras["xmldb.index.probe_units"] = self.engine.index.probe_cost()[0] / rounds
        for variant in self.VARIANTS:
            extras[f"core.engine.{variant}.run_p50_s"] = untraced.latency_of(variant)
        threaded = measure(
            [single("whirlpool_m", lambda: self.run_variant("whirlpool_m"))], self.extract, 1.5
        )
        untraced.answers.extend(threaded.answers)
        adaptive = self.reference_latency("whirlpool_s", lambda: self.engine.run(15))
        extras["core.engine.whirlpool_m.run_p50_s"] = threaded.latency_of("whirlpool_m")
        extras["core.whirlpool_m.vs_s_ratio"] = threaded.latency_of("whirlpool_m") / adaptive
        return extras


class ColdLoad(Workload):
    """parse -> Engine (index + stats + score model) -> first run(k=15), ~300 KB."""

    name = "cold_load"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = {f"{query}/cold": (query, 15) for query in QUERIES}

    def set_up(self) -> None:
        # No warm-up of loaded objects: cold is the point.
        self.text = serializer.serialize(build_forest(self.seed, ITEMS_300KB), pretty=False)

    def reference_database(self) -> Database:
        return parser.parse_document(self.text)

    def cold_query(self, query: str) -> TopKResult:
        return Engine(parser.parse_document(self.text), QUERIES[query]).run(15)

    def units(self) -> List[Unit]:
        return [
            single(label, lambda query=query: self.cold_query(query))
            for label, (query, _) in self.cases.items()
        ]

    def layer_extras(self, tracer: Any, untraced: Any, traced: Any) -> Dict[str, float]:
        extras = super().layer_extras(tracer, untraced, traced)
        operations = traced.ops_per_round * len(traced.rounds)

        def per_operation(layer: str) -> float:
            return tracer.seconds(layer, total=True) / operations

        parse_s = per_operation("xmldb.parser")
        extras.update(
            {
                "xmldb.parser.parse_s": parse_s,
                "xmldb.parser.mb_per_s": len(self.text.encode()) / 1e6 / parse_s,
                "xmldb.index.build_s": per_operation("xmldb.index.build"),
                "xmldb.stats.build_s": per_operation("xmldb.stats"),
                "scoring.model_build_s": per_operation("scoring"),
                "query.xpath.parse_s": per_operation("query.xpath"),
                "core.engine.first_run_s": per_operation("core.engine"),
            }
        )
        return extras


class ServiceClosed(Workload):
    """Two closed-loop clients against WhirlpoolService(workers=2), ~300 KB."""

    name = "service_closed"
    CLIENTS = 2
    BURST = 3  # requests per client per timed unit

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        schedule = list(FIG10_CASES)
        rng.shuffle(schedule)
        #: Per client, (label, query, k, priority) in submission order.  Both
        #: clients replay the same seeded schedule: a request then always
        #: shares the GIL with its twin, whatever order the seed drew.  (With
        #: one shuffled schedule dealt across the clients, the latency of the
        #: heaviest request ranged 0.28-0.63 s with who it happened to meet.)
        priorities = [rng.randrange(3) for _ in schedule]
        self.schedules = [
            [
                (f"c{client}:{query}/k={k}", query, k, priority)
                for (query, k), priority in zip(schedule, priorities)
            ]
            for client in range(self.CLIENTS)
        ]
        self.cases = {
            label: (query, k) for requests in self.schedules for label, query, k, _ in requests
        }
        self.service: Optional[WhirlpoolService] = None
        self.observability: Optional[Observability] = None
        #: (latency, queue wait, engine wall) seconds of every served response.
        self.responses: List[Tuple[float, float, float]] = []
        self.outcomes: Dict[str, int] = collections.Counter()

    def set_up(self) -> None:
        # One core for the whole process: the service's threads share the GIL
        # and cannot use a second one, but left to the scheduler they bounce
        # between cores (same seed, six runs: cpu_per_op_s 0.087-0.115 s free,
        # 0.097-0.101 s pinned, one outlier).
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.database = build_forest(self.seed, ITEMS_300KB)
        options = {} if self.observability is None else {"observability": self.observability}
        self.service = WhirlpoolService(
            {"d": self.database}, workers=2, queue_depth=64, **options
        )
        for xpath in QUERIES.values():  # builds the service's engine cache
            self.service.submit(QueryRequest("d", xpath, k=15)).result(timeout=120)

    def tear_down(self) -> None:
        if self.service is not None:
            self.service.drain()
            self.service = None
            os.sched_setaffinity(0, self.affinity)

    def reference_database(self) -> Database:
        return self.database

    def burst(self, requests: List[List[Tuple[str, str, int, int]]]) -> List[Op]:
        """Each client submits its requests one at a time and waits for each."""
        service = self.service
        done: List[List[Op]] = [[] for _ in requests]

        def client(number: int) -> None:
            for label, query, k, priority in requests[number]:
                request = QueryRequest("d", QUERIES[query], k=k, priority=priority)
                done[number].append(
                    timed_op(label, lambda: service.submit(request).result(timeout=120))
                )

        threads = [threading.Thread(target=client, args=(n,)) for n in range(len(requests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [op for ops in done for op in ops]

    def units(self) -> List[Unit]:
        return [
            lambda start=start: self.burst(
                [requests[start : start + self.BURST] for requests in self.schedules]
            )
            for start in range(0, len(FIG10_CASES), self.BURST)
        ]

    def served(self, result: Any) -> Optional[TopKResult]:
        if getattr(result, "outcome", None) is Outcome.SERVED:
            return result.result
        return None

    def extract(self, op: Op) -> Optional[Ranking]:
        outcome = getattr(op.result, "outcome", None)
        self.outcomes["raised" if outcome is None else outcome.value] += 1
        return super().extract(op)

    def observe(self, op: Op, result: TopKResult) -> None:
        super().observe(op, result)
        self.responses.append(
            (op.latency_s, op.result.queue_wait_seconds, result.stats.wall_time_seconds)
        )

    def layer_extras(self, tracer: Any, untraced: Any, traced: Any) -> Dict[str, float]:
        extras = super().layer_extras(tracer, untraced, traced)
        rounds = self.rounds_observed(untraced)
        speed = untraced.speed_factor()
        extras.update(
            {
                "service.queue_wait_p50_s": speed * median([w for _, w, _ in self.responses]),
                "service.engine_p50_s": speed * median([e for _, _, e in self.responses]),
                "service.overhead_p50_s": speed
                * median([latency - w - e for latency, w, e in self.responses]),
                "service.submit_s": tracer.seconds("service.submit", total=True)
                / len(traced.rounds),
            }
        )
        for outcome in Outcome:
            extras[f"service.{outcome.value}"] = self.outcomes[outcome.value] / rounds
        # The same round against a service with an enabled Observability bundle.
        self.tear_down()
        self.observability = Observability()
        self.set_up()
        observed = measure(self.units(), lambda op: None, 2.0, min_rounds=2)
        extras["obs.enabled_overhead_ratio"] = observed.round_wall_s() / untraced.round_wall_s()
        return extras


class Cluster2Shard(Workload):
    """Coordinator(shards=2, pipe) over an 8-document forest, Q2, k in {3, 15, 75}."""

    name = "cluster_2shard"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = {f"Q2/k={k}": ("Q2", k) for k in K_VALUES}
        self.coordinator: Optional[Coordinator] = None

    def set_up(self) -> None:
        self.forest = build_forest(self.seed, ITEMS_FOREST, FOREST_DOCUMENTS)
        self.coordinator = Coordinator(self.forest, shards=2)
        owned = [row["documents"] for row in self.coordinator.health()["per_shard"].values()]
        if min(owned) < 1:
            raise RuntimeError(f"a shard owns no document: {owned}")
        self.coordinator.run_query(QUERIES["Q2"], 15)

    def tear_down(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None

    def reference_database(self) -> Database:
        return self.forest

    def units(self) -> List[Unit]:
        coordinator = self.coordinator
        return [
            single(label, lambda k=k: coordinator.run_query(QUERIES["Q2"], k))
            for label, (_, k) in self.cases.items()
        ]

    def served(self, result: Any) -> Optional[TopKResult]:
        if getattr(result, "missing_shards", None) == []:
            return super().served(result)
        return None

    def observe(self, op: Op, result: TopKResult) -> None:
        super().observe(op, result)
        self.totals["cluster.rounds"] += result.rounds

    def layer_extras(self, tracer: Any, untraced: Any, traced: Any) -> Dict[str, float]:
        extras = super().layer_extras(tracer, untraced, traced)
        rounds = len(traced.rounds)
        speed = traced.speed_factor()
        engine = Engine(self.forest, QUERIES["Q2"])
        single_process = self.reference_latency("single", lambda: engine.run(15))
        snapshots: List[Dict[str, Any]] = []

        def budget_stepped() -> None:
            # What a shard worker does per step: run to a budget, checkpoint, resume.
            engine.run(
                15,
                max_operations=200,
                checkpoint_policy=CheckpointPolicy(every_operations=200),
                checkpoint_sink=snapshots.append,
            )
            engine.run(15, restore_from=snapshots[-1])

        tracer.run_block("codec", budget_stepped)
        extras.update(
            {
                "cluster.bootstrap_s": tracer.seconds("cluster.bootstrap", total=True) / rounds,
                "cluster.rpc_wait_s": tracer.seconds(
                    "cluster.rpc", total=True, skip_parent="cluster.bootstrap"
                )
                / rounds,
                "cluster.frame_encode_s": tracer.seconds("cluster.frame", total=True) / rounds,
                "cluster.frame_bytes": tracer.amounts["net.encode_frame"] / rounds,
                "cluster.merge_s": tracer.seconds("cluster.merge", total=True) / rounds,
                "cluster.checkpoint_store_s": tracer.seconds(
                    "cluster.checkpoint_store", total=True
                )
                / rounds,
                "cluster.worker_engine_s": speed * tracer.amounts["ShardHandle.finish"] / rounds,
                "cluster.overhead_ratio": untraced.latency_of("k=15") / single_process,
                "recovery.codec.encode_s": tracer.seconds(
                    "recovery.codec.encode", "codec", total=True
                ),
                "recovery.codec.restore_s": tracer.seconds(
                    "recovery.codec.restore", "codec", total=True
                ),
                "recovery.codec.snapshot_bytes": len(json.dumps(snapshots[-1])),
            }
        )
        return extras


WORKLOADS = {
    cls.name: cls
    for cls in (Fig10Single, EnginesContrast, ColdLoad, ServiceClosed, Cluster2Shard)
}
