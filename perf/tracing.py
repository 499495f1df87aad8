"""Per-layer tracing taken from outside the program.

``Tracer.installed()`` swaps the layers' public callables for wrappers that
record a span per call — layer, start, end, parent — on a per-thread stack,
and folds the spans as they close into one row per (operation, layer, parent
layer): ``calls``, ``total_s``, ``self_s``.  A layer's self time is its
spans' duration minus the part covered by the spans they caused, so the self
times of one single-threaded operation add up to its wall time.  Nothing in
``src/`` is edited and nothing is left installed afterwards.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import harness
from repro.cluster import coordinator, net, partition
from repro.core import base as core_base
from repro.core import engine as core_engine
from repro.core import queues, router, server, topk
from repro.recovery.generations import CheckpointGenerations
from repro.service.service import WhirlpoolService
from repro.xmark import generator
from repro.xmldb import index, parser, serializer, stats

#: (owner, attribute, layer).  Owners are classes or, for functions a module
#: imported by name, the importing module.
TARGETS: List[Tuple[Any, str, str]] = [
    (topk.TopKSet, "threshold", "core.topk"),
    (topk.TopKSet, "is_pruned", "core.topk"),
    (topk.TopKSet, "observe", "core.topk"),
    (router.StaticRouter, "choose", "core.router"),
    (router.MaxScoreRouter, "choose", "core.router"),
    (router.MinScoreRouter, "choose", "core.router"),
    (router.MinAliveRouter, "choose", "core.router"),
    (router.BatchingRouter, "choose", "core.router"),
    (server.Server, "process", "core.server"),
    (server.Server, "candidate_counts", "core.server"),
    (server.Server, "routing_estimates", "core.server"),
    (index.DatabaseIndex, "related", "xmldb.index"),
    (index.TagIndex, "related", "xmldb.index"),
    (index.TagIndex, "in_subtree", "xmldb.index"),
    (index.ColumnarTagIndex, "related", "xmldb.index"),
    (index.ColumnarTagIndex, "in_subtree", "xmldb.index"),
    (index.DatabaseIndex, "__init__", "xmldb.index.build"),
    (stats.DatabaseStatistics, "__init__", "xmldb.stats"),
    (queues.MatchQueue, "put", "core.queues"),
    (queues.MatchQueue, "get", "core.queues"),
    (queues.MatchQueue, "get_nowait", "core.queues"),
    (core_engine.Engine, "run", "core.engine"),
    (core_engine, "build_score_model", "scoring"),
    (core_engine, "parse_xpath", "query.xpath"),
    (core_base, "encode_engine_state", "recovery.codec.encode"),
    (core_base, "restore_engine_state", "recovery.codec.restore"),
    (parser, "parse_document", "xmldb.parser"),
    (generator, "generate_root", "xmark"),
    (serializer, "serialize", "xmldb.serializer"),
    (partition, "serialize", "xmldb.serializer"),
    (WhirlpoolService, "submit", "service.submit"),
    (coordinator.Coordinator, "run_query", "cluster"),
    (coordinator.ShardHandle, "kill", "cluster.bootstrap"),
    (coordinator.ShardHandle, "spawn", "cluster.bootstrap"),
    (coordinator.ShardHandle, "rpc", "cluster.bootstrap"),  # init, begin (and rare pings)
    (coordinator.ShardHandle, "post", "cluster.rpc"),
    (coordinator.ShardHandle, "finish", "cluster.rpc"),
    (net, "encode_frame", "cluster.frame"),
    (coordinator, "merge_answers", "cluster.merge"),
    (CheckpointGenerations, "save", "cluster.checkpoint_store"),
]


def _worker_engine_seconds(reply: Any) -> float:
    """Engine wall seconds a shard worker reports in a step reply."""
    if isinstance(reply, dict):
        return float(reply.get("stats", {}).get("wall_time_seconds", 0.0))
    return 0.0


#: What a call's result adds to the ``amounts`` tally, per (owner, attribute).
AMOUNTS: Dict[Tuple[Any, str], Callable[[Any], float]] = {
    (net, "encode_frame"): len,
    (coordinator.ShardHandle, "finish"): _worker_engine_seconds,
}


class Tracer:
    """Folded spans, exact call counts and result amounts of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: Operation that spans closing now belong to: a unit's running
        #: number, or a name such as ``"setup"``.  Threads an operation
        #: starts inherit it.
        self.op_id: Any = None
        #: (op_id, layer, parent layer) -> [calls, total_s, self_s]
        self.rows: Dict[Tuple[Any, str, str], List[float]] = {}
        #: op_id -> (speed factor, wall seconds)
        self.ops: Dict[Any, Tuple[float, float]] = {}
        self.reset_tallies()

    def reset_tallies(self) -> None:
        #: "Owner.attribute" -> calls, and -> summed result amounts.
        self.calls: Dict[str, int] = {}
        self.amounts: Dict[str, float] = {}

    def wrap(
        self, function: Callable[..., Any], layer: str, label: str,
        amount: Optional[Callable[[Any], float]],
    ) -> Callable[..., Any]:  # fmt: skip
        local, rows, calls, amounts, clock = (
            self._local, self.rows, self.calls, self.amounts, time.perf_counter,
        )  # fmt: skip
        calls.setdefault(label, 0)
        amounts.setdefault(label, 0.0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [layer, 0.0]  # layer, seconds covered by spans it caused
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
                if amount is not None:
                    amounts[label] += amount(result)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                parent = ""
                if stack:
                    stack[-1][1] += elapsed
                    parent = stack[-1][0]
                key = (self.op_id, layer, parent)
                row = rows.get(key)
                if row is None:
                    row = rows.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                calls[label] += 1

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        originals = []
        for owner, name, layer in TARGETS:
            original = getattr(owner, name)
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
            originals.append((owner, name, original))
            setattr(owner, name, self.wrap(original, layer, label, AMOUNTS.get((owner, name))))
        try:
            yield
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    def run_block(self, op_id: str, call: Callable[[], Any]) -> None:
        """Run ``call`` traced as the named operation, between two kernels."""
        self.op_id = op_id
        with self.installed():
            elapsed, factor = harness.bracketed(call)
        self.ops[op_id] = (factor, elapsed)

    def unit_done(self, number: int, sample: harness.UnitSample) -> None:
        """Harness callback: unit ``number`` just ran; the next one starts."""
        self.ops[number] = (sample.factor, sample.wall_s)
        self.op_id = number + 1

    # -- reading the fold ---------------------------------------------------------

    def seconds(
        self, layer: str, named: Optional[str] = None, total: bool = False,
        skip_parent: Optional[str] = None,
    ) -> float:  # fmt: skip
        """Reference-machine seconds of ``layer`` over the measured units, or
        over the ``named`` operation: self time, or with ``total`` the time
        of its outermost spans; ``skip_parent`` leaves out the spans nested
        under that layer."""
        seconds = 0.0
        for (op_id, row_layer, parent), row in self.rows.items():
            wanted = isinstance(op_id, int) if named is None else op_id == named
            if not wanted or op_id not in self.ops:
                continue
            if row_layer != layer or parent == skip_parent or (total and parent == layer):
                continue
            seconds += row[1 if total else 2] * self.ops[op_id][0]
        return seconds

    def entries(self, layer: str) -> int:
        """Calls into ``layer`` from outside it, over the measured units."""
        return int(
            sum(
                row[0]
                for (op_id, row_layer, parent), row in self.rows.items()
                if row_layer == layer and parent != layer and isinstance(op_id, int)
            )
        )

    def layers(self) -> List[str]:
        return sorted({layer for _, layer, _ in self.rows})

    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"op_id": op_id, "layer": layer, "parent": parent,
             "calls": row[0], "total_s": row[1], "self_s": row[2]}
            for (op_id, layer, parent), row in self.rows.items()
        ]  # fmt: skip
        ops = [
            {"op_id": op_id, "speed_factor": factor, "wall_s": wall_s}
            for op_id, (factor, wall_s) in self.ops.items()
        ]
        payload = {**extra, "ops": ops, "calls": self.calls, "amounts": self.amounts, "rows": rows}
        path.write_text(json.dumps(payload, indent=1) + "\n")


def traced_run(
    workload: Any, seconds: float, min_rounds: int, units: Dict[str, str], out_dir: Path
) -> Tuple[Dict[str, Dict[str, Any]], harness.Measurement]:
    """Set up traced, measure untraced then traced, and fold into the
    per-layer metrics named in ``units`` (layers a workload bypasses read 0)."""
    tracer = Tracer()
    tracer.run_block("setup", workload.set_up)
    tracer.reset_tallies()
    untraced = harness.measure(
        workload.units(), workload.extract, seconds * 0.35, min(min_rounds, 2)
    )
    tracer.op_id = 0
    with tracer.installed():
        traced = harness.measure(
            workload.units(), workload.extract, seconds * 0.4, 1, on_unit=tracer.unit_done
        )
    rounds = len(traced.rounds)
    traced_wall, untraced_wall = traced.round_wall_s(), untraced.round_wall_s()
    values: Dict[str, float] = {
        "core.topk.self_s": tracer.seconds("core.topk") / rounds,
        "core.topk.threshold_calls": tracer.calls["TopKSet.threshold"] / rounds,
        "core.topk.observe_calls": tracer.calls["TopKSet.observe"] / rounds,
        "core.router.self_s": tracer.seconds("core.router") / rounds,
        "core.router.choose_calls": tracer.entries("core.router") / rounds,
        "core.server.self_s": tracer.seconds("core.server") / rounds,
        "core.server.process_calls": tracer.calls["Server.process"] / rounds,
        "core.server.candidate_counts_calls": tracer.calls["Server.candidate_counts"] / rounds,
        "xmldb.index.probe_self_s": tracer.seconds("xmldb.index") / rounds,
        "xmldb.index.probe_calls": tracer.entries("xmldb.index") / rounds,
        "core.queues.self_s": tracer.seconds("core.queues") / rounds,
        "core.queues.put_calls": tracer.calls["MatchQueue.put"] / rounds,
        "core.engine.loop_self_s": tracer.seconds("core.engine") / rounds,
        "xmark.generate_s": tracer.seconds("xmark", "setup", total=True),
        "xmldb.serializer.serialize_s": tracer.seconds("xmldb.serializer", "setup", total=True),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.self_time_share": sum(tracer.seconds(layer) for layer in tracer.layers())
        / sum(unit.wall_s * unit.factor for round_ in traced.rounds for unit in round_),
        "raw.latency_p50_s": median(untraced.op_latencies(normalised=False)),
        "machine.speed_factor": untraced.speed_factor(),
    }  # fmt: skip
    values.update(workload.layer_extras(tracer, untraced, traced))
    untraced.answers.extend(traced.answers)
    tracer.dump(
        out_dir / f"trace-{workload.name}.json",
        {"workload": workload.name, "seed": workload.seed, "traced_rounds": rounds,
         "metrics": values},
    )  # fmt: skip
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
    }
    return metrics, untraced
