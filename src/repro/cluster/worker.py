"""Shard worker: one subprocess, one partition, a full engine.

Launched by the coordinator as ``python -m repro.cluster.worker --shard
<id> --connect host:port --token T`` and spoken to with the CRC-checked,
sequence-numbered frames of :mod:`repro.cluster.protocol` (stderr
carries tracebacks and is surfaced by the coordinator on failure).  The
worker dials the coordinator's listener, authenticates with its
per-spawn session token, and serves frames over TCP.  A dropped
connection does *not* end the session: the worker redials with
exponential backoff for :data:`WORKER_RECONNECT_WINDOW_SECONDS`, and a
reply cache keyed by RPC id answers replayed requests idempotently — a step
whose reply was lost in the partition is never re-executed.  A *refused*
handshake means the coordinator failed this session over to a fresh
worker; the stale worker exits instead of split-braining.

The worker is a plain request loop — *all* policy (retries, liveness,
failover, merging) lives in the coordinator; the worker's one
invariant is that its resident snapshot only ever advances past a step
that completed.

RPCs
----
``init``
    Sent at the start of every query.  Carries the shard's documents
    (serialized XML) only when this *process* does not hold them yet;
    they are parsed into a fresh :class:`~repro.xmldb.model.Database`
    once per process.  Always (re)sets the process-level fault plan —
    to the shipped one, or to none — so a plan never outlives the query
    that shipped it.
``begin``
    Bind a query and reset the per-query state (live run, resident
    snapshot, operation count, lost bound): take the
    :class:`~repro.core.engine.Engine` for what the frame ships —
    query, ``relaxed`` and the coordinator's **global** score
    contributions (never shard-local idf — Dewey remapping aside,
    shard scores must be bit-identical to a single-process run) — from
    the worker's engine cache, building it on a miss; optionally seed
    the resident snapshot from a failed-over checkpoint.
``step``
    Advance the bound query's run by an operation budget.  The run stays
    alive between steps: a budget exit parks it, and the next step
    raises ``max_operations`` to ``resident ops + budget`` and runs the
    same instance on — nothing is decoded or rebuilt.  Only when there is
    no live run (the first step, after ``begin`` with ``restore``, after
    an in-engine crash) is one opened, restored from the resident
    snapshot if there is one.  The budget-exit checkpoint (one per step,
    taken by every engine when a checkpoint policy is attached) becomes
    the new resident snapshot and ships back in the reply as
    ``{"text", "crc"}`` — its JSON text, serialized here once, and a
    CRC-32 over it — giving the coordinator its failover point.  A
    finished run replies ``done`` with the final answers.
``ping`` / ``shutdown``
    Liveness probe / exit the loop.

Process-level faults (:attr:`repro.faults.plan.FaultPlan.PROCESS_ACTIONS`)
are executed *here*, at the RPC boundary: ``KILL`` SIGKILLs the process
before any reply, ``HANG`` sleeps far past the liveness deadline before
processing, ``SLOW_PIPE`` delays the reply.  ``ping`` never arms a rule:
probe timing depends on coordinator-side waits, and arming it would
make the seeded per-RPC schedules nondeterministic.  Neither does
``init``: it is the RPC that installs the query's plan, so ``begin`` is
armed RPC #1 whether the process is fresh or resident.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.protocol import FrameReader, encode_frame
from repro.core.engine import Engine
from repro.core.base import EngineBase, TopKResult
from repro.core.stats import monotonic_seconds
from repro.errors import ClusterError, EngineCrashError, ProtocolError, ReproError
from repro.faults.inject import FaultArm
from repro.faults.plan import FaultAction, FaultPlan, FaultSite
from repro.faults.supervisor import RetryPolicy
from repro.recovery.codec import encode_match
from repro.recovery.generations import seal
from repro.recovery.policy import CheckpointPolicy
from repro.scoring.model import ScoreModel
import repro.sim.clock as simclock
from repro.sim.clock import RealClock, set_clock
from repro.xmldb.model import Database
from repro.xmldb.parser import parse_forest


#: Engines a worker keeps warm across queries, keyed by what ``begin``
#: ships that determines them.  Cleared wholesale at the cap — the
#: :data:`~repro.core.server.PROBE_MEMO_CAP` rule: an engine is a pure
#: function of its key, so a rebuild after a clear answers identically.
#: Two, not more: the benchmark's only cluster workload repeats one
#: query, so memory is measured with one cached engine per worker, and
#: two is what alternating between a pair of queries needs.
ENGINE_CACHE_CAP = 2

#: How long a worker keeps redialing after its link drops before it
#: gives the session up.  Partitions the coordinator rides out last well
#: under this; a coordinator gone for longer is gone.
WORKER_RECONNECT_WINDOW_SECONDS = 30.0


class FrameChannel:
    """One connection's frame plumbing on the worker side: blocking
    reads through the same :class:`FrameReader` the coordinator uses
    (it drops duplicated frames), sequence-numbered writes.

    Per-connection by design — a reconnect builds a fresh channel (both
    peers restart their sequence spaces with the new connection) while
    the session-level state (engine, snapshot, reply cache) stays on
    the :class:`ShardWorker`.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._reader = FrameReader(sock.fileno())
        self._sock = sock
        self._out_seq = 0

    def read(self) -> Optional[Dict[str, Any]]:
        """Next non-duplicate message; ``None`` on clean EOF."""
        return self._reader.read(None)

    def write(self, payload: Dict[str, Any]) -> None:
        self._out_seq += 1
        self._sock.sendall(encode_frame(payload, seq=self._out_seq))


class ShardWorker:
    """Request-loop state machine for one shard process."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.database: Optional[Database] = None
        self.nodes = 0
        self.engine: Optional[Engine] = None
        #: The bound query's run, alive between steps; ``None`` until the
        #: first step opens it and again once it finished or crashed.
        self.live_run: Optional[EngineBase] = None
        self.engines: Dict[Tuple[Any, ...], Engine] = {}
        self.k = 0
        self.algorithm = "whirlpool_s"
        self.routing = "min_alive"
        self.step_default = 200
        self.engine_faults: Optional[FaultPlan] = None
        self.engine_retry: Optional[RetryPolicy] = None
        self.snapshot: Optional[Dict[str, Any]] = None
        self.resident_ops = 0
        self.lost_bound = 0.0
        self.process_faults: Optional[FaultArm] = None
        self.reply_delay = 0.0
        # Idempotent-replay cache: the last RPC id answered and its
        # reply.  After a reconnect the coordinator resends the in-flight
        # request with the *same* id; if this worker already executed it
        # (the partition ate the reply, not the request), the cached
        # reply is returned without re-running the step — which is what
        # keeps "engine advanced past step N" exactly-once.
        self.last_reply_id: Optional[Any] = None
        self.last_reply: Optional[Dict[str, Any]] = None

    # -- fault boundary ----------------------------------------------------------

    def intercept(self, op: str) -> None:
        """Run the process-fault boundary for one inbound RPC."""
        self.reply_delay = 0.0
        if self.process_faults is None or op in ("ping", "init"):
            return
        rule = self.process_faults.arm(FaultSite.WORKER_RPC, str(self.shard_id))
        if rule is None:
            return
        if rule.action is FaultAction.KILL:
            sys.stderr.write(f"shard {self.shard_id}: injected SIGKILL\n")
            sys.stderr.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.action is FaultAction.HANG:
            simclock.sleep(rule.delay_seconds)
        elif rule.action is FaultAction.SLOW_PIPE:
            self.reply_delay = rule.delay_seconds

    # -- RPC handlers ------------------------------------------------------------

    def handle(self, message: Dict[str, Any]) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Dispatch one frame → (reply or None, exit-loop flag)."""
        op = str(message.get("op", ""))
        self.intercept(op)
        handler = getattr(self, f"_op_{op}", None)
        base = {"id": message.get("id"), "op": op}
        if handler is None:
            return {**base, "ok": False, "error": f"unknown op {op!r}"}, False
        try:
            reply, should_exit = handler(message)
        except ReproError as exc:
            reply, should_exit = (
                {"ok": False, "error": str(exc), "kind": type(exc).__name__},
                False,
            )
        return {**base, **reply}, should_exit

    def _op_init(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        # A new query opens: unbind the last one, so a step that arrives
        # without this query's begin is refused, not run on stale state.
        self.engine = None
        self.live_run = None
        documents = message.get("documents")
        if documents is not None:
            self.database = parse_forest(documents)
            self.nodes = self.database.node_count()
            self.engines.clear()
        if self.database is None:
            return {"ok": False, "error": "init without documents"}, False
        self.process_faults = None
        plan_payload = message.get("process_faults")
        if plan_payload is not None:
            plan = FaultPlan.from_dict(plan_payload)
            self.process_faults = FaultArm(plan.rules, plan.seed)
        return (
            {
                "ok": True,
                "documents": len(self.database.documents),
                "nodes": self.nodes,
            },
            False,
        )

    def _op_begin(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        if self.database is None:
            return {"ok": False, "error": "begin before init"}, False
        self.k = int(message["k"])
        self.algorithm = str(message.get("algorithm", "whirlpool_s"))
        self.routing = str(message.get("routing", "min_alive"))
        self.step_default = int(message.get("step_operations", 200))
        query = str(message["query"])
        relaxed = bool(message.get("relaxed", True))
        contributions = message["contributions"]
        key = (query, relaxed, json.dumps(contributions, sort_keys=True))
        engine = self.engines.get(key)
        if engine is None:
            if len(self.engines) >= ENGINE_CACHE_CAP:
                self.engines.clear()
            engine = self.engines[key] = Engine(
                self.database,
                query,
                relaxed=relaxed,
                score_model=ScoreModel.from_contributions(contributions),
            )
        self.engine = engine
        faults_payload = message.get("engine_faults")
        self.engine_faults = (
            FaultPlan.from_dict(faults_payload) if faults_payload is not None else None
        )
        retry_payload = message.get("engine_retry")
        self.engine_retry = (
            RetryPolicy.from_dict(retry_payload) if retry_payload is not None else None
        )
        self.live_run = None
        self.snapshot = message.get("restore")
        self.resident_ops = (
            int(self.snapshot["operations"]) if self.snapshot is not None else 0
        )
        self.lost_bound = 0.0
        return {"ok": True}, False

    def _op_step(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        if self.engine is None:
            return {"ok": False, "error": "step before begin"}, False
        budget = int(message.get("operations", self.step_default))
        fault_free = bool(message.get("fault_free", False))
        captured: List[Dict[str, Any]] = []
        # Taken out for the duration: a step that raises leaves no live run.
        run, self.live_run = self.live_run, None
        if run is None:
            run = self.engine.open(
                self.k,
                algorithm=self.algorithm,
                routing=self.routing,
                retry_policy=self.engine_retry,
                restore_from=self.snapshot,
            )
        # What is per step: the budget, the fault plan (armed from its
        # first operation, so a seeded schedule fires where it always
        # did), where this step's checkpoint goes, and a checkpoint
        # interval of this step's budget.  The run stands where its last
        # checkpoint (the previous step's budget exit) or restored
        # snapshot left it, so the budget exit is the step's one
        # checkpoint whatever budget earlier steps carried.
        run.max_operations = self.resident_ops + budget
        run.arm_faults(None if fault_free else self.engine_faults)
        run.checkpoint_sink = captured.append
        run.checkpoint_policy = CheckpointPolicy(every_operations=max(budget, 1))
        try:
            result = run.run()
        except EngineCrashError as exc:
            # The live run died with the crash and the resident snapshot
            # did not advance; the coordinator retries this step
            # (fault-free, mirroring the service's recovery contract:
            # recovered runs re-execute clean), which restores from it.
            return (
                {
                    "ok": False,
                    "error": str(exc),
                    "kind": "EngineCrashError",
                    "resumable": True,
                },
                False,
            )
        # ``degraded`` conflates two very different states (see
        # EngineBase.make_result): budget exit with queued leftovers —
        # *resumable*, the final checkpoint holds them — and terminal
        # loss (abandoned or injector-dropped matches) in a run that
        # otherwise finished.  Only the former continues stepping; the
        # latter's bound is remembered across steps (each step re-arms
        # its injector and a restored run starts a fresh supervisor, so
        # earlier losses could vanish from later reports) and keeps the
        # final report degraded-but-done.
        if result.failure is not None:
            for failed in result.failure.failed_matches:
                self.lost_bound = max(self.lost_bound, failed.upper_bound)
            for drop in result.failure.dropped:
                self.lost_bound = max(
                    self.lost_bound, float(drop.get("upper_bound", 0.0))
                )
        hit_budget = (
            result.stats.server_operations >= self.resident_ops + budget
        )
        done = not (result.degraded and hit_budget and captured)
        checkpoint: Optional[Dict[str, Any]] = None
        if not done:
            self.live_run = run
            self.snapshot = captured[-1]
            self.resident_ops = int(self.snapshot["operations"])
            text, crc = seal(self.snapshot)
            checkpoint = {"text": text, "crc": crc}
        return {"ok": True, "done": done, **self._report(result, done, checkpoint)}, False

    def _report(
        self, result: TopKResult, done: bool, checkpoint: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        return {
            # An answer's root and score are its match's: the payload
            # carries both.
            "answers": [encode_match(answer.match) for answer in result.answers],
            "pending_bound": max(result.pending_bound, self.lost_bound),
            "degraded": self.lost_bound > 0.0 or not done,
            "operations": result.stats.server_operations,
            "stats": result.stats.as_dict(),
            "checkpoint": checkpoint,
        }

    def _op_ping(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        return (
            {"ok": True, "shard": self.shard_id, "operations": self.resident_ops},
            False,
        )

    def _op_shutdown(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        return {"ok": True}, True


def serve(worker: ShardWorker, channel: FrameChannel) -> str:
    """Drain one connection; returns ``"shutdown"`` (clean exit asked)
    or ``"lost"`` (EOF, reset, or condemned-by-corruption — the main
    loop redials)."""
    while True:
        try:
            message = channel.read()
        except ProtocolError:
            return "lost"  # corruption condemns the connection
        except OSError:
            return "lost"
        if message is None:
            return "lost"
        rpc_id = message.get("id")
        try:
            if rpc_id is not None and rpc_id == worker.last_reply_id:
                # Replayed request: already executed, reply was lost in
                # transit.  Answer from cache, never re-execute.
                assert worker.last_reply is not None
                channel.write(worker.last_reply)
                continue
            reply, should_exit = worker.handle(message)
            if worker.reply_delay > 0:
                simclock.sleep(worker.reply_delay)
            if reply is not None:
                if rpc_id is not None:
                    worker.last_reply_id = rpc_id
                    worker.last_reply = reply
                channel.write(reply)
            if should_exit:
                return "shutdown"
        except (BrokenPipeError, OSError):
            return "lost"  # reply undeliverable; it is cached for replay


def run_socket(worker: ShardWorker, host: str, port: int, token: str) -> int:
    """Dial, authenticate, serve; redial with exponential backoff when
    the link drops, for at most :data:`WORKER_RECONNECT_WINDOW_SECONDS`
    per outage.  Exits 0 when told to shut down or when the coordinator
    refuses the token (this session was failed over — a stale worker
    must die quietly, not contest the shard)."""
    give_up_at = monotonic_seconds() + WORKER_RECONNECT_WINDOW_SECONDS
    backoff = 0.05
    while True:
        if monotonic_seconds() >= give_up_at:
            sys.stderr.write(
                f"shard {worker.shard_id}: reconnect window exhausted\n"
            )
            return 1
        try:
            sock = socket.create_connection((host, port), timeout=backoff + 1.0)
        except OSError:
            simclock.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            continue
        sock.settimeout(None)
        channel = FrameChannel(sock)
        try:
            channel.write({"op": "hello", "shard": worker.shard_id, "token": token})
            ack = channel.read()
        except (ClusterError, OSError):
            sock.close()
            simclock.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            continue
        if ack is None or ack.get("op") != "hello":
            sock.close()
            simclock.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            continue
        if not ack.get("ok"):
            sock.close()
            return 0  # refused: superseded session, exit without a fight
        backoff = 0.05
        outcome = serve(worker, channel)
        try:
            sock.close()
        except OSError:
            pass
        if outcome == "shutdown":
            return 0
        give_up_at = monotonic_seconds() + WORKER_RECONNECT_WINDOW_SECONDS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.cluster.worker")
    parser.add_argument("--shard", type=int, required=True, help="shard id")
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator listener address",
    )
    parser.add_argument(
        "--token",
        required=True,
        help="session token presented in the hello handshake",
    )
    args = parser.parse_args(argv)

    # Workers always run on real time, even when the coordinator process
    # exported REPRO_SIM_CLOCK=virtual to its environment: process-level
    # faults (HANG) must burn real seconds to be observable as liveness
    # misses from the coordinator side, and reconnect backoff paces a
    # real socket.  Simulated time is a coordinator-side illusion.
    set_clock(RealClock())
    worker = ShardWorker(args.shard)
    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"bad --connect address {args.connect!r}")
    return run_socket(worker, host or "127.0.0.1", port, args.token)


if __name__ == "__main__":
    sys.exit(main())
