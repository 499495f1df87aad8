"""Repo-specific concurrency-discipline lint rules (``WPL001``–``WPL010``).

Each rule encodes one invariant Whirlpool-M's correctness (or the bench
suite's honesty) rests on.  They are deliberately narrow: a rule that
over-approximates gets suppressed into noise, a rule that encodes exactly
the discipline the code review would enforce stays load-bearing.

Rules resolve names through the module's one external-name map
(:meth:`~repro.analysis.graph.project.SourceModule.external_name`), so
``import m``, ``import m as x``, ``from m import f`` and ``from m import f
as g`` all name the same ``m.f``; no rule walks imports of its own.

Static-analysis limits worth knowing:

- *shared-state-guard* only sees **direct** ``self.attr`` writes in a
  method's own statements.  Writes inside nested functions / lambdas are
  skipped — whether the closure runs under a lock is a runtime property
  (that is :mod:`repro.analysis.racecheck`'s job).
- *no-bare-thread* checks construction kwargs (``name=``, ``daemon=True``);
  it cannot prove the thread is joined — the racecheck stress test and the
  ``_InFlight`` counter cover liveness.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.graph.project import ExternalImport, SourceModule
from repro.analysis.lint.engine import Finding, Rule

#: Classes whose internals are shared across Whirlpool-M threads, or
#: across the query service's worker pool and its submitting clients, as
#: dotted paths.  The one list: WPL001 checks every class of these names,
#: and :mod:`repro.analysis.racecheck` watches these classes at runtime.
SHARED_CLASSES: Tuple[str, ...] = (
    "repro.core.topk.TopKSet",
    "repro.core.topk._Entry",
    "repro.core.stats.ExecutionStats",
    "repro.core.trace.ExecutionTrace",
    "repro.core.queues.MatchQueue",
    "repro.core.whirlpool_m._InFlight",
    "repro.faults.inject.FaultInjector",
    "repro.faults.supervisor.Supervisor",
    "repro.service.queue.AdmissionQueue",
    "repro.service.breaker.CircuitBreaker",
    "repro.service.health.ServiceCounters",
    "repro.service.request.Ticket",
    "repro.service.service.WhirlpoolService",
    # Observability layer: instruments are bumped by every worker thread,
    # spans cross the submit-thread → worker handoff, the slow-query log
    # and registry are read by health() while workers write.
    "repro.obs.metrics.MetricsRegistry",
    "repro.obs.metrics.Counter",
    "repro.obs.metrics.Gauge",
    "repro.obs.metrics.Histogram",
    "repro.obs.spans.Span",
    "repro.obs.slowlog.SlowQueryLog",
    # Recovery stores: checkpoint sinks write from worker threads while
    # drain / recover() / health() read concurrently.
    "repro.recovery.store.MemoryRecoveryStore",
    "repro.recovery.store.JsonFileRecoveryStore",
    # Cluster layer: the coordinator is driven by one query thread while
    # health()/probe() read per-shard counters from others, and the
    # backend maps documents to coordinators under service workers.
    "repro.cluster.coordinator.Coordinator",
    "repro.cluster.coordinator.ShardHandle",
    "repro.cluster.service.ClusterBackend",
    # The shard link: send() sequences frames under the transport lock
    # while the coordinator's reconnect/kill paths race it from failover.
    "repro.cluster.net.SocketTransport",
    # Index hot path: a server is shared by Whirlpool-M's threads, its
    # Engine-owned probe memo by every run of that engine (service workers
    # reuse cached engines), columnar indexes rebuild their arenas on
    # insert, and probe-cost accounting is bumped from every server thread.
    "repro.core.server.Server",
    "repro.core.server.ProbeMemo",
    "repro.xmldb.index.ColumnarTagIndex",
    "repro.xmldb.index.ProbeCost",
    # Simulation layer: the installed clock is process-global — every
    # engine/service/cluster thread reads it, and a VirtualClock's warp
    # offset is bumped from whichever thread sleeps first.
    "repro.sim.clock.VirtualClock",
)

#: The class names WPL001 matches (fixtures reuse the real names).
_SHARED_NAMES: Set[str] = {path.rpartition(".")[2] for path in SHARED_CLASSES}

#: Mutating container methods that count as writes when called on a
#: ``self.<attr>`` of a shared class.
_MUTATORS: Set[str] = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "appendleft",
}

#: ``time`` module members that read the wall clock or block on it.
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.sleep",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _external_calls(module: SourceModule) -> Iterator[Tuple[ast.Call, str]]:
    """Every call whose callee names a non-project object, with its dotted
    name (``time.sleep``, ``threading.Thread``, ``queue.SimpleQueue``)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            target = module.external_name(node.func)
            if target is not None:
                yield node, target


def _imports_of(
    module: SourceModule, wanted: Callable[[str], bool]
) -> Iterator[ExternalImport]:
    """The module's external imports whose target ``wanted`` accepts; a
    ``from`` statement counts once, however many names it binds."""
    seen: Set[ast.stmt] = set()
    for record in module.external_imports:
        if not wanted(record.target) or record.stmt in seen:
            continue
        if isinstance(record.stmt, ast.ImportFrom):
            seen.add(record.stmt)
        yield record


class SharedStateGuardRule(Rule):
    """WPL001: shared-class attribute writes must sit under ``with self._lock``.

    Applies to methods of :data:`SHARED_CLASSES` (``__init__`` excepted —
    the object is not shared before construction completes).  A guard is a
    ``with`` on a ``self`` attribute whose name contains ``lock`` or
    ``cond`` (or is ``_not_empty``, the queue's condition).

    A class may declare its lock optional — ``__init__`` assigns the
    attribute ``None`` or ``<lock> if <flag> else None``
    (``ExecutionStats(thread_safe=False)``): an instance built without the
    lock is by that declaration never shared, so the body of
    ``if self._lock is None:`` counts as guarded.  The ``else`` branch does
    not, and neither does the same test in a class whose lock always exists.
    """

    code = "WPL001"
    name = "shared-state-guard"
    description = "write to shared-class state outside a `with self._lock` block"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in _SHARED_NAMES:
                continue
            methods = [
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            optional_locks: Set[str] = set()
            for item in methods:
                if item.name == "__init__":
                    optional_locks |= self._optional_locks(item)
            for item in methods:
                if item.name == "__init__":
                    continue
                for finding in self._scan(
                    module, node.name, item.body, False, optional_locks
                ):
                    yield finding

    @classmethod
    def _optional_locks(cls, init: ast.AST) -> Set[str]:
        """Guard attributes this ``__init__`` may leave ``None``."""
        names: Set[str] = set()
        for stmt in ast.walk(init):
            targets: Sequence[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            arms = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            if any(isinstance(arm, ast.Constant) and arm.value is None for arm in arms):
                names.update(
                    target.attr  # type: ignore[attr-defined]
                    for target in targets
                    if cls._is_guard(target)
                )
        return names

    # -- statement walk, tracking the guard state --------------------------------

    def _scan(
        self,
        module: SourceModule,
        class_name: str,
        stmts: Sequence[ast.stmt],
        guarded: bool,
        optional_locks: Set[str],
    ) -> Iterator[Finding]:
        for stmt in stmts:
            # Nested defs run later, possibly under a lock taken by the
            # caller — out of scope.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = guarded or any(
                    self._is_guard(item.context_expr) for item in stmt.items
                )
                for finding in self._scan(
                    module, class_name, stmt.body, inner, optional_locks
                ):
                    yield finding
                continue
            if isinstance(stmt, ast.If) and self._tests_lock_absent(
                stmt.test, optional_locks
            ):
                # The instance was built without its lock: never shared.
                for finding in self._scan(
                    module, class_name, stmt.body, True, optional_locks
                ):
                    yield finding
                for finding in self._scan(
                    module, class_name, stmt.orelse, guarded, optional_locks
                ):
                    yield finding
                continue
            if not guarded:
                for attr, site in self._writes(stmt):
                    yield self.finding(
                        module,
                        site,
                        f"unguarded write to shared state {class_name}.{attr} "
                        f"(wrap in `with self._lock:`)",
                    )
            for block in self._sub_blocks(stmt):
                for finding in self._scan(
                    module, class_name, block, guarded, optional_locks
                ):
                    yield finding

    @staticmethod
    def _sub_blocks(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, None)
            if block:
                yield block
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    @staticmethod
    def _is_guard(expr: ast.expr) -> bool:
        return _is_self_attr(expr) and (
            "lock" in expr.attr or "cond" in expr.attr or expr.attr == "_not_empty"  # type: ignore[attr-defined]
        )

    @staticmethod
    def _tests_lock_absent(test: ast.expr, optional_locks: Set[str]) -> bool:
        """``self.<optional lock> is None``."""
        return (
            isinstance(test, ast.Compare)
            and _is_self_attr(test.left)
            and test.left.attr in optional_locks  # type: ignore[attr-defined]
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )

    def _writes(self, stmt: ast.stmt) -> List[Tuple[str, ast.AST]]:
        """(attribute name, anchor node) pairs for writes this statement makes."""
        out: List[Tuple[str, ast.AST]] = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                out.extend(self._target_attrs(target))
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.target is not None:
                out.extend(self._target_attrs(stmt.target))
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and _is_self_attr(func.value)
            ):
                out.append((func.value.attr, stmt))  # type: ignore[attr-defined]
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                out.extend(self._target_attrs(target))
        return out

    def _target_attrs(self, target: ast.expr) -> List[Tuple[str, ast.AST]]:
        if _is_self_attr(target):
            return [(target.attr, target)]  # type: ignore[attr-defined]
        if isinstance(target, ast.Subscript) and _is_self_attr(target.value):
            return [(target.value.attr, target)]  # type: ignore[attr-defined]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: List[Tuple[str, ast.AST]] = []
            for element in target.elts:
                out.extend(self._target_attrs(element))
            return out
        if isinstance(target, ast.Starred):
            return self._target_attrs(target.value)
        return []


class NoBareThreadRule(Rule):
    """WPL002: every ``threading.Thread(...)`` gets ``name=`` and ``daemon=True``.

    Named daemons are the repo's thread discipline: names make traces and
    racecheck reports attributable, daemon-ness keeps a crashed engine
    from wedging interpreter shutdown, and the engine's join/``_InFlight``
    tracking (checked dynamically) covers termination.
    """

    code = "WPL002"
    name = "no-bare-thread"
    description = "thread constructed without name= and daemon=True"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node, target in _external_calls(module):
            if target != "threading.Thread":
                continue
            missing = []
            keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            if "name" not in keywords:
                missing.append("name=")
            daemon = keywords.get("daemon")
            if not (isinstance(daemon, ast.Constant) and daemon.value is True):
                missing.append("daemon=True")
            if missing:
                yield self.finding(
                    module,
                    node,
                    "bare thread: construct via a named helper passing "
                    + " and ".join(missing),
                )


class EngineContractRule(Rule):
    """WPL003: direct ``EngineBase`` subclasses honour the engine contract.

    They must set the ``algorithm`` class attribute (result labelling and
    the facade's dispatch table depend on it) and must *not* reimplement
    ``make_server_queue`` — queue-policy construction is centralized so
    the pruning/priority behaviour stays comparable across engines.
    """

    code = "WPL003"
    name = "engine-contract"
    description = "EngineBase subclass missing `algorithm` or overriding make_server_queue"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(self._is_engine_base(base) for base in node.bases):
                continue
            if not self._sets_algorithm(node):
                yield self.finding(
                    module,
                    node,
                    f"engine {node.name} must set the `algorithm` class attribute",
                )
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "make_server_queue"
                ):
                    yield self.finding(
                        module,
                        item,
                        f"engine {node.name} must not reimplement make_server_queue "
                        f"(queue policy/pruning is owned by EngineBase)",
                    )

    @staticmethod
    def _is_engine_base(base: ast.expr) -> bool:
        if isinstance(base, ast.Name):
            return base.id == "EngineBase"
        return isinstance(base, ast.Attribute) and base.attr == "EngineBase"

    @staticmethod
    def _sets_algorithm(node: ast.ClassDef) -> bool:
        for item in node.body:
            if isinstance(item, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "algorithm"
                for target in item.targets
            ):
                return True
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == "algorithm"
                and item.value is not None
            ):
                return True
        return False


class NoWallclockInCoreRule(Rule):
    """WPL004: no wall-clock reads or sleeps in ``core/`` outside ``stats.py``.

    Engine results must be a function of (database, query, k, policy) —
    wall-clock coupling in control flow makes runs non-reproducible and
    benchmarks dishonest.  Timing belongs to ``core/stats.py`` (which
    carries the sanctioned ``# wpl: noqa=WPL001`` clock writes) and to
    :mod:`repro.bench.makespan` for modeled latency.
    """

    code = "WPL004"
    name = "no-wallclock-in-core"
    description = "wall-clock use (time.time/sleep/...) in core/ outside stats.py"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.is_core() or module.path.name == "stats.py":
            return
        for record in _imports_of(module, lambda target: target.startswith("time.")):
            yield self.finding(
                module,
                record.stmt,
                "core/ must not import from `time` (keep timing in stats.py "
                "or repro.bench.makespan)",
            )
        for node, target in _external_calls(module):
            if target in _WALLCLOCK:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock call {target}() in core/ (allowed only in stats.py)",
                )


class BenchImportsPublicApiRule(Rule):
    """WPL005: benchmark drivers import ``repro.core`` only via its package API.

    Benchmarks are the paper's measurements; pinning them to
    ``repro.core.__init__`` exports keeps them honest about what the
    public engine surface provides and lets internals be refactored
    without silently changing what is measured.
    """

    code = "WPL005"
    name = "bench-imports-public-api"
    description = "benchmark imports a repro.core submodule instead of the public API"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.is_benchmark():
            return
        for edge in module.imports:
            if edge.dst.startswith("repro.core."):
                spelled = "from " if isinstance(edge.stmt, ast.ImportFrom) else ""
                yield self.finding(
                    module,
                    edge.stmt,
                    f"import {spelled}`repro.core` (public API), not `{edge.dst}`",
                )


class InFlightPairingRule(Rule):
    """WPL006: worker-loop in-flight accounting must be crash-proof.

    Whirlpool-M terminates when the in-flight counter drains; a worker
    body that decrements it *inline* leaks the count (and stalls
    termination until the deadlock backstop) the moment anything between
    the dequeue and the ``dec()`` raises.  Two checks, scoped to
    ``core/`` modules:

    - a statement-level ``<obj>.dec()`` call inside a loop body must sit
      in the ``finally`` block of a ``try`` — the only placement that
      survives a crashing body;
    - no bare ``except:`` handlers at all — swallowing ``SystemExit`` /
      ``KeyboardInterrupt`` in engine code hides crashed workers instead
      of containing them.
    """

    code = "WPL006"
    name = "inflight-pairing"
    description = "loop-body in_flight.dec() outside try/finally, or bare except, in core/"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.is_core():
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` swallows worker crashes (catch a concrete "
                    "exception type and record the failure)",
                )
        for finding in self._scan(module, module.tree.body, False, False):
            yield finding

    def _scan(
        self,
        module: SourceModule,
        stmts: Sequence[ast.stmt],
        in_loop: bool,
        in_finally: bool,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # A nested def is its own accounting scope.
                for finding in self._scan(module, stmt.body, False, False):
                    yield finding
                continue
            if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                for finding in self._scan(module, stmt.body, True, in_finally):
                    yield finding
                for finding in self._scan(module, stmt.orelse, True, in_finally):
                    yield finding
                continue
            if isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse):
                    for finding in self._scan(module, block, in_loop, in_finally):
                        yield finding
                for handler in stmt.handlers:
                    for finding in self._scan(
                        module, handler.body, in_loop, in_finally
                    ):
                        yield finding
                for finding in self._scan(module, stmt.finalbody, in_loop, True):
                    yield finding
                continue
            if in_loop and not in_finally and self._is_dec_call(stmt):
                yield self.finding(
                    module,
                    stmt,
                    "in-flight dec() inline in a loop body leaks the count "
                    "when the body raises (move it into `finally:`)",
                )
            for field in ("body", "orelse"):
                block = getattr(stmt, field, None)
                if block:
                    for finding in self._scan(module, block, in_loop, in_finally):
                        yield finding

    @staticmethod
    def _is_dec_call(stmt: ast.stmt) -> bool:
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "dec"
        )


class UnboundedServiceQueueRule(Rule):
    """WPL007: no unbounded stdlib queues in the service layer.

    The query service's entire backpressure story rests on its admission
    queue being *bounded*; an unbounded ``queue.Queue()`` (no ``maxsize``,
    or ``maxsize<=0``) or a ``SimpleQueue`` anywhere under
    ``src/repro/service/`` silently reopens the overload hole the
    admission policies exist to close.  A ``maxsize`` that is a positive
    constant, or any non-constant expression (assumed to be a validated
    capacity), is accepted.  Scoped to files inside a ``service``
    package directory.
    """

    code = "WPL007"
    name = "no-unbounded-service-queue"
    description = "unbounded queue.Queue/SimpleQueue constructed in service/ code"

    #: Bounded-capable constructors (first positional arg / kwarg is maxsize).
    _SIZED = {"Queue", "LifoQueue", "PriorityQueue"}
    #: Constructors with no capacity bound at all.
    _UNBOUNDED = {"SimpleQueue"}

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package("service"):
            return
        for node, target in _external_calls(module):
            source, _, ctor = target.rpartition(".")
            if source != "queue" or ctor not in self._SIZED | self._UNBOUNDED:
                continue
            if ctor in self._UNBOUNDED:
                yield self.finding(
                    module,
                    node,
                    f"{ctor} has no capacity bound; use the bounded "
                    f"AdmissionQueue (or a Queue with maxsize)",
                )
                continue
            maxsize = self._maxsize_argument(node)
            if maxsize is None:
                yield self.finding(
                    module,
                    node,
                    f"unbounded {ctor}() in service code: pass a positive "
                    f"maxsize (backpressure requires a bound)",
                )
            elif isinstance(maxsize, ast.Constant) and (
                maxsize.value is None
                or (isinstance(maxsize.value, (int, float)) and maxsize.value <= 0)
            ):
                yield self.finding(
                    module,
                    node,
                    f"{ctor}(maxsize={maxsize.value!r}) is unbounded: "
                    f"maxsize must be a positive capacity",
                )

    @staticmethod
    def _maxsize_argument(node: ast.Call) -> Optional[ast.expr]:
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "maxsize":
                return keyword.value
        return None


class NoWallclockDurationRule(Rule):
    """WPL008: no ``time.time()`` / ``time.time_ns()`` anywhere in ``repro``.

    Wall-clock timestamps step (NTP slews, suspend/resume), so durations
    derived from them lie — and every duration this repo records feeds a
    latency histogram, a span, or a deadline.  The sanctioned clock is
    :func:`repro.core.stats.monotonic_seconds`; ``stats.py`` gets no
    exemption here because even it has no business calling ``time.time``
    (its own exception, WPL004, covers the *monotonic* family only).
    """

    code = "WPL008"
    name = "no-wallclock-duration"
    description = "time.time()/time.time_ns() in repro code (use monotonic_seconds)"

    _FORBIDDEN = {"time.time", "time.time_ns"}

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package("repro"):
            return
        for record in module.external_imports:
            if record.target in self._FORBIDDEN:
                yield self.finding(
                    module,
                    record.stmt,
                    f"importing {record.target} invites wall-clock "
                    f"durations (use repro.core.stats.monotonic_seconds)",
                )
        for node, target in _external_calls(module):
            if target not in self._FORBIDDEN:
                continue
            if isinstance(node.func, ast.Name):
                message = f"{node.func.id}() is {target} — durations must use "
            else:
                message = f"{target}() measures the wall clock; durations must use "
            yield self.finding(
                module, node, message + "repro.core.stats.monotonic_seconds"
            )


class NoPickleSnapshotRule(Rule):
    """WPL009: no ``pickle``-family serialization anywhere in ``repro``.

    Recovery snapshots are the one thing this repo persists and reloads
    across process lifetimes, so they must stay versioned, inspectable
    and forward-portable JSON (:mod:`repro.recovery.codec`).  Pickle (and
    its relatives) would silently couple the on-disk format to class
    layout and import paths — a snapshot that stops loading after a
    refactor is worse than no snapshot — and unpickling untrusted files
    executes arbitrary code.  Import detection suffices: there is no
    sanctioned use anywhere in the package.
    """

    code = "WPL009"
    name = "no-pickle-snapshot"
    description = "pickle/marshal import in repro code (snapshots are versioned JSON)"

    _FORBIDDEN = {"pickle", "cPickle", "marshal", "shelve", "dill"}

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package("repro"):
            return
        for record in _imports_of(
            module, lambda target: target.split(".")[0] in self._FORBIDDEN
        ):
            root = record.target.split(".")[0]
            stmt = record.stmt
            spelled = (
                f"from {stmt.module} import ..."
                if isinstance(stmt, ast.ImportFrom)
                else f"import {record.target}"
            )
            yield self.finding(
                module,
                stmt,
                f"{spelled}: snapshots must use the versioned JSON codec "
                f"(repro.recovery.codec), not {root}",
            )


class NoDirectSleepRule(Rule):
    """WPL010: no direct ``time.sleep`` in ``repro`` outside the clock seam.

    Deterministic simulation rests on a single choke point for blocking
    on time: :mod:`repro.sim.clock`.  A stray ``time.sleep`` elsewhere is
    invisible to the :class:`~repro.sim.clock.VirtualClock` — it burns
    real wall seconds in every simulated chaos run *and* introduces a
    pacing wait no fault schedule can warp past, quietly breaking the
    ≥2× wall-time contract the simulation layer documents.  Pacing goes
    through ``simclock.sleep``/``simclock.wait``; progress waits on
    conditions go through ``simclock.wait_for``; only ``sim/clock.py``
    itself may call ``time.sleep``.
    """

    code = "WPL010"
    name = "no-direct-sleep"
    description = "direct time.sleep in repro code (route through repro.sim.clock)"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package("repro"):
            return
        if module.path.name == "clock.py" and module.in_package("sim"):
            return
        for record in module.external_imports:
            if record.target == "time.sleep":
                yield self.finding(
                    module,
                    record.stmt,
                    "importing time.sleep bypasses the clock seam "
                    "(use repro.sim.clock.sleep)",
                )
        for node, target in _external_calls(module):
            if target != "time.sleep":
                continue
            if isinstance(node.func, ast.Name):
                message = f"{node.func.id}() is time.sleep — "
            else:
                message = "direct time.sleep() is invisible to the VirtualClock; "
            yield self.finding(
                module, node, message + "route the wait through repro.sim.clock"
            )


def default_rules() -> List[Rule]:
    """One fresh instance of every built-in rule, code order."""
    return [
        SharedStateGuardRule(),
        NoBareThreadRule(),
        EngineContractRule(),
        NoWallclockInCoreRule(),
        BenchImportsPublicApiRule(),
        InFlightPairingRule(),
        UnboundedServiceQueueRule(),
        NoWallclockDurationRule(),
        NoPickleSnapshotRule(),
        NoDirectSleepRule(),
    ]
