"""Fault-injection suite: the chaos matrix and the degradation contract.

The promise under test (docs/robustness.md): under any seeded fault plan,
every engine **returns** — and the result is either a correct top-k
(``repro.core.topk.topk_mismatch``: the scores, and the roots up to ties
at the k-th), or it is flagged ``degraded`` and carries a valid anytime
certificate: no root missing from the result can score above
``max(pending_bound, k-th reported score)``
(``repro.core.topk.certificate_ceiling``).

The chaos matrix sweeps ``FaultPlan.chaos`` seeds across all three
engine families (Whirlpool-S, Whirlpool-M with two threads per server,
LockStep), checking both sides of that contract against the brute-force
LockStep-NoPrun ranking.
"""

import json
from pathlib import Path

import pytest

from repro.core.engine import Engine
from repro.core.trace import ExecutionTrace
from repro.errors import EngineError, FaultPlanError, InjectedFaultError
from repro.faults import (
    FailureAction,
    FaultAction,
    FaultPlan,
    FaultRule,
    FaultSite,
    RetryPolicy,
    Supervisor,
)
from tests.conftest import assert_exact_or_certified, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 8

CHAOS_SEEDS = range(20)

ENGINES = [
    ("whirlpool_s", {}),
    ("whirlpool_m", {}),
    ("lockstep", {}),
]

#: (errors, retries, requeues, abandoned matches) of the dead-server run
#: on ``QUERY`` over ``xmark_db``, per single-threaded engine.
DEAD_SERVER_COUNTS = {
    "whirlpool_s": (968, 484, 158, 326),
    "lockstep": (120, 60, 0, 60),
}

#: Fast recovery bounds so dead-server scenarios exhaust quickly.
FAST_RETRY = RetryPolicy(
    max_attempts=2, requeue_limit=1, base_delay=0.0001, max_delay=0.0005, jitter=0.0
)


@pytest.fixture(scope="module")
def engine(xmark_db):
    return Engine(xmark_db, QUERY)


@pytest.fixture(scope="module")
def ranking(engine):
    """Every root with its true score, best first: LockStep-NoPrun computes
    every match through every server under the same score model and reads
    no pruning level (``tests.conftest.full_ranking``)."""
    return full_ranking(engine)


def run_one(engine, algorithm, seed=None, faults=None, **kwargs):
    if seed is not None:
        faults = FaultPlan.chaos(seed)
    extra = {"threads_per_server": 2} if algorithm == "whirlpool_m" else {}
    # threads_per_server is a constructor knob not exposed by the facade;
    # go through the algorithm registry directly for the M configuration.
    if extra:
        from repro.core.engine import ALGORITHMS
        from repro.core.router import make_router

        cls = ALGORITHMS[algorithm]
        return cls(
            pattern=engine.pattern,
            index=engine.index,
            score_model=engine.score_model,
            k=K,
            faults=faults,
            router=make_router("min_alive"),
            **extra,
            **kwargs,
        ).run()
    return engine.run(K, algorithm=algorithm, faults=faults, **kwargs)


def assert_contract(result, ranking):
    """A correct top-k when not degraded; certified when degraded."""
    # Every reported answer names a genuine query root, and its score
    # never exceeds the true score — injection may lose work (leaving a
    # best-known partial score behind), it must never inflate scores.
    true_scores = dict(ranking)
    for answer in result.answers:
        assert answer.score <= true_scores[answer.root_node.dewey] + 1e-9

    # Fault-free semantics — the final scores, and the roots up to ties at
    # the k-th — or a certificate covering everything that went missing.
    assert_exact_or_certified(ranking, result)
    if result.degraded:
        assert result.pending_bound != float("inf")
        assert result.failure is not None


class TestChaosMatrix:
    @pytest.mark.parametrize("algorithm", [name for name, _ in ENGINES])
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_contract(self, engine, ranking, algorithm, seed):
        result = run_one(engine, algorithm, seed=seed, retry_policy=FAST_RETRY)
        assert_contract(result, ranking)

    def test_chaos_plans_are_deterministic(self):
        for seed in CHAOS_SEEDS:
            assert FaultPlan.chaos(seed).describe() == FaultPlan.chaos(seed).describe()
        # Different seeds produce different schedules at least once.
        assert len({tuple(FaultPlan.chaos(s).describe()) for s in CHAOS_SEEDS}) > 1

    def test_per_seed_schedules_are_pinned(self):
        """Every field of every rule the three seeded generators draw,
        as captured before the generators were merged: a reshuffled draw
        order would pass every matrix (each seed still equals itself)
        while silently testing different schedules."""
        golden = json.loads(
            (Path(__file__).parent / "fixtures" / "faults" / "chaos_golden.json").read_text(
                encoding="utf-8"
            )
        )

        def drawn(plan):
            return {"seed": plan.seed, "rules": [rule.as_dict() for rule in plan.rules]}

        for seed in CHAOS_SEEDS:
            assert drawn(FaultPlan.chaos(seed)) == golden["chaos"][str(seed)]
            crash_pool = FaultPlan.chaos(seed, actions=(FaultAction.CRASH,))
            assert drawn(crash_pool) == golden["chaos_crash"][str(seed)]
            for shards in (2, 3):
                key = f"{seed}/{shards}"
                assert drawn(FaultPlan.worker_chaos(seed, shards)) == golden["worker_chaos"][key]
                assert drawn(FaultPlan.net_chaos(seed, shards)) == golden["net_chaos"][key]


class TestDeadServer:
    """The ISSUE's acceptance scenario: one server permanently failing."""

    @pytest.mark.parametrize("algorithm", [name for name, _ in ENGINES])
    def test_dead_server_returns_with_certificate(
        self, engine, ranking, algorithm
    ):
        dead = engine.server_node_ids()[0]
        plan = FaultPlan(
            [
                FaultRule(
                    site=FaultSite.SERVER_OP,
                    action=FaultAction.ERROR,
                    target=dead,
                    every=1,  # every operation at this server fails, forever
                    message="server down",
                )
            ]
        )
        result = run_one(
            engine, algorithm, retry_policy=FAST_RETRY, faults=plan
        )
        assert result.degraded
        assert result.pending_bound > 0.0
        assert_contract(result, ranking)
        report = result.failure
        assert report is not None
        # Every failed visit fails both attempts (FAST_RETRY), then is
        # requeued once or abandoned: the ladder's counts tie together.
        errors = report.error_counts[f"server:{dead}"]
        abandoned = len(report.failed_matches)  # abandoned, not silently lost
        assert set(report.error_counts) == {f"server:{dead}"}
        assert errors == 2 * report.retries
        assert report.retries == report.requeues + abandoned
        if algorithm in DEAD_SERVER_COUNTS:
            # The single-threaded engines' ladder, step for step.
            assert (errors, report.retries, report.requeues, abandoned) == (
                DEAD_SERVER_COUNTS[algorithm]
            )
        else:  # Whirlpool-M's routing reads a threshold its threads race on
            assert abandoned > 0 and report.retries > 0

    def test_transient_error_recovers_exactly(self, engine, ranking):
        target = engine.server_node_ids()[0]
        plan = FaultPlan(
            [
                FaultRule(
                    site=FaultSite.SERVER_OP,
                    action=FaultAction.ERROR,
                    target=target,
                    nth=3,
                    times=1,
                    message="transient blip",
                )
            ]
        )
        result = run_one(engine, "whirlpool_s", faults=plan)
        # One retry absorbs the blip: answers are exact, and the report
        # says what happened.
        assert not result.degraded
        assert_contract(result, ranking)
        report = result.failure
        assert report is not None
        assert report.error_counts == {f"server:{target}": 1}
        assert (report.retries, report.requeues, len(report.failed_matches)) == (1, 0, 0)

    def test_requeue_excludes_failing_server(self, engine, ranking):
        target = engine.server_node_ids()[0]
        # Exhaust retries on the first visit (2 fires > max_attempts=2
        # fails both tries), then the rule dies and the requeued match
        # eventually completes on a later visit.
        plan = FaultPlan(
            [
                FaultRule(
                    site=FaultSite.SERVER_OP,
                    action=FaultAction.ERROR,
                    target=target,
                    every=1,
                    times=2,
                    message="flaky server",
                )
            ]
        )
        trace = ExecutionTrace()
        result = run_one(
            engine, "whirlpool_s", retry_policy=FAST_RETRY, faults=plan, observer=trace
        )
        report = result.failure
        assert report is not None
        # Both attempts of the first visit fail (one retry), the match is
        # requeued once, and nothing is abandoned.
        assert report.error_counts == {f"server:{target}": 2}
        assert (report.retries, report.requeues, len(report.failed_matches)) == (1, 1, 0)
        assert_contract(result, ranking)
        # The match that failed at ``target`` is the first one routed there;
        # its next routing decision must go somewhere else.
        routes = [event for event in trace.events if event.kind == "route"]
        failed = next(event for event in routes if event.server_id == target)
        again = [event for event in routes if event.match_id == failed.match_id]
        assert again[0] is failed and again[1].server_id != target
        # ... and the empty answer every fault-free decision shares stayed empty.
        assert Supervisor().excluded_for(failed.match_id) == frozenset()


class TestBudgets:
    @pytest.mark.parametrize("algorithm", ["whirlpool_s", "lockstep"])
    def test_operation_budget_degrades_with_certificate(
        self, engine, ranking, algorithm
    ):
        result = run_one(engine, algorithm, max_operations=5)
        assert result.stats.server_operations <= 6
        assert result.degraded
        assert_contract(result, ranking)

    @pytest.mark.parametrize("algorithm", [name for name, _ in ENGINES])
    def test_deadline_returns_promptly(self, engine, ranking, algorithm):
        import time

        started = time.perf_counter()
        result = run_one(engine, algorithm, deadline_seconds=0.001)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0  # returns, rather than running to completion
        assert_contract(result, ranking)

    def test_zero_operations_budget_reports_everything_pending(
        self, engine, ranking
    ):
        result = run_one(engine, "whirlpool_s", max_operations=0)
        assert result.stats.server_operations == 0
        assert result.degraded
        # Nothing was processed: the certificate must cover the whole
        # oracle answer set.
        assert_contract(result, ranking)

    def test_budget_validation(self, engine):
        with pytest.raises(EngineError):
            engine.run(K, deadline_seconds=0.0)
        with pytest.raises(EngineError):
            engine.run(K, max_operations=-1)


class TestPlanAndSupervisorUnits:
    def test_rule_requires_a_trigger(self):
        with pytest.raises(ValueError):
            FaultRule(FaultSite.ROUTER, FaultAction.ERROR)

    @pytest.mark.parametrize(
        "site, action",
        [
            (FaultSite.SERVER_OP, FaultAction.KILL),  # used to run as an ERROR
            (FaultSite.WORKER_RPC, FaultAction.ERROR),  # used to fire and do nothing
            (FaultSite.NET, FaultAction.DROP),  # likewise
        ],
    )
    def test_rule_rejects_an_action_its_site_cannot_execute(self, site, action):
        with pytest.raises(FaultPlanError, match="not valid at site"):
            FaultRule(site, action, target="0", nth=1)

    def test_rule_trigger_predicates(self):
        import random

        rng = random.Random(0)
        nth = FaultRule(FaultSite.ROUTER, FaultAction.DELAY, nth=3)
        assert [nth.triggers(i, rng) for i in (1, 2, 3, 4)] == [
            False,
            False,
            True,
            False,
        ]
        every = FaultRule(FaultSite.ROUTER, FaultAction.DELAY, every=2)
        assert [every.triggers(i, rng) for i in (1, 2, 3, 4)] == [
            False,
            True,
            False,
            True,
        ]

    def test_injected_error_is_engine_error(self):
        error = InjectedFaultError("server_op", "3", "boom")
        assert isinstance(error, EngineError)
        assert error.site == "server_op"
        assert error.target == "3"

    def test_supervisor_escalation_ladder(self, engine):
        from repro.core.match import PartialMatch

        node = engine.index[engine.pattern.root.tag].all()[0]
        match = PartialMatch.initial(node)
        supervisor = Supervisor(RetryPolicy(max_attempts=2, requeue_limit=1))
        boom = RuntimeError("boom")
        nothing_excluded = supervisor.excluded_for(match.match_id)
        assert nothing_excluded == frozenset()
        assert supervisor.on_error(match, 1, boom, True) is FailureAction.RETRY
        assert supervisor.on_error(match, 1, boom, True) is FailureAction.REQUEUE
        assert 1 in supervisor.excluded_for(match.match_id)
        # Before any requeue every caller gets one shared empty set: it is
        # immutable, and an exclusion recorded later never shows up in it.
        assert isinstance(nothing_excluded, frozenset) and not nothing_excluded
        assert Supervisor().excluded_for(match.match_id) is nothing_excluded
        assert supervisor.excluded_for(match.match_id + 1) == frozenset()
        assert supervisor.on_error(match, 1, boom, True) is FailureAction.ABANDON
        assert supervisor.abandoned_count() == 1
        assert supervisor.max_abandoned_bound() == match.upper_bound
        counts, retries, requeues = supervisor.counters()
        assert counts == {"server:1": 3}
        assert (retries, requeues) == (1, 1)

    def test_supervisor_abandons_without_alternatives(self, engine):
        from repro.core.match import PartialMatch

        node = engine.index[engine.pattern.root.tag].all()[0]
        match = PartialMatch.initial(node)
        supervisor = Supervisor(RetryPolicy(max_attempts=1, requeue_limit=5))
        action = supervisor.on_error(match, 2, RuntimeError("x"), alternatives=False)
        assert action is FailureAction.ABANDON

    def test_backoff_is_capped_by_max_seconds(self):
        import time

        supervisor = Supervisor(
            RetryPolicy(base_delay=5.0, max_delay=5.0, jitter=0.0)
        )
        started = time.perf_counter()
        supervisor.pause(supervisor.retry_delay(1, 2, max_seconds=0.05))
        assert time.perf_counter() - started < 1.0

    def test_interrupt_cancels_backoff_waits(self):
        import time

        supervisor = Supervisor(
            RetryPolicy(base_delay=5.0, max_delay=5.0, jitter=0.0)
        )
        supervisor.interrupt()
        started = time.perf_counter()
        supervisor.pause(supervisor.retry_delay(1, 2))  # uncapped; the event is set
        assert time.perf_counter() - started < 1.0

    def test_backoff_respects_engine_deadline(self, engine):
        """Regression: retry backoff used to sleep past the engine deadline.

        Every operation fails and the policy asks for 5-second sleeps; the
        0.2-second deadline must cap each backoff at the remaining budget,
        so the run returns promptly instead of serving the full sleeps.
        """
        import time

        slow_retry = RetryPolicy(
            max_attempts=3, requeue_limit=1, base_delay=5.0, max_delay=5.0, jitter=0.0
        )
        plan = FaultPlan(
            [FaultRule(site=FaultSite.SERVER_OP, action=FaultAction.ERROR, every=1)]
        )
        started = time.perf_counter()
        result = run_one(
            engine,
            "whirlpool_s",
            faults=plan,
            retry_policy=slow_retry,
            deadline_seconds=0.2,
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 3.0  # one uncapped backoff alone would take 5s
        assert result.degraded

    def test_degraded_result_renders(self, engine):
        result = run_one(engine, "whirlpool_s", max_operations=2)
        assert result.degraded
        assert "degraded" in result.table()
        assert "degraded" in repr(result)
        payload = result.failure.as_dict()
        assert set(payload) >= {"failed_matches", "error_counts", "dropped"}
