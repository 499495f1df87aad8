"""The simulation harness: invariants, explorer, and shrinker.

The flow under test is the whole counterexample pipeline: run plans
against a real engine under a :class:`VirtualClock`, judge every run
with the invariant suite, search fault timing with the explorer, and
delta-debug any violation down to a minimal reproducer.  The violation
is planted through ``invariant_tap`` (the documented test-only hook) so
the pipeline is exercised end-to-end without needing a real bug.
"""

import pytest

from repro.faults.plan import FaultAction, FaultPlan, FaultRule
from repro.sim.harness import SimError, SimHarness, SimScenario
from repro.sim.explore import ScheduleExplorer, explore
from repro.sim.shrink import (
    FIXTURE_VERSION,
    ScheduleShrinker,
    load_fixture,
    replay_fixture,
    shrink,
    write_fixture,
)

#: The default chaos pool plus CRASH, which the planted violation needs.
CHAOS_WITH_CRASH = FaultPlan.CHAOS_ACTIONS + (FaultAction.CRASH,)


@pytest.fixture(scope="module")
def scenario():
    return SimScenario(kind="engine")


@pytest.fixture(scope="module")
def harness(scenario):
    return SimHarness(scenario, virtual=True)


@pytest.fixture(scope="module")
def shape(shapes, scenario):
    """The scenario's fault-free run, which the faults aim at."""
    return shapes.engine(scenario.engine(), scenario.k, scenario.algorithm)


@pytest.fixture(scope="module")
def crash(shape):
    """A crash at the busiest server's middle operation."""
    nth = shape.nth("server_op", "middle")
    return FaultPlan([FaultRule("server_op", "crash", nth=nth, times=1)], name="crash")


def outcome_tap(run):
    """Planted violation: report a duplicated terminal outcome whenever
    the schedule crashed the engine (breaks ``single_outcome`` only)."""
    if run.crashed:
        run.outcomes = 2


class TestInvariantJudgement:
    def test_crash_schedule_passes_the_full_suite(self, harness, crash):
        run = harness.run(crash)
        assert run.crashed is True
        assert run.report is not None
        names = [verdict.name for verdict in run.report.verdicts]
        assert names == [
            "reference_clean",
            "topk_identity",
            "pending_bound_sound",
            "single_outcome",
            "no_leaked_state",
        ]
        assert run.ok(), run.report.to_json()

    def test_runs_are_deterministic(self, harness, crash):
        first = harness.run(crash)
        second = harness.run(crash)
        assert first.report.to_json() == second.report.to_json()

    def test_cluster_families_rejected_on_engine_scenario(self, harness):
        remote = FaultPlan([FaultRule("worker_rpc", "kill", target=0, nth=2, times=1)])
        with pytest.raises(SimError, match="cannot execute fault families"):
            harness.run(remote)

    def test_drop_then_crash_recovers_with_sound_certificate(self, harness, shape):
        # The explorer's first real catch: a DROP before the last
        # checkpoint followed by a CRASH.  Recovery must carry the lost
        # work (snapshot "lost" record) so the resumed run degrades with
        # a certificate instead of claiming exactness.  The drop takes
        # server 2's first operation and is shown to fire on its own; the
        # crash comes at the middle router pop.
        drop = FaultRule(
            "server_op", "drop", target="2", nth=shape.nth("server_op", "first", "2"), times=1
        )
        alone = harness.run(FaultPlan([drop]))
        assert alone.result.failure is not None
        assert len(alone.result.failure.dropped) == 1
        crash = FaultRule(
            "queue_get",
            "crash",
            target="router",
            nth=shape.nth("queue_get", "middle", "router"),
            times=1,
        )
        plan = FaultPlan([drop, crash])
        run = harness.run(plan)
        assert run.crashed
        assert run.result.degraded
        assert run.ok(), run.report.to_json()

    def test_probe_finds_yield_points(self, harness):
        points = harness.probe_yield_points()
        assert points  # at least one engine site observed operations
        assert all(count > 0 for count in points.values())
        assert any(key.startswith("server_op") for key in points)


class TestExplorer:
    def test_explorer_finds_the_planted_violation(self, scenario):
        tapped = SimHarness(scenario, virtual=True, invariant_tap=outcome_tap)
        violations, stats = explore(scenario, budget=24, seed=0, harness=tapped)
        assert violations, "explorer missed the planted violation"
        assert stats.violations == len(violations)
        assert stats.runs <= 24
        broken = {
            verdict.name
            for violation in violations
            for verdict in violation.run.report.violations()
        }
        assert broken == {"single_outcome"}

    def test_explorer_is_deterministic_per_seed(self, scenario):
        def found(seed):
            tapped = SimHarness(scenario, virtual=True, invariant_tap=outcome_tap)
            violations, _ = explore(scenario, budget=16, seed=seed, harness=tapped)
            return sorted(violation.describe() for violation in violations)

        assert found(3) == found(3)

    def test_perturbations_shift_one_step_at_a_time(self, harness):
        explorer = ScheduleExplorer(harness)
        plan = FaultPlan([FaultRule("server_op", "error", nth=5, times=1)])
        neighbours = explorer.perturbations(plan)
        steps = sorted(rule.nth for candidate in neighbours for rule in candidate.rules)
        assert steps == [3, 4, 6, 7]

    def test_clean_code_yields_no_violations(self, harness):
        violations, stats = explore(
            harness.scenario, budget=8, seed=1, harness=harness
        )
        assert violations == []
        assert stats.violations == 0


class TestShrinker:
    @pytest.fixture
    def noisy(self, shape, crash):
        # The planted bug needs only the crash; the delays are chaff the
        # shrinker must strip, and the crash's step must descend to 1.
        return FaultPlan(
            [
                FaultRule(
                    "server_op",
                    "delay",
                    nth=shape.nth("server_op", "first"),
                    times=1,
                    delay_seconds=0.001,
                ),
                *crash.rules,
                FaultRule(
                    "queue_put",
                    "delay",
                    nth=shape.nth("queue_put", "middle"),
                    times=1,
                    delay_seconds=0.001,
                ),
            ],
            name="noisy",
        )

    def test_shrinks_to_a_single_step_one_trigger(self, scenario, noisy):
        tapped = SimHarness(scenario, virtual=True, invariant_tap=outcome_tap)
        shrinker = ScheduleShrinker(tapped)
        minimal = shrinker.shrink(noisy)
        assert len(minimal.rules) <= 3  # the acceptance bar...
        assert minimal.describe() == ["crash@server_op [nth=1 times=1]"]  # ...and the fact
        assert minimal.name == "noisy"
        assert shrinker.stats.reductions >= 2

    def test_shrink_is_deterministic(self, scenario, noisy):
        def minimized():
            tapped = SimHarness(scenario, virtual=True, invariant_tap=outcome_tap)
            return ScheduleShrinker(tapped).shrink(noisy)

        assert minimized().describe() == minimized().describe()

    def test_shrink_rejects_a_passing_schedule(self, harness, crash):
        with pytest.raises(ValueError, match="passed all invariants"):
            ScheduleShrinker(harness).shrink(crash)

    def test_a_chaos_matrix_plan_shrinks_directly(self, tmp_path, scenario, harness):
        # The payoff of one vocabulary: a seeded chaos plan — every= and
        # times= rules the explorer never draws — is what the shrinker
        # takes, with no translation step in between.
        chaos = FaultPlan.chaos(5, actions=CHAOS_WITH_CRASH)
        assert chaos.describe() == [
            "drop@queue_get [every=15 times=5]",
            "delay@router [every=4 times=1]",
            "crash@queue_put [every=11 times=2]",
        ]
        tapped = SimHarness(scenario, virtual=True, invariant_tap=outcome_tap)
        minimal = shrink(tapped, chaos)
        assert minimal.describe() == ["crash@queue_put [every=11 times=2]"]
        assert minimal.seed == chaos.seed
        violated = tapped.run(minimal).report.violations()
        assert [verdict.name for verdict in violated] == ["single_outcome"]
        # ...and it is a corpus reproducer like any other.  (Recorded on
        # the untapped harness: the planted bug lives in the tap, and a
        # replay has none.)
        run = harness.run(minimal)
        path = write_fixture(tmp_path / "chaos.json", scenario, run, "chaos")
        assert load_fixture(path)["plan"] == minimal
        replay = replay_fixture(path)
        assert replay["run"].crashed
        assert replay["matches"], (replay["recorded"], replay["replayed"])


class TestFixtureRoundTrip:
    def test_write_load_replay(self, tmp_path, scenario, harness, crash):
        run = harness.run(crash)
        path = write_fixture(tmp_path / "crash.json", scenario, run, "crash")
        fixture = load_fixture(path)
        assert fixture["name"] == "crash"
        assert fixture["plan"] == crash
        assert fixture["scenario"].as_dict() == scenario.as_dict()
        replay = replay_fixture(path)
        assert replay["matches"], (replay["recorded"], replay["replayed"])

    def test_unsupported_fixture_version_rejected(
        self, tmp_path, scenario, harness, crash
    ):
        run = harness.run(crash)
        path = write_fixture(tmp_path / "crash.json", scenario, run, "crash")
        mangled = path.read_text(encoding="utf-8").replace(
            f'"version": {FIXTURE_VERSION}', '"version": 99'
        )
        path.write_text(mangled, encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported sim fixture version"):
            load_fixture(path)

    def test_scenario_key_this_build_does_not_know_is_rejected(self, scenario):
        # A fixture recorded before the one-link cluster names a transport.
        with pytest.raises(SimError, match="transport"):
            SimScenario.from_dict({**scenario.as_dict(), "transport": "pipe"})
