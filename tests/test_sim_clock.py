"""The clock seam: warp semantics, seam routing, and chaos equivalence.

The contract under test (docs/simulation.md): a ``VirtualClock`` warps
pacing sleeps and timed-out pacing waits into offset arithmetic — time
always advances at least as fast as real time — while progress waits
(``wait_for``) are never simulated away.  Because every timed path in
``src/repro`` routes through :mod:`repro.sim.clock` (lint rule WPL010),
installing the virtual clock makes chaos runs *equivalent but faster*:
same answers, same degradation flags, a fraction of the wall time.
"""

import threading
import time

import pytest

import repro.sim.clock as simclock
from repro.core.engine import Engine
from repro.core.stats import monotonic_seconds
from repro.faults.plan import FaultAction, FaultPlan, FaultRule, FaultSite
from repro.faults.supervisor import RetryPolicy
from repro.sim.clock import RealClock, VirtualClock, get_clock, set_clock, use_clock
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.conftest import assert_same_topk, full_ranking

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"
K = 4

FAST_RETRY = RetryPolicy(
    max_attempts=2, requeue_limit=1, base_delay=0.0001, max_delay=0.0005, jitter=0.0
)


@pytest.fixture(scope="module")
def database():
    return generate_database(XMarkConfig(items=40, seed=7))


def answer_keys(result):
    return [
        (tuple(answer.root_node.dewey), repr(answer.score))
        for answer in result.answers
    ]


class TestVirtualClock:
    def test_sleep_warps_instead_of_blocking(self):
        clock = VirtualClock()
        before = clock.now()
        started = time.monotonic()
        clock.sleep(30.0)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0  # thirty virtual seconds cost ~no wall time
        assert clock.now() - before >= 30.0

    def test_time_advances_at_least_as_fast_as_real(self):
        clock = VirtualClock()
        lower = time.monotonic()
        clock.sleep(5.0)
        assert clock.now() >= lower + 5.0
        assert clock.now() >= time.monotonic()  # offset only ever grows

    def test_stats_account_for_every_warp(self):
        clock = VirtualClock()
        clock.sleep(1.0)
        clock.sleep(2.5)
        clock.sleep(0.0)  # no-op, not counted
        snap = clock.stats()
        assert snap["sleeps"] == 2
        assert snap["warped_seconds"] == pytest.approx(3.5)

    def test_wait_returns_true_on_set_event_without_warping(self):
        clock = VirtualClock()
        event = threading.Event()
        event.set()
        assert clock.wait(event, 10.0) is True
        assert clock.stats()["warped_seconds"] == 0.0

    def test_wait_warps_past_a_timeout_that_would_expire(self):
        clock = VirtualClock()
        event = threading.Event()
        before = clock.now()
        started = time.monotonic()
        assert clock.wait(event, 20.0) is False
        assert time.monotonic() - started < 1.0
        assert clock.now() - before >= 20.0

    def test_unbounded_wait_is_a_real_wait(self):
        # No timeout means no duration to credit: the virtual clock must
        # genuinely block until another thread sets the event.
        clock = VirtualClock()
        event = threading.Event()
        setter = threading.Timer(0.05, event.set)
        setter.start()
        try:
            assert clock.wait(event, None) is True
        finally:
            setter.cancel()

    @pytest.mark.parametrize("clock", [RealClock(), VirtualClock()])
    def test_wait_for_is_a_progress_wait_on_both_clocks(self, clock):
        condition = threading.Condition()
        state = {"ready": False}

        def make_ready():
            with condition:
                state["ready"] = True
                condition.notify_all()

        setter = threading.Timer(0.05, make_ready)
        setter.start()
        try:
            assert clock.wait_for(condition, lambda: state["ready"], 5.0) is True
        finally:
            setter.cancel()
        assert state["ready"] is True


class TestSeamRouting:
    def test_monotonic_seconds_reads_the_installed_clock(self):
        with use_clock(VirtualClock()) as clock:
            before = monotonic_seconds()
            clock.sleep(40.0)
            assert monotonic_seconds() - before >= 40.0

    def test_use_clock_restores_the_previous_clock(self):
        original = get_clock()
        inner = VirtualClock()
        with use_clock(inner):
            assert get_clock() is inner
        assert get_clock() is original

    def test_set_clock_returns_the_displaced_clock(self):
        original = get_clock()
        replacement = RealClock()
        displaced = set_clock(replacement)
        try:
            assert displaced is original
            assert get_clock() is replacement
        finally:
            set_clock(original)

    def test_env_var_selects_the_virtual_clock(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CLOCK", "virtual")
        assert isinstance(simclock._initial_clock(), VirtualClock)
        monkeypatch.setenv("REPRO_SIM_CLOCK", "")
        assert isinstance(simclock._initial_clock(), RealClock)


class TestChaosUnderVirtualClock:
    def _delay_plan(self):
        return FaultPlan(
            [
                FaultRule(
                    site=FaultSite.SERVER_OP,
                    action=FaultAction.DELAY,
                    every=1,
                    delay_seconds=0.02,
                )
            ],
            seed=0,
        )

    def test_delay_heavy_run_is_at_least_twice_as_fast(self, database):
        engine = Engine(database, QUERY)
        with use_clock(RealClock()):
            started = time.monotonic()
            real = engine.run(
                K, faults=self._delay_plan(), retry_policy=FAST_RETRY
            )
            real_wall = time.monotonic() - started
        with use_clock(VirtualClock()) as clock:
            started = time.monotonic()
            virtual = engine.run(
                K, faults=self._delay_plan(), retry_policy=FAST_RETRY
            )
            virtual_wall = time.monotonic() - started
        assert answer_keys(virtual) == answer_keys(real)
        assert clock.stats()["warped_seconds"] > 0.0
        assert real_wall > 0.1  # the delays genuinely cost wall time...
        assert real_wall >= 2.0 * virtual_wall  # ...and the warp removes them

    @pytest.mark.parametrize("algorithm", ["whirlpool_s", "whirlpool_m", "lockstep"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
    def test_chaos_matrix_subset_is_clock_equivalent(
        self, database, algorithm, seed
    ):
        # The acceptance bar: the existing chaos lottery passes unchanged
        # under the virtual clock — same answers, same degradation flag.
        engine = Engine(database, QUERY)
        with use_clock(RealClock()):
            real = engine.run(
                K,
                algorithm=algorithm,
                faults=FaultPlan.chaos(seed),
                retry_policy=FAST_RETRY,
            )
        with use_clock(VirtualClock()):
            virtual = engine.run(
                K,
                algorithm=algorithm,
                faults=FaultPlan.chaos(seed),
                retry_policy=FAST_RETRY,
            )
        assert virtual.degraded == real.degraded
        if not real.degraded:
            ranking = full_ranking(engine)
            assert_same_topk(ranking, real)
            assert_same_topk(ranking, virtual)
