"""Shared fixtures: the paper's Figure 1 book collection, XMark samples,
and the fault-free run shapes fault tests aim at."""

import pytest

from repro.bench.step_codec import begin_frame, drive_shard
from repro.cluster.partition import build_shard_specs
from repro.cluster.worker import ShardWorker
from repro.core.engine import Engine
from repro.core.topk import certificate_breach, ranked, topk_mismatch
from repro.faults.plan import ENGINE_SITES, FaultAction, FaultPlan, FaultRule
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.model import Database
from repro.xmldb.parser import parse_document
from repro.xmldb.stats import DatabaseStatistics
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig

#: Figure 1's heterogeneous book collection:
#: (a) the fully-nested book — matches query 2(a) exactly;
#: (b) publisher is a child of book, *not* of info (the paper: "publisher
#:     is not a child of info") — only relaxed queries reach it;
#: (c) title is a descendant (under reviews), publisher entirely missing —
#:     only the maximally relaxed query matches.
BOOKS_XML = """
<bib>
  <book>
    <title>wodehouse</title>
    <info>
      <publisher>
        <name>psmith</name>
        <location>london</location>
      </publisher>
      <isbn>1234</isbn>
    </info>
    <price>48.95</price>
  </book>
  <book>
    <title>wodehouse</title>
    <publisher>
      <name>psmith</name>
      <location>london</location>
    </publisher>
    <info>
      <isbn>1234</isbn>
    </info>
  </book>
  <book>
    <reviews>
      <title>wodehouse</title>
    </reviews>
    <name>london</name>
    <price>48.95</price>
  </book>
</bib>
"""


def run_fingerprint(result):
    """Everything a caller can observe of one run, minus machine noise:
    (answers, ``pending_bound``, every ``ExecutionStats`` counter but wall
    time) — what "bit-identical" means in the differential tests."""
    stats = result.stats.as_dict()
    del stats["wall_time_seconds"]
    return (
        [
            (tuple(answer.root_node.dewey), round(answer.score, 9))
            for answer in result.answers
        ],
        round(result.pending_bound, 9),
        stats,
    )


def full_ranking(engine):
    """(root Dewey, final score) of every root of ``engine``'s query, best
    first — the oracle side of :func:`assert_same_topk` /
    :func:`assert_certified`.  LockStep-NoPrun reads neither pruning level,
    so it shares no pruning bug with the engines under test."""
    return ranked(engine.run(10**9, algorithm="lockstep_noprun").answers)


def assert_same_topk(ranking, result, case=None):
    """``result`` is a correct top-k of ``ranking``: the shared rule
    (:func:`repro.core.topk.topk_mismatch` — scores equal position by
    position, each score level's roots equal as a set, any roots of the
    k-th level, no root twice).  ``case`` names the loop iteration in the
    failure message."""
    mismatch = topk_mismatch(ranking, ranked(result.answers), result.k)
    assert mismatch is None, (mismatch, case)


def assert_certified(ranking, result, case=None):
    """The degraded certificate, as stated once in
    :func:`repro.core.topk.certificate_ceiling`: no root ``result`` leaves
    out scores above ``max(pending_bound, k-th reported score)``."""
    assert result.pending_bound >= 0.0
    breach = certificate_breach(
        ranking, ranked(result.answers), result.k, result.pending_bound
    )
    assert breach is None, (breach, case)


def assert_exact_or_certified(ranking, result, case=None):
    """The contract of any run, faulted or budgeted: a correct top-k, or
    flagged ``degraded`` with a sound certificate."""
    if result.degraded:
        assert_certified(ranking, result, case)
    else:
        assert_same_topk(ranking, result, case)


@pytest.fixture(scope="session")
def books_db() -> Database:
    return parse_document(BOOKS_XML)


@pytest.fixture(scope="session")
def books_index(books_db) -> DatabaseIndex:
    return DatabaseIndex(books_db)


@pytest.fixture(scope="session")
def books_stats(books_index) -> DatabaseStatistics:
    return DatabaseStatistics(books_index)


@pytest.fixture(scope="session")
def xmark_db() -> Database:
    """A small deterministic XMark document (~60 items)."""
    return generate_database(XMarkConfig(items=60, seed=11))


@pytest.fixture(scope="session")
def xmark_db_large() -> Database:
    """A medium XMark document for integration tests (~150 items)."""
    return generate_database(XMarkConfig(items=150, seed=7))


@pytest.fixture
def service_constants(monkeypatch):
    """Set service tuning constants for one test: ``service_constants(
    MIN_CALLS=2, OPEN_SECONDS=60.0)``.  Each name is looked up in
    ``repro.service.breaker`` (the breaker tuning) and then
    ``repro.service.policies`` (the ``DEGRADE_*`` transform)."""
    from repro.service import breaker, policies

    def apply(**constants):
        for name, value in constants.items():
            module = breaker if hasattr(breaker, name) else policies
            assert hasattr(module, name), name
            monkeypatch.setattr(module, name, value)

    return apply


# -- the shape of a fault-free run ---------------------------------------------
#
# A fault test names where in a run its fault lands ("shard 0's last
# step", "the middle operation of server 2") and a budget as a share of the
# run, never as a number: the numbers come from running the same
# configuration once without faults.  A change that moves the engines'
# counts then moves every aim with them.

#: Every engine fault site, counted and left alone: a zero-second DELAY
#: on each operation.
COUNT_EVERY_SITE = FaultPlan(
    [
        FaultRule(site=site, action=FaultAction.DELAY, delay_seconds=0.0, every=1)
        for site in ENGINE_SITES
    ],
    seed=0,
)


def position(count, where):
    """The 1-based position ``where`` ("first", "middle", "last") names
    among ``count`` steps or operations."""
    assert count >= 1, count
    return {"first": 1, "middle": (count + 1) // 2, "last": count}[where]


class RunShape:
    """One fault-free engine run: its server operations, and the operations
    it made at each engine fault site per target (``"server_op:2"``,
    ``"queue_get:router"``), as the injector counts them."""

    def __init__(self, operations, sites):
        self.operations = operations
        self.sites = sites

    def busiest(self, site):
        """The most operations one target of ``site`` made: a rule without
        a target fires on any target's ``nth``, so this is its last."""
        return max(
            count for key, count in self.sites.items() if key.split(":")[0] == site
        )

    def nth(self, site, where, target=None):
        """The ``nth`` of the ``where`` operation at ``site`` (of
        ``target``, or of the busiest target when none is named)."""
        count = self.busiest(site) if target is None else self.sites[f"{site}:{target}"]
        return position(count, where)

    def budget(self, fraction):
        """``fraction`` of the run's server operations, at least one."""
        return max(1, int(self.operations * fraction))

    def lands(self, rule):
        """Does ``rule``'s first trigger (``nth`` or ``every``) fall inside
        this run?"""
        trigger = rule.nth if rule.nth is not None else rule.every
        return trigger is not None and trigger <= self.busiest(rule.site.value)


class ClusterShape:
    """The steps each shard takes at one step size."""

    def __init__(self, step_operations, steps):
        self.step_operations = step_operations
        self.steps = steps

    def rpc(self, shard, where):
        """The armed worker-RPC ``nth`` of ``shard``'s step ``where`` (a
        name, or a 1-based step number): ``begin`` is armed RPC 1, so
        step i is RPC i + 1."""
        step = position(self.steps[shard], where) if isinstance(where, str) else where
        assert 1 <= step <= self.steps[shard], (shard, where, self.steps)
        return step + 1


class Shapes:
    """Fault-free runs, each made once and kept: the module-scoped
    ``shapes`` fixture hands one of these to every test of a module."""

    def __init__(self):
        self._runs = {}

    def _once(self, key, make):
        if key not in self._runs:
            self._runs[key] = make()
        return self._runs[key]

    def run(self, key, run):
        """The shape of ``run(faults)`` (a callable returning a
        ``TopKResult``), made once per ``key``."""

        def make():
            plain = run(None)
            counted = run(COUNT_EVERY_SITE)
            sites = counted.failure.injection["site_counts"]
            operations = plain.stats.server_operations
            assert counted.stats.server_operations == operations, "counting moved the run"
            return RunShape(operations, sites)

        return self._once(("run", key), make)

    def engine(self, engine, k, algorithm="whirlpool_s", **options):
        """The shape of ``engine.run(k, algorithm, **options)``."""
        return self.run(
            (engine, k, algorithm, tuple(sorted(options.items()))),
            lambda faults: engine.run(k, algorithm=algorithm, faults=faults, **options),
        )

    def cluster(self, database, query, k, step_operations, algorithm="whirlpool_s"):
        """The steps each shard of ``Coordinator(database, shards=2,
        step_operations=…)`` takes on ``run_query(query, k, algorithm)``:
        the coordinator's split and contributions, each shard stepped to
        the end by an in-process worker."""

        def make():
            engine = self._once(("engine", database, query), lambda: Engine(database, query))
            begin = begin_frame(engine, k, step_operations, algorithm=algorithm)
            return ClusterShape(
                step_operations,
                [
                    drive_shard(ShardWorker(spec.shard_id), list(spec.xml_texts), begin)["steps"]
                    for spec in build_shard_specs(database, 2)
                ],
            )

        return self._once(("cluster", database, query, k, step_operations, algorithm), make)

    def stepped(self, database, query, k, steps, algorithm="whirlpool_s"):
        """The shape at the largest step size at which shard 0 takes at
        least ``steps`` steps."""

        def taken(size):
            return self.cluster(database, query, k, size, algorithm).steps[0]

        low, high = 16, 32
        while taken(low) < steps:
            assert low > 1, steps
            low, high = low // 2, low
        while taken(high) >= steps:
            low, high = high, high * 2
        while high - low > 1:  # taken(low) >= steps > taken(high)
            middle = (low + high) // 2
            low, high = (middle, high) if taken(middle) >= steps else (low, middle)
        return self.cluster(database, query, k, low, algorithm)


@pytest.fixture(scope="module")
def shapes():
    return Shapes()
