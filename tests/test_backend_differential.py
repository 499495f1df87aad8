"""Backend differential matrix: columnar and object indexes are bit-identical.

The columnar backend is a pure representation change — every observable of
a run (top-k answers, the ``pending_bound`` certificate, every
``ExecutionStats`` counter) must match the object backend exactly, on
every seed, engine, and workload.  Only the *probe cost* accounting may
differ: that difference is the measured speedup, asserted at the end.

Every case runs twice on one ``Engine`` — first against a cold probe memo,
then against the memo that run warmed — and the two must be bit-identical
as well: the memo is Engine-owned, and what it holds may never show.
"""

import random

import pytest

from repro.bench.params import QUERIES
from repro.bench.workloads import get_database
from repro.core.engine import Engine
from repro.core.whirlpool_s import WhirlpoolS
from repro.xmldb.model import Database, XMLNode
from tests.conftest import run_fingerprint

SEEDS = range(20)
ALGORITHMS = ("whirlpool_s", "lockstep", "lockstep_noprun")
TAGS = ("r", "x", "y", "z")


def _random_database(rng: random.Random) -> Database:
    def build(depth):
        node = XMLNode(rng.choice(TAGS))
        if depth > 0:
            for _ in range(rng.randint(0, 3)):
                node.add_child(build(depth - 1))
        return node

    roots = [build(3) for _ in range(rng.randint(1, 3))]
    roots.append(XMLNode("r"))
    for root in roots:
        if rng.random() < 0.7 and root.tag != "r":
            root.tag = "r"
    return Database.from_roots(roots)


def _random_xpath(rng: random.Random) -> str:
    axes = ("/", "//")
    steps = [f".{rng.choice(axes)}{rng.choice(TAGS[1:])}" for _ in range(rng.randint(1, 3))]
    return "//r[" + " and ".join(steps) + "]"


class TestRandomMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_bit_identical_across_engines(self, seed):
        rng = random.Random(seed)
        database = _random_database(rng)
        xpath = _random_xpath(rng)
        k = rng.randint(1, 5)
        for algorithm in ALGORITHMS:
            prints = {}
            for backend in ("object", "columnar"):
                engine = Engine(database, xpath, index_backend=backend)
                cold = run_fingerprint(engine.run(k, algorithm=algorithm))
                warm = run_fingerprint(engine.run(k, algorithm=algorithm))
                assert warm == cold, (seed, algorithm, xpath, backend)
                prints[backend] = cold
            assert prints["columnar"] == prints["object"], (seed, algorithm, xpath)


class TestFig10Workloads:
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_backends_bit_identical_on_fig10(self, query):
        database = get_database()
        engines = {
            backend: Engine(database, QUERIES[query], index_backend=backend)
            for backend in ("object", "columnar")
        }
        for k in (3, 15, 75):
            prints = {}
            for backend, engine in engines.items():
                prints[backend] = run_fingerprint(engine.run(k, algorithm="whirlpool_s"))
                again = run_fingerprint(engine.run(k, algorithm="whirlpool_s"))
                assert again == prints[backend], (query, k, backend)
            assert prints["columnar"] == prints["object"], (query, k)

    def test_columnar_probe_units_beat_object_on_fig10(self):
        database = get_database()
        totals = {}
        for backend in ("object", "columnar"):
            units = 0
            for query in QUERIES.values():
                # A default engine's build sweeps the index (the same merge
                # on both backends) and its runs probe nothing: the probes
                # compared are a cold run's, built with private memos — as
                # the fig10_backend_speedup artifact counts them.
                engine = Engine(database, query, index_backend=backend)
                engine.index.reset_probe_cost()
                WhirlpoolS(engine.pattern, engine.index, engine.score_model, 15).run()
                units += engine.index.probe_cost()[0]
            totals[backend] = units
        # The acceptance bar: >= 1.5x fewer modeled comparisons.
        assert totals["object"] >= 1.5 * totals["columnar"] > 0, totals

