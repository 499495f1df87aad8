"""Shared fixtures: the paper's Figure 1 book collection and XMark samples."""

import pytest

from repro.core.topk import certificate_breach, ranked, topk_mismatch
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
