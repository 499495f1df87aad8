"""Shared fixtures: the paper's Figure 1 book collection and XMark samples."""

import pytest

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
