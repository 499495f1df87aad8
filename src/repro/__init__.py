"""Whirlpool — adaptive processing of top-k queries in XML.

A full reproduction of Marian, Amer-Yahia, Koudas & Srivastava,
*"Adaptive Processing of Top-k Queries in XML"* (ICDE 2005): tree-pattern
queries over XML forests, the three-relaxation approximation framework,
XML tf*idf scoring, and the adaptive Whirlpool-S / Whirlpool-M engines with
their LockStep baselines.

Quickstart::

    import repro

    database = repro.parse_document(open("books.xml").read())
    result = repro.topk(database, "/book[.//title = 'wodehouse']", k=3)
    for answer in result.answers:
        print(f"{answer.score:.3f}  {answer.root_node}")

Package map: :mod:`repro.xmldb` (XML substrate), :mod:`repro.xmark`
(document generator), :mod:`repro.query` (tree patterns),
:mod:`repro.relax` (relaxations + plans), :mod:`repro.scoring` (tf*idf),
:mod:`repro.core` (engines), :mod:`repro.recovery` (checkpoint /
restore snapshots), :mod:`repro.service` (embedded query service:
admission control, circuit breakers, graceful drain, crash recovery),
:mod:`repro.bench` (experiment harness and the Whirlpool-M
makespan model).
"""

from repro.core.engine import Engine, topk
from repro.core.base import TopKResult
from repro.core.queues import QueuePolicy
from repro.core.topk import TopKAnswer
from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.xpath import parse_xpath
from repro.scoring.model import (
    MatchQuality,
    RandomScoreModel,
    ScoreModel,
    TableScoreModel,
    TfIdfScoreModel,
    build_score_model,
)
from repro.xmldb.model import Database, XMLDocument, XMLNode
from repro.xmldb.parser import parse_document, parse_forest
from repro.xmldb.serializer import document_size_bytes, serialize
from repro.errors import (
    EngineError,
    GeneratorError,
    PatternError,
    RecoveryError,
    RelaxationError,
    ReproError,
    ScoringError,
    ServiceError,
    XMLParseError,
    XPathSyntaxError,
)
from repro.recovery import (
    CheckpointPolicy,
    JsonFileRecoveryStore,
    MemoryRecoveryStore,
    RecoveryStore,
)
from repro.service import Outcome, QueryRequest, QueryResponse, WhirlpoolService

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "topk",
    "TopKResult",
    "TopKAnswer",
    "QueuePolicy",
    "Axis",
    "PatternNode",
    "TreePattern",
    "parse_xpath",
    "MatchQuality",
    "ScoreModel",
    "TfIdfScoreModel",
    "RandomScoreModel",
    "TableScoreModel",
    "build_score_model",
    "Database",
    "XMLDocument",
    "XMLNode",
    "parse_document",
    "parse_forest",
    "serialize",
    "document_size_bytes",
    "ReproError",
    "XMLParseError",
    "XPathSyntaxError",
    "PatternError",
    "RelaxationError",
    "ScoringError",
    "EngineError",
    "ServiceError",
    "RecoveryError",
    "GeneratorError",
    "CheckpointPolicy",
    "RecoveryStore",
    "MemoryRecoveryStore",
    "JsonFileRecoveryStore",
    "Outcome",
    "QueryRequest",
    "QueryResponse",
    "WhirlpoolService",
    "__version__",
]
