"""Whirlpool core: the paper's adaptive top-k engines (Section 5).

Building blocks:

- :mod:`repro.core.match` — partial matches (the "tuples" flowing through
  the system) with incremental scores and upper bounds;
- :mod:`repro.core.topk` — the shared top-k set with the
  one-match-per-root invariant and score-based pruning;
- :mod:`repro.core.server` — one server per non-root query node
  (Algorithm 1's predicate machinery + extension generation);
- :mod:`repro.core.queues` — the four server-queue prioritization policies
  (Section 6.1.3);
- :mod:`repro.core.router` — static and adaptive routing strategies
  (Section 6.1.4);
- :mod:`repro.core.whirlpool_s` / :mod:`repro.core.whirlpool_m` /
  :mod:`repro.core.lockstep` — the evaluation algorithms (Section 6.1.2);
- :mod:`repro.core.engine` — the one-call facade (:func:`repro.topk`).
"""

from repro.core.match import PartialMatch
from repro.core.topk import TopKSet, TopKAnswer
from repro.core.stats import ExecutionStats
from repro.core.server import Server
from repro.core.queues import QueuePolicy
from repro.core.router import (
    RoutingStrategy,
    StaticRouter,
    MaxScoreRouter,
    MinScoreRouter,
    MinAliveRouter,
    EstimatedMinAliveRouter,
    BatchingRouter,
    make_router,
)
from repro.core.fagin import (
    NoRandomAccess,
    ThresholdAlgorithm,
    build_predicate_lists,
)
from repro.core.queues import MatchQueue
from repro.core.whirlpool_s import WhirlpoolS
from repro.core.whirlpool_m import WhirlpoolM
from repro.core.lockstep import LockStep, LockStepNoPrun
from repro.core.rewriting import RewritingEngine
from repro.core.threshold import FixedThresholdSet, threshold_query
from repro.core.anytime import AnytimeOutcome, anytime_topk
from repro.core.trace import EngineObserver, ExecutionTrace
from repro.core.engine import Engine, TopKResult

__all__ = [
    "PartialMatch",
    "TopKSet",
    "TopKAnswer",
    "ExecutionStats",
    "Server",
    "QueuePolicy",
    "MatchQueue",
    "NoRandomAccess",
    "ThresholdAlgorithm",
    "build_predicate_lists",
    "RoutingStrategy",
    "StaticRouter",
    "MaxScoreRouter",
    "MinScoreRouter",
    "MinAliveRouter",
    "EstimatedMinAliveRouter",
    "BatchingRouter",
    "make_router",
    "WhirlpoolS",
    "WhirlpoolM",
    "LockStep",
    "LockStepNoPrun",
    "RewritingEngine",
    "FixedThresholdSet",
    "threshold_query",
    "AnytimeOutcome",
    "anytime_topk",
    "EngineObserver",
    "ExecutionTrace",
    "Engine",
    "TopKResult",
]
