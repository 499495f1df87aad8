"""Routing strategies — Section 6.1.4.

Given a partial match at the head of the router queue, decide which server
processes it next (never one it has visited — the match's visited set is
the paper's per-match bit vector):

- :class:`StaticRouter` — a fixed server permutation for every match; the
  classic query-plan analog.  Benches sweep all permutations to find the
  paper's min/median/max static plans.
- :class:`MaxScoreRouter` / :class:`MinScoreRouter` — score-based: send
  the match to the server likely to increase its score the most / least.
- :class:`MinAliveRouter` — size-based (the paper's winner,
  ``min_alive_partial_matches``): send the match where the fewest
  extensions are expected to *survive pruning*, estimated from index
  fan-out statistics, the score model and the current top-k threshold —
  "a natural (simplified) analog of conventional cost-based query
  optimization, for the top-k problem".

Routers are stateless w.r.t. matches; everything dynamic they need (the
threshold, per-server estimates) comes from the engine at call time, which
is exactly what makes the strategy adaptive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.core.match import PartialMatch
from repro.errors import EngineError

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.core.base import EngineBase
    from repro.core.server import CandidateCounts
    from repro.xmldb.summary import PathSummary


class RoutingStrategy:
    """Interface: pick the next server for a match."""

    name = "abstract"

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        """Return the node id of the next server for ``match``.

        ``engine`` exposes ``servers`` (node id → Server), ``server_ids``
        (sorted), ``max_contributions`` (node id → float), ``unvisited``
        (visited set → unvisited server ids), ``bounds_for`` (match → its
        root's row of the bound table),
        ``routing_table`` (node id → (server, exact contribution, relaxed
        contribution, max contribution)) and ``topk`` (the shared
        :class:`~repro.core.topk.TopKSet`).
        """
        raise NotImplementedError

    def _unvisited(self, match: PartialMatch, engine: "EngineBase") -> Tuple[int, ...]:
        unvisited = engine.unvisited(match.visited)
        if not unvisited:
            raise EngineError(
                f"match {match.match_id} is complete; it should not be routed"
            )
        return unvisited

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StaticRouter(RoutingStrategy):
    """Fixed server order — one plan for all matches."""

    name = "static"

    def __init__(self, order: Sequence[int]) -> None:
        self.order = list(order)

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        for node_id in self.order:
            if node_id in engine.servers and node_id not in match.visited:
                return node_id
        # Servers missing from the explicit order come last, in id order.
        return self._unvisited(match, engine)[0]

    def __repr__(self) -> str:
        return f"StaticRouter(order={self.order})"


class MaxScoreRouter(RoutingStrategy):
    """Score-based: the server likely to increase the score the most."""

    name = "max_score"

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        unvisited = self._unvisited(match, engine)
        return max(
            unvisited,
            key=lambda node_id: (engine.max_contributions.get(node_id, 0.0), -node_id),
        )


class MinScoreRouter(RoutingStrategy):
    """Score-based: the server likely to increase the score the least."""

    name = "min_score"

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        unvisited = self._unvisited(match, engine)
        return min(
            unvisited,
            key=lambda node_id: (engine.max_contributions.get(node_id, 0.0), node_id),
        )


class MinAliveRouter(RoutingStrategy):
    """Size-based: the server expected to leave the fewest alive extensions.

    For each candidate server ``S`` the estimate combines:

    - the mean number of exact-quality and relaxed-only candidates per root
      image (index fan-out statistics),
    - the probability that the probe comes back empty (the extension is
      then the single outer-join *deleted* tuple),
    - whether each class of extension would survive the current top-k
      threshold, judged by its upper bound after visiting ``S``.

    The threshold moves during execution, so the same match can be routed
    differently at different times — the adaptivity the paper's Section
    6.3.5 calls out when explaining why Whirlpool-M can beat Whirlpool-S's
    operation count.
    """

    name = "min_alive_partial_matches"

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        unvisited = self._unvisited(match, engine)
        if len(unvisited) == 1:
            return unvisited[0]  # nothing to size: one server is left
        threshold = engine.topk.threshold()
        table = engine.routing_table
        rest_total = sum(table[node_id][3] for node_id in unvisited)
        # The root's counts from its row of the bound table, read without
        # the probe memo's lock.
        counts = engine.bounds_for(match).counts

        # Primary: fewest alive extensions.  Ties break toward the server
        # with the largest maximum contribution — among equally-sized
        # extension sets, instantiating the highest-scoring predicate first
        # grows the top-k threshold fastest and enables more pruning later.
        best_key = None
        best_id = unvisited[0]
        for node_id in unvisited:
            alive = self._estimated_alive(
                match, engine, node_id, rest_total, threshold, counts
            )
            key = (alive, -table[node_id][3], node_id)
            if best_key is None or key < best_key:
                best_key = key
                best_id = node_id
        return best_id

    def _estimated_alive(
        self,
        match: PartialMatch,
        engine: "EngineBase",
        node_id: int,
        rest_total: float,
        threshold: float,
        root_counts: Mapping[int, "CandidateCounts"],
    ) -> float:
        _, exact_contribution, relaxed_contribution, max_contribution = (
            engine.routing_table[node_id]
        )
        counts = root_counts[node_id]
        # Maximum the *other* unvisited servers can still add afterwards.
        rest = rest_total - max_contribution
        score = match.score

        alive = 0.0
        if score + exact_contribution + rest >= threshold:
            alive += counts.exact
        if score + relaxed_contribution + rest >= threshold:
            alive += counts.total - counts.exact
        if counts.total == 0 and score + rest >= threshold:
            alive += 1.0
        return alive


class EstimatedMinAliveRouter(MinAliveRouter):
    """Size-based routing from a path summary instead of exact probes.

    The paper suggests obtaining the size-based router's inputs from "work
    on selectivity estimation for XML"; this variant does exactly that: a
    :class:`~repro.xmldb.summary.PathSummary` supplies expected fan-outs
    per (root tag, server tag, axis) with no per-match index probes, so
    routing overhead is O(1) per decision after a one-pass summary build.
    Estimates are database-wide averages, so this router is *less*
    adaptive per match than the exact-count default — the trade-off the
    adaptivity-cost experiment (Figure 8) is about.
    """

    name = "min_alive_estimated"

    def __init__(self, summary: "PathSummary") -> None:
        self.summary = summary
        self._cache: Dict[int, Tuple[float, float, float]] = {}

    def _estimated_alive(
        self,
        match: PartialMatch,
        engine: "EngineBase",
        node_id: int,
        rest_total: float,
        threshold: float,
        root_counts: Mapping[int, "CandidateCounts"],
    ) -> float:
        server, exact_contribution, relaxed_contribution, max_contribution = (
            engine.routing_table[node_id]
        )
        cached = self._cache.get(node_id)
        if cached is None:
            spec = server.spec
            root_tag = engine.pattern.root.tag
            fanout_total = self.summary.estimate_related(
                root_tag, spec.tag, spec.probe_axis
            )
            fanout_exact = self.summary.estimate_related(
                root_tag, spec.tag, spec.exact_root_axis
            )
            p_present = self.summary.estimate_satisfaction(
                root_tag, spec.tag, spec.probe_axis
            )
            cached = (fanout_total, fanout_exact, 1.0 - p_present)
            self._cache[node_id] = cached
        fanout_total, fanout_exact, p_empty = cached

        rest = rest_total - max_contribution
        score = match.score

        alive = 0.0
        if score + exact_contribution + rest >= threshold:
            alive += fanout_exact
        if score + relaxed_contribution + rest >= threshold:
            alive += max(fanout_total - fanout_exact, 0.0)
        if score + rest >= threshold:
            alive += p_empty
        return alive


class BatchingRouter(RoutingStrategy):
    """Bulk adaptivity — the paper's §6.3.3 future-work idea, implemented.

    "In the future, we plan on performing adaptivity operations 'in bulk',
    by grouping tuples based on similarity of scores or nodes, in order to
    decrease adaptivity overhead."  This wrapper reuses an inner router's
    decision for every match that shares (visited-server set, score
    bucket): one real decision per group, cached until the top-k threshold
    moves past the group's bucket.
    """

    name = "batching"

    def __init__(self, inner: RoutingStrategy, score_buckets: int = 10) -> None:
        if score_buckets < 1:
            raise ValueError(f"score_buckets must be >= 1, got {score_buckets}")
        self.inner = inner
        self.score_buckets = score_buckets
        self._cache: Dict[Tuple[FrozenSet[int], int, int], int] = {}
        #: Decisions answered from cache (the overhead actually saved).
        self.cache_hits = 0
        #: Decisions delegated to the inner router.
        self.cache_misses = 0

    def _bucket(self, match: PartialMatch, engine: "EngineBase") -> int:
        ceiling = max(engine.score_model.max_total(), 1e-9)
        fraction = min(max(match.score / ceiling, 0.0), 1.0)
        return int(fraction * (self.score_buckets - 1))

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        threshold_bucket = int(
            engine.topk.threshold() / max(engine.score_model.max_total(), 1e-9)
            * self.score_buckets
        )
        key = (match.visited, self._bucket(match, engine), threshold_bucket)
        decision = self._cache.get(key)
        if decision is not None and decision not in match.visited:
            self.cache_hits += 1
            return decision
        self.cache_misses += 1
        decision = self.inner.choose(match, engine)
        self._cache[key] = decision
        return decision

    def __repr__(self) -> str:
        return f"BatchingRouter({self.inner!r}, buckets={self.score_buckets})"


_ADAPTIVE = {
    "max_score": MaxScoreRouter,
    "min_score": MinScoreRouter,
    "min_alive": MinAliveRouter,
    "min_alive_partial_matches": MinAliveRouter,
}


def make_router(
    strategy: str = "min_alive",
    order: Optional[Sequence[int]] = None,
) -> RoutingStrategy:
    """Build a routing strategy by name.

    ``strategy`` is one of ``static`` (requires ``order``), ``max_score``,
    ``min_score``, ``min_alive`` (alias ``min_alive_partial_matches``).
    """
    if strategy == "static":
        if order is None:
            raise EngineError("static routing requires an explicit server order")
        return StaticRouter(order)
    router_cls = _ADAPTIVE.get(strategy)
    if router_cls is None:
        raise EngineError(
            f"unknown routing strategy {strategy!r}; expected one of "
            f"static, {', '.join(sorted(_ADAPTIVE))}"
        )
    return router_cls()
