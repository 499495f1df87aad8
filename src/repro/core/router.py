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
from repro.scoring.model import MatchQuality

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.core.base import EngineBase
    from repro.core.server import Fanouts
    from repro.xmldb.summary import PathSummary


#: One server the size-based router may send a match to
#: (:meth:`MinAliveRouter.sizing`): (node id, exact contribution, relaxed
#: contribution, the most the *other* unvisited servers can add after it,
#: minus its maximum contribution — the tie-break).
SizingEntry = Tuple[int, float, float, float, float]


def _complete(match: PartialMatch) -> EngineError:
    return EngineError(f"match {match.match_id} is complete; it should not be routed")


class RoutingStrategy:
    """Interface: pick the next server for a match."""

    name = "abstract"

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        """Return the node id of the next server for ``match``.

        ``engine`` exposes ``servers`` (node id → Server), ``server_ids``
        (sorted), ``max_contributions`` (node id → float), ``unvisited``
        (visited set → unvisited server ids), ``bounds_for`` (match → its
        root's row of the bound table), ``sizing_table`` (the size-based
        router's per-run entries, :meth:`MinAliveRouter.sizing`) and
        ``topk`` (the run's :class:`~repro.core.topk.TopKSet`).
        """
        raise NotImplementedError

    def _unvisited(self, match: PartialMatch, engine: "EngineBase") -> Tuple[int, ...]:
        unvisited = engine.unvisited(match.visited)
        if not unvisited:
            raise _complete(match)
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

    - the match's fan-outs at ``S`` (:meth:`fanouts`): how many
      exact-quality and relaxed-only candidates its root has there, and
      whether the probe comes back empty (the extension is then the single
      outer-join *deleted* tuple);
    - whether each class of extension would survive the current top-k
      threshold, judged by its upper bound after visiting ``S``.

    All candidates are sized in one loop over the :meth:`sizing` entries
    for the match's visited set, which hold each server's gains and what
    the other unvisited servers can still add, summed once per visited
    set.

    The threshold moves during execution, so the same match can be routed
    differently at different times — the adaptivity the paper's Section
    6.3.5 calls out when explaining why Whirlpool-M can beat Whirlpool-S's
    operation count.
    """

    name = "min_alive_partial_matches"

    def choose(self, match: PartialMatch, engine: "EngineBase") -> int:
        candidates = engine.sizing_table.get(match.visited)
        if candidates is None:
            candidates = self.sizing(match.visited, engine)
        if len(candidates) <= 1:
            if not candidates:
                raise _complete(match)
            return candidates[0][0]  # nothing to size: one server is left
        threshold = engine.topk.threshold()
        fanouts = self.fanouts(match, engine)
        score = match.score

        # Primary: fewest alive extensions.  Ties break toward the server
        # with the largest maximum contribution — among equally-sized
        # extension sets, instantiating the highest-scoring predicate first
        # grows the top-k threshold fastest and enables more pruning later.
        best_key = None
        best_id = candidates[0][0]
        for node_id, exact_gain, relaxed_gain, rest, tie in candidates:
            # Each class of extension counts when its upper bound after
            # this server — its gain, plus the most the *other* unvisited
            # servers can still add (``rest``) — reaches the threshold.
            exact, relaxed_only, empty = fanouts[node_id]
            alive = 0.0
            if score + exact_gain + rest >= threshold:
                alive += exact
            if score + relaxed_gain + rest >= threshold:
                alive += relaxed_only
            if score + rest >= threshold:
                alive += empty
            key = (alive, tie, node_id)
            if best_key is None or key < best_key:
                best_key = key
                best_id = node_id
        return best_id

    @staticmethod
    def sizing(visited: FrozenSet[int], engine: "EngineBase") -> Tuple[SizingEntry, ...]:
        """One :data:`SizingEntry` per server a match that has been through
        ``visited`` has still to visit, in ``server_ids`` order.  The
        unvisited servers' maxima are summed once per visited set, in that
        order, and the entries kept in the run's ``sizing_table`` (at most
        2^servers of them)."""
        unvisited = engine.unvisited(visited)
        maxima = engine.max_contributions
        contribution = engine.score_model.contribution
        total = sum(maxima[node_id] for node_id in unvisited)
        entries = engine.sizing_table[visited] = tuple(
            (
                node_id,
                contribution(node_id, MatchQuality.EXACT),
                contribution(node_id, MatchQuality.RELAXED),
                total - maxima[node_id],
                -maxima[node_id],
            )
            for node_id in unvisited
        )
        return entries

    def fanouts(self, match: PartialMatch, engine: "EngineBase") -> Mapping[int, "Fanouts"]:
        """Per server, the extensions a match expects to spawn there: its
        root's exact probe counts, from its row of the bound table (read
        without the probe memo's lock) — the one its seed handed down, read
        in place."""
        bounds = match.root_bounds
        if bounds is None:
            bounds = engine.bounds_for(match)
        return bounds.fanouts


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
        self._fanouts: Optional[Dict[int, "Fanouts"]] = None

    def fanouts(self, match: PartialMatch, engine: "EngineBase") -> Mapping[int, "Fanouts"]:
        """The summary's expected fan-outs per server, the same for every
        match: estimated once, on the first decision."""
        fanouts = self._fanouts
        if fanouts is None:
            root_tag = engine.pattern.root.tag
            summary = self.summary
            fanouts = {}
            for node_id, server in engine.servers.items():
                spec = server.spec
                total = summary.estimate_related(root_tag, spec.tag, spec.probe_axis)
                exact = summary.estimate_related(root_tag, spec.tag, spec.exact_root_axis)
                present = summary.estimate_satisfaction(root_tag, spec.tag, spec.probe_axis)
                fanouts[node_id] = (exact, max(total - exact, 0.0), 1.0 - present)
            self._fanouts = fanouts
        return fanouts


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
