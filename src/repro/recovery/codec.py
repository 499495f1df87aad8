"""Versioned, pickle-free snapshot codec for engine state.

Whirlpool's anytime semantics mean a run's complete progress is captured
by three things: the partial matches still queued, the current top-k set,
and the counters behind the ``pending_bound`` certificate.  This module
serializes exactly that — and nothing executable — into plain
JSON-compatible dictionaries:

- a :class:`~repro.core.match.PartialMatch` becomes its root's Dewey id,
  a node-id → Dewey-id (or ``null`` for leaf-deletion) instantiation map,
  the per-node :class:`~repro.scoring.model.MatchQuality` values, the
  visited set, and the score.  The upper bound is *not* stored: it is
  recomputed from the restoring engine's score model, so a snapshot can
  never smuggle in a stale or forged bound.  A match is immutable, so
  this dictionary is built once and kept on the match: successive
  snapshots of one run share it (and must not edit it), and a
  checkpoint pays only for the matches created since the last one;
- the top-k set becomes its per-entry representative matches; restore
  replays :meth:`~repro.core.topk.TopKSet.observe` on the decoded copies,
  which reconstructs every entry score and the pruning threshold exactly;
- queue contents are captured per label (``"router"``, ``"server:<id>"``,
  ``"loose"``) but restore deliberately does not require the same engine
  shape: any queued match can be re-routed, so a Whirlpool-M snapshot can
  resume under Whirlpool-S or LockStep.

Why not ``pickle``?  Snapshots outlive the process that wrote them (the
JSON-file :class:`~repro.recovery.store.RecoveryStore` backend exists for
exactly that), and unpickling persisted bytes executes arbitrary
constructors.  Lint rule WPL009 enforces this choice repo-wide.

Every snapshot carries ``version``; :func:`restore_engine_state` rejects
anything it does not understand instead of guessing.

Restoring is the recovery path only — a crash, a failover, a migration,
a restart.  A run that merely stopped on its budget is still alive: the
engine parks its matches and ``run()`` continues them
(:meth:`~repro.core.base.EngineBase.park`), so stepping a run never
round-trips through this module; it only *takes* one snapshot per
budget exit, for whoever may have to recover later.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.core.match import PartialMatch
from repro.core.stats import COUNTERS
from repro.errors import RecoveryError
from repro.scoring.model import MatchQuality
from repro.xmldb.dewey import Dewey, dewey_str, parse_dewey
from repro.xmldb.model import XMLNode

if TYPE_CHECKING:
    from repro.core.base import EngineBase
    from repro.core.queues import MatchQueue

SNAPSHOT_VERSION = 1
"""Bump on any incompatible change to the snapshot shape."""

Resolver = Callable[[Dewey], Optional[XMLNode]]


def encode_match(match: PartialMatch) -> Dict[str, Any]:
    """One partial match as a JSON-compatible dictionary.

    Built once per match and kept on it (matches are immutable once
    created), so a checkpoint pays only for the matches created since
    the previous one.  Callers share the dictionary and must not edit it.
    """
    payload = match.encoded
    if payload is None:
        payload = match.encoded = match_payload(match)
    return payload


def match_payload(match: PartialMatch) -> Dict[str, Any]:
    """Build the dictionary :func:`encode_match` keeps — its slow path."""
    return {
        "root": dewey_str(match.root_node.dewey),
        "instantiations": {
            str(node_id): None if node is None else dewey_str(node.dewey)
            for node_id, node in match.instantiations.items()
        },
        "qualities": {
            str(node_id): quality.value
            for node_id, quality in match.qualities.items()
        },
        "visited": sorted(match.visited),
        "score": match.score,
    }


def decode_match(
    payload: Dict[str, Any],
    resolve: Resolver,
    max_contributions: Dict[int, float],
) -> PartialMatch:
    """Rebuild a partial match, reattaching nodes through ``resolve``.

    The decoded match gets a fresh ``match_id``/``arrival`` (those are
    process-local queue tiebreakers, not semantics) and a freshly
    recomputed upper bound.
    """
    root_dewey = parse_dewey(payload["root"])
    root = resolve(root_dewey)
    if root is None:
        raise RecoveryError(
            f"snapshot references unknown root node {payload['root']!r}"
        )
    instantiations: Dict[int, Optional[XMLNode]] = {}
    for key, value in payload["instantiations"].items():
        if value is None:
            instantiations[int(key)] = None
            continue
        node = resolve(parse_dewey(value))
        if node is None:
            raise RecoveryError(f"snapshot references unknown node {value!r}")
        instantiations[int(key)] = node
    qualities = {
        int(key): MatchQuality(value)
        for key, value in payload["qualities"].items()
    }
    match = PartialMatch(
        root_node=root,
        instantiations=instantiations,
        qualities=qualities,
        visited=frozenset(int(node_id) for node_id in payload["visited"]),
        score=float(payload["score"]),
    )
    match.refresh_bound(max_contributions)
    return match


def encode_engine_state(
    engine: "EngineBase",
    queues: Dict[str, "MatchQueue"],
    loose: Sequence[PartialMatch] = (),
) -> Dict[str, Any]:
    """Snapshot a (quiesced) engine: queues, top-k set, counters, bound.

    ``queues`` maps labels to live queues (read non-destructively via
    :meth:`~repro.core.queues.MatchQueue.snapshot`); ``loose`` covers
    matches an engine holds outside any queue (LockStep's survivor list).
    ``pending_bound`` is the largest upper bound among the captured
    matches — the certificate the snapshot itself honours: no answer the
    crashed run had not yet reported can score above it.
    """
    queued: Dict[str, List[Dict[str, Any]]] = {}
    pending_bound = 0.0
    for label, queue in queues.items():
        matches = queue.snapshot()
        queued[label] = [encode_match(match) for match in matches]
        for match in matches:
            pending_bound = max(pending_bound, match.upper_bound)
    if loose:
        queued["loose"] = [encode_match(match) for match in loose]
        for match in loose:
            pending_bound = max(pending_bound, match.upper_bound)
    topk_entries = []
    for match, complete_match in engine.topk.export_state():
        topk_entries.append(
            {
                "match": encode_match(match),
                "complete": None
                if complete_match is None
                else encode_match(complete_match),
            }
        )
    stats = engine.stats.as_dict()
    payload = {
        "version": SNAPSHOT_VERSION,
        "algorithm": engine.algorithm,
        "k": engine.k,
        "relaxed": engine.relaxed,
        "pattern": engine.pattern.to_xpath(),
        "operations": int(stats["server_operations"]),
        "pending_bound": pending_bound,
        "queues": queued,
        "topk": topk_entries,
        "router": {"strategy": type(engine.router).__name__},
        "stats": {field: int(stats[field]) for field in COUNTERS},
    }
    # Work the crashed run had *already lost* before this checkpoint —
    # injector-dropped operations and matches abandoned after exhausted
    # recovery.  The queued matches above do not cover it (a dropped
    # match is gone from every queue), so without this record a restore
    # would resume into a run that claims exactness over answers it can
    # never produce.  Written only when non-empty so pre-existing
    # snapshots keep their shape byte-for-byte.
    lost: Dict[str, Any] = {}
    injector = engine.fault_injector
    if injector is not None and injector.dropped_count() > 0:
        lost["dropped_operations"] = injector.dropped_count()
        lost["dropped_bound"] = injector.max_dropped_bound()
    abandoned = engine.supervisor.abandoned()
    if abandoned:
        lost["abandoned_matches"] = len(abandoned)
        lost["abandoned_bound"] = engine.supervisor.max_abandoned_bound()
    if lost:
        payload["lost"] = lost
    return payload


def validate_snapshot(snapshot: Dict[str, Any], engine: "EngineBase") -> None:
    """Reject snapshots this engine cannot faithfully resume."""
    if not isinstance(snapshot, dict):
        raise RecoveryError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise RecoveryError(
            f"unsupported snapshot version {version!r} "
            f"(this codec reads version {SNAPSHOT_VERSION})"
        )
    if snapshot.get("k") != engine.k:
        raise RecoveryError(
            f"snapshot was taken with k={snapshot.get('k')!r}, "
            f"engine runs k={engine.k}"
        )
    if snapshot.get("pattern") != engine.pattern.to_xpath():
        raise RecoveryError(
            f"snapshot pattern {snapshot.get('pattern')!r} does not match "
            f"engine pattern {engine.pattern.to_xpath()!r}"
        )
    if bool(snapshot.get("relaxed")) != engine.relaxed:
        raise RecoveryError(
            f"snapshot relaxed={snapshot.get('relaxed')!r} does not match "
            f"engine relaxed={engine.relaxed}"
        )


def restore_engine_state(
    snapshot: Dict[str, Any], engine: "EngineBase"
) -> List[PartialMatch]:
    """Replay a snapshot into a fresh engine; return the queued matches.

    Validates, replays the top-k entries through ``observe`` (so both
    pruning levels are live before the first restored match is processed),
    folds the crashed run's operation counters into the fresh stats
    bundle, and returns the decoded queue contents (all labels folded —
    the resuming engine re-routes them however it likes).
    """
    validate_snapshot(snapshot, engine)
    database = engine.index.database
    resolve: Resolver = database.node_by_dewey
    max_contributions = engine.max_contributions
    engine.topk.restore_state(
        (
            (
                decode_match(entry["match"], resolve, max_contributions),
                None
                if entry.get("complete") is None
                else decode_match(entry["complete"], resolve, max_contributions),
            )
            for entry in snapshot.get("topk", [])
        ),
        engine.server_ids,
    )
    matches: List[PartialMatch] = []
    for payloads in snapshot.get("queues", {}).values():
        for payload in payloads:
            matches.append(decode_match(payload, resolve, max_contributions))
    counters = snapshot.get("stats", {})
    if counters:
        carried = type(engine.stats)()
        for field in COUNTERS:
            setattr(carried, field, int(counters.get(field, 0)))
        engine.stats.merge(carried)
    lost = snapshot.get("lost")
    if lost:
        engine.carried_loss = {
            "bound": max(
                float(lost.get("dropped_bound", 0.0)),
                float(lost.get("abandoned_bound", 0.0)),
            ),
            "detail": dict(lost),
        }
    return matches
