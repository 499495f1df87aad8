"""Versioned, pickle-free snapshot codec for engine state.

Whirlpool's anytime semantics mean a run's complete progress is captured
by three things: the partial matches still queued, the current top-k set,
and the counters behind the ``pending_bound`` certificate.  This module
serializes exactly that — and nothing executable — into plain JSON values
(dicts, lists, numbers, strings; never tuples, so ``json.loads`` of a
snapshot's text gives back an equal snapshot):

- a :class:`~repro.core.match.PartialMatch` becomes one flat list,
  ``[root, score, [[node_id, node, quality], ...]]``, as the paper grows
  it: its root's binding, then one entry per server it has visited, in
  visit order.  ``root`` and ``node`` are Dewey ids as int lists (``node``
  is ``null`` for a deleted leaf), ``quality`` is the
  :class:`~repro.scoring.model.MatchQuality` value.  The visited set is
  the entries' node ids — a match visits a server exactly when it binds
  that server's node — so it is not stored twice.  The upper bound is
  *not* stored either: it is recomputed from the restoring engine's score
  model, so a snapshot can never smuggle in a stale or forged bound.  The
  list is built by walking the match's :meth:`~repro.core.match.PartialMatch.extend`
  chain back to the nearest ancestor whose list is built already (or to
  its seed) and extending that one, so no dict is materialized for it;
  a match is immutable, so the list is kept on the match and shared:
  successive snapshots of one run share it (and must not edit it), and a
  checkpoint pays only for the matches created since the last one;
- the top-k set becomes ``[match, complete]`` per entry — its
  representative match and its completed one, ``null`` when it has none;
  restore replays :meth:`~repro.core.topk.TopKSet.observe` on the decoded
  copies, which reconstructs every entry score and the pruning threshold
  exactly;
- queue contents are captured per label (``"router"``, ``"server:<id>"``,
  ``"loose"``) but restore deliberately does not require the same engine
  shape: any queued match can be re-routed, so a Whirlpool-M snapshot can
  resume under Whirlpool-S or LockStep;
- the roots a Whirlpool-S run has not seeded yet are not stored as seeds
  (nor as their score-0 top-k entries): the snapshot carries the run's
  cursor instead — ``seeded``, how many roots of the engine's seeding
  order (:meth:`~repro.core.base.EngineBase.seed_order`) it has seeded,
  and ``next_root``, the Dewey id of the one after them.  Restore rebuilds
  the order, checks ``next_root`` against it and reserves the roots'
  arrivals before it decodes the queue; an engine that seeds up front
  seeds the rest when it starts.  A snapshot without the two keys had
  every root seeded.

Versions: 1 stored the seeds themselves; 2 replaced them by the cursor (a
reader of version 1's shape would silently drop those roots); 3 flattened
each match from a dict of dicts with dotted-string Deweys into the list
above, which halves a checkpoint's text and the time spent writing and
reading it.

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

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.core.match import PartialMatch
from repro.core.stats import COUNTERS
from repro.errors import RecoveryError
from repro.scoring.model import MatchQuality
from repro.xmldb.dewey import Dewey
from repro.xmldb.model import XMLNode

if TYPE_CHECKING:
    from repro.core.base import EngineBase
    from repro.core.queues import MatchQueue

SNAPSHOT_VERSION = 3
"""Bump on any incompatible change to the snapshot shape."""

Resolver = Callable[[Dewey], Optional[XMLNode]]

#: A payload's quality string -> the enum member (a dict lookup; calling
#: ``MatchQuality(value)`` costs more than resolving the node).
_QUALITIES = {quality.value: quality for quality in MatchQuality}


def encode_match(match: PartialMatch) -> List[Any]:
    """One partial match as ``[root, score, [[node_id, node, quality], ...]]``.

    Built once per match and kept on it (matches are immutable once
    created), so a checkpoint pays only for the matches created since
    the previous one.  Callers share the list and must not edit it.
    """
    payload = match.encoded
    if payload is None:
        payload = match.encoded = match_payload(match)
    return payload


def _is_encoded(match: PartialMatch) -> bool:
    return match.encoded is not None


def match_payload(match: PartialMatch) -> List[Any]:
    """Build the list :func:`encode_match` keeps — its slow path.

    Extends the list of the nearest ancestor that has one (sharing its
    root and its entries) by the steps since; a chain with none starts
    from its seed (or decoded match), whose dicts exist."""
    # ``_value_`` below: the enum's value without the ``value`` property's
    # descriptor call, which costs more than the rest of an entry.
    base, steps = match.trail(_is_encoded)
    built = base.encoded
    if built is not None:
        root, entries = built[0], built[2]
    else:
        root = list(base.root_node.dewey)
        qualities = base.qualities
        entries = [
            [node_id, None if node is None else list(node.dewey), qualities[node_id]._value_]
            for node_id, node in base.instantiations.items()
        ]
    if steps:
        entries = entries + [
            [node_id, None if node is None else list(node.dewey), quality._value_]
            for _, node_id, node, quality in reversed(steps)
        ]
    return [root, match.score, entries]


def decode_match(
    payload: Sequence[Any],
    resolve: Resolver,
    server_ids: Collection[int],
    bind: Optional[Callable[[PartialMatch], None]] = None,
) -> PartialMatch:
    """Rebuild a partial match, reattaching nodes through ``resolve``.

    Every entry must name a distinct node of ``server_ids`` (the query's
    servers): the visited set is read off the entries, so a repeated or
    foreign id would forge it.  The decoded match gets a fresh
    ``match_id``/``arrival`` (those are process-local queue tiebreakers,
    not semantics).  ``bind`` — the resuming engine's
    :meth:`~repro.core.base.EngineBase.bind` — gives it its root's row and
    upper bound, exactly as its seed got them; without it the match is a
    record (its bound is its score).
    """
    try:
        root_dewey, score, entries = payload
        root = resolve(tuple(root_dewey))
        score = float(score)
    except (TypeError, ValueError) as exc:
        raise RecoveryError(f"malformed match payload {payload!r}") from exc
    if root is None:
        raise RecoveryError(f"snapshot references unknown root node {root_dewey!r}")
    instantiations: Dict[int, Optional[XMLNode]] = {}
    qualities: Dict[int, MatchQuality] = {}
    for entry in entries:
        try:
            node_id, dewey, quality = entry
            node = None if dewey is None else resolve(tuple(dewey))
            qualities[node_id] = _QUALITIES[quality]
        except (TypeError, ValueError, KeyError) as exc:
            raise RecoveryError(f"malformed match entry {entry!r}") from exc
        if node_id not in server_ids:
            raise RecoveryError(
                f"snapshot names node {node_id!r}, not a server of this query"
            )
        if node_id in instantiations:
            raise RecoveryError(f"snapshot names node {node_id!r} twice in one match")
        if node is None and dewey is not None:
            raise RecoveryError(f"snapshot references unknown node {dewey!r}")
        instantiations[node_id] = node
    match = PartialMatch(
        root_node=root,
        instantiations=instantiations,
        qualities=qualities,
        visited=frozenset(instantiations),
        score=score,
    )
    if bind is not None:
        bind(match)
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
    matches and the roots not seeded yet — the certificate the snapshot
    itself honours: no answer the crashed run had not yet reported can
    score above it.
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
    pending_bound = max(pending_bound, engine.unseeded_bound())
    topk_entries = [
        [
            encode_match(match),
            None if complete_match is None else encode_match(complete_match),
        ]
        for match, complete_match in engine.topk.export_state()
    ]
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
    cursor = engine.root_cursor()
    if cursor is not None:
        payload["seeded"], payload["next_root"] = cursor
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
    hands the cursor over the roots not seeded yet to the engine
    (:meth:`~repro.core.base.EngineBase.resume_roots`), folds the crashed
    run's operation counters into the fresh stats bundle, and returns the
    decoded queue contents (all labels folded — the resuming engine
    re-routes them however it likes).
    """
    validate_snapshot(snapshot, engine)
    seeded = snapshot.get("seeded")
    if seeded is not None:
        if type(seeded) is not int:
            raise RecoveryError(f"snapshot cursor must be an integer, got {seeded!r}")
        engine.resume_roots(seeded, snapshot.get("next_root"))
    resolve: Resolver = engine.index.database.node_by_dewey
    servers = frozenset(engine.server_ids)
    bind = engine.bind

    def decode(payload: Sequence[Any]) -> PartialMatch:
        return decode_match(payload, resolve, servers, bind)

    engine.topk.restore_state(
        (
            (decode(match), None if complete is None else decode(complete))
            for match, complete in snapshot.get("topk", [])
        ),
        engine.server_ids,
    )
    matches = [
        decode(payload)
        for payloads in snapshot.get("queues", {}).values()
        for payload in payloads
    ]
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
