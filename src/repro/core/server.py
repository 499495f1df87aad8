"""Whirlpool servers — Section 5.2.1 and Algorithm 1 at runtime.

One server exists per non-root query node.  Given a partial match, the
server:

1. **probes the index** for candidate nodes with its tag that satisfy the
   (relaxed) structural predicate against the match's root image — the
   composition of the axes from the server node to the query root
   (Algorithm 1's first step);
2. **evaluates the conditional predicate sequence** against every query
   node already instantiated in the match — exact axis first, then its
   relaxation ("if not child, then descendant");
3. **spawns extensions**: one per surviving candidate, scored through the
   score model (exact matches earn the exact component predicate's
   contribution, relaxed matches the relaxed predicate's); when no
   candidate survives and relaxation is on, the single *deleted* extension
   (outer-join semantics of leaf deletion) is emitted instead.

Match-quality semantics: in relaxed mode, validity *and* quality are
root-anchored — a candidate is EXACT iff the exact root-to-node composed
axis holds, RELAXED iff only its relaxation does.  Subtree promotion
legitimately breaks pairwise axes, so conditional predicates do not gate
relaxed candidates; root-anchored quality also keeps tuple scores
independent of the order servers run in (Definition 4.4's component
predicates are root-anchored for the same reason).  In exact mode both the
exact root axis and the full conditional predicate sequence are mandatory
filters.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.match import PartialMatch
from repro.core.stats import ExecutionStats
from repro.query.pattern import value_test
from repro.query.predicates import AxisTest, compiled_axis_test
from repro.relax.plan import ServerPredicates
from repro.scoring.model import MatchQuality, ScoreModel
from repro.xmldb.dewey import Dewey
from repro.xmldb.index import DatabaseIndex
from repro.xmldb.model import XMLNode

if TYPE_CHECKING:
    from repro.faults.inject import FaultInjector

#: Probe-memo capacity per server, unless its owner knows the document
#: has more root images.  The memo amortizes one index probe across the
#: router's sizing call and the server operation(s) for the same root
#: image; clearing wholesale at the cap keeps eviction deterministic
#: (entries are pure functions of the root image, so a recompute after a
#: clear returns identical values).
PROBE_MEMO_CAP = 512


class CandidateCounts(NamedTuple):
    """Exact per-root candidate counts (total and exact-quality)."""

    total: int
    exact: int


#: One memoized probe: ``(survivors, comparisons, counts)`` — the
#: post-value-filter candidates with their precomputed exact-quality
#: flags, the comparison count the probe charged (pre-filter), and the
#: survivors' :class:`CandidateCounts` for the size-based router.
ProbeEntry = Tuple[Tuple[Tuple[XMLNode, bool], ...], int, CandidateCounts]


class ProbeMemo:
    """Probe results of one server, by root image; writes take one lock.

    Entries are pure functions of (database, query node, join algorithm,
    root image), so the memo may outlive a run: :class:`~repro.core.engine.Engine`
    keeps one per (server node id, join algorithm) and hands it to every
    run's :class:`Server`, which is what lets warm runs, service workers
    sharing a cached engine and budget-stepped cluster workers skip the
    index.  Never holds more than ``capacity`` entries — a memo holds one
    entry per root image, so the Engine sizes its memos to the document's
    root images (at least :data:`PROBE_MEMO_CAP`): a smaller memo would
    refill and clear on every run.

    Runs and service threads share a memo, so :meth:`fill` (per entry, a
    clear at the cap, then a store) takes the lock, once per call.
    :attr:`get` does not: it is the entries dict's own ``get`` (a fill
    clears that dict in place and never rebinds it), keyed by a Dewey
    tuple of ints, whose hashing and comparison run no Python code, so
    the interpreter lock is held throughout and no other thread gets in
    halfway — it sees an entry a fill stored whole, or no entry.  A miss
    during a racing clear costs one probe, which recomputes an equal
    entry (entries are pure functions of the root image).
    """

    __slots__ = ("_lock", "_entries", "_capacity", "get")

    def __init__(self, capacity: int = PROBE_MEMO_CAP) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Dewey, ProbeEntry] = {}
        self._capacity = capacity
        #: ``get(root_dewey)``: the memoized probe, or ``None`` (no lock).
        self.get = self._entries.get

    def put(self, root_dewey: Dewey, entry: ProbeEntry) -> None:
        """Store one probe: a :meth:`fill` of one."""
        self.fill((root_dewey,), (entry,))

    def fill(self, root_deweys: Sequence[Dewey], entries: Sequence[ProbeEntry]) -> None:
        """Store one probe per root image in one locked pass, clearing
        wholesale first whenever the memo is at the cap."""
        with self._lock:
            stored = self._entries
            for root_dewey, entry in zip(root_deweys, entries):
                if len(stored) >= self._capacity:
                    stored.clear()
                stored[root_dewey] = entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def probe_root(
    spec: ServerPredicates,
    index: DatabaseIndex,
    join_algorithm: str,
    exact_test: AxisTest,
    root_dewey: Dewey,
) -> ProbeEntry:
    """One server's probe for one root image — what a :class:`ProbeMemo` holds.

    Returns ``(survivors, comparisons, counts)``: the value-filtered
    candidates paired with their exact-root-axis verdicts (``exact_test``
    is the compiled ``spec.exact_root_axis``), the comparison count the
    probe paid (the *pre*-filter candidate count — what
    :meth:`Server.process` reports to ``ExecutionStats``, so memo hits and
    misses produce identical stats) and the survivors' counts.  With the
    relaxed probe axis, ``counts.total`` and ``counts.exact`` are the root's
    fan-outs under the relaxed and the exact component predicate — the
    numbers :class:`~repro.xmldb.stats.DatabaseStatistics` keeps per anchor.
    """
    if join_algorithm == "index":
        candidates = index.related(spec.tag, root_dewey, spec.probe_axis)
        comparisons = len(candidates)
    else:
        # Nested-loop scan: every node with the tag is compared against
        # the root image (the paper's per-server join baseline).
        all_nodes = index[spec.tag].all()
        candidates = [
            node for node in all_nodes if spec.probe_axis.matches(root_dewey, node.dewey)
        ]
        comparisons = len(all_nodes)
    ((survivors, _, counts),) = _probe_entries(spec, exact_test, [root_dewey], [candidates])
    return survivors, comparisons, counts


def _probe_entries(
    spec: ServerPredicates,
    exact_test: AxisTest,
    anchors: Sequence[Dewey],
    probed: Sequence[List[XMLNode]],
) -> List[ProbeEntry]:
    """One server's memo entries, in ``anchors`` order, from each root
    image's index-probe candidates (``probed``; their number is the
    comparison count), in one plain loop: the value test runs only when
    the server has one, the exact test only when the exact root axis is
    not the probe axis, and equal counts share one :class:`CandidateCounts`."""
    value, value_op = spec.value, spec.value_op
    always_exact = spec.exact_root_axis == spec.probe_axis
    shared: Dict[Tuple[int, int], CandidateCounts] = {}
    entries: List[ProbeEntry] = []
    for root_dewey, candidates in zip(anchors, probed):
        survivors = []
        exact = 0
        for candidate in candidates:
            if value is not None and not value_test(value_op, value, candidate.value):
                continue
            is_exact = always_exact or exact_test(root_dewey, candidate.dewey)
            exact += is_exact
            survivors.append((candidate, is_exact))
        key = (len(survivors), exact)
        counts = shared.get(key)
        if counts is None:
            counts = shared[key] = CandidateCounts(*key)
        entries.append((tuple(survivors), len(candidates), counts))
    return entries


def probe_every_root(
    spec: ServerPredicates, index: DatabaseIndex, anchors: List[Dewey], memo: ProbeMemo
) -> List[ProbeEntry]:
    """One server's probe of every root image (``anchors``, in document
    order) in one index merge
    (:meth:`~repro.xmldb.index.DatabaseIndex.related_each`): build every
    entry — each equal to :func:`probe_root`'s — in one loop, store them
    in one :meth:`ProbeMemo.fill`, and return them, in ``anchors`` order.

    The list is the sweep's own, so a memo smaller than the forest's roots
    loses entries to its cap, never fan-outs or caps.
    """
    exact_test = compiled_axis_test(spec.tag, spec.exact_root_axis)
    entries = _probe_entries(
        spec, exact_test, anchors, index.related_each(spec.tag, anchors, spec.probe_axis)
    )
    memo.fill(anchors, entries)
    return entries


class CapRow:
    """What each server can still add, for every root whose caps are these.

    ``caps`` maps every server node id, in ``server_ids`` order, to its
    cap (:meth:`~repro.scoring.model.ScoreModel.caps`).  Roots with equal
    caps share one row, hence one ``remaining``: visited -> (
    :meth:`remaining_for` its unvisited servers, those servers), filled as
    runs meet visited sets (``EngineBase.bound_entry``) — a pure function
    of both, so concurrent fills store equal values.
    """

    __slots__ = ("caps", "remaining")

    def __init__(self, caps: Dict[int, float]) -> None:
        self.caps = caps
        self.remaining: Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]] = {}

    def remaining_for(self, unvisited: Sequence[int]) -> float:
        """The most the servers in ``unvisited`` can still add: their caps,
        summed in ``server_ids`` order from 0.0."""
        remaining = 0.0
        caps = self.caps
        for node_id in unvisited:
            remaining += caps[node_id]
        return remaining


#: What the size-based router expects a match to spawn at one server:
#: (exact-quality extensions, relaxed-only extensions, deleted extensions
#: — 1.0 when the probe is empty), as floats.
Fanouts = Tuple[float, float, float]


def _fanouts_of(counts: CandidateCounts) -> Fanouts:
    """The :data:`Fanouts` of one root's :class:`CandidateCounts` at one
    server."""
    return (
        float(counts.exact),
        float(counts.total - counts.exact),
        0.0 if counts.total else 1.0,
    )


class RootBounds:
    """One root's row of a bound table: per server, the root's cap
    (``caps``, a :class:`CapRow`) and its :data:`Fanouts` (``fanouts``) —
    what a match is bounded and sized by.  Roots whose caps and counts are
    equal share one row.  A match carries its root's row from its seed
    on.  ``remaining`` is the cap row's, read one attribute nearer.
    """

    __slots__ = ("caps", "fanouts", "remaining")

    def __init__(self, caps: CapRow, fanouts: Dict[int, Fanouts]) -> None:
        self.caps = caps
        self.fanouts = fanouts
        self.remaining = caps.remaining


def bound_rows(
    roots: int,
    probes: Dict[int, Sequence[ProbeEntry]],
    score_model: ScoreModel,
    relaxed: bool,
) -> List[RootBounds]:
    """One :class:`RootBounds` per root, from each server's probes of the
    ``roots`` roots (``probes``: server node id -> one entry per root,
    every list in the same root order) and the model's caps for them.  Equal rows, and
    equal cap rows within them, are one object: a document has few
    distinct ones, and a cap row's ``remaining`` is then shared too.  So
    are equal fan-outs: counts are small integers, so rows hold few
    distinct ones."""
    server_ids = sorted(probes)
    # Each root's keys, zipped from the per-server columns (no server: ()).
    cap_columns = [score_model.caps(node_id, probes[node_id], relaxed) for node_id in server_ids]
    count_columns = [[entry[2] for entry in probes[node_id]] for node_id in server_ids]
    cap_keys = list(zip(*cap_columns)) or [()] * roots
    count_keys = list(zip(*count_columns)) or [()] * roots
    cap_rows: Dict[Tuple[float, ...], CapRow] = {}
    fanouts: Dict[CandidateCounts, Fanouts] = {}
    rows: Dict[Tuple[Tuple[float, ...], Tuple[CandidateCounts, ...]], RootBounds] = {}
    table: List[RootBounds] = []
    for key in zip(cap_keys, count_keys):
        row = rows.get(key)
        if row is None:
            cap_key, count_key = key
            cap_row = cap_rows.get(cap_key)
            if cap_row is None:
                cap_row = cap_rows[cap_key] = CapRow(dict(zip(server_ids, cap_key)))
            row_fanouts: Dict[int, Fanouts] = {}
            for node_id, counts in zip(server_ids, count_key):
                fanout = fanouts.get(counts)
                if fanout is None:
                    fanout = fanouts[counts] = _fanouts_of(counts)
                row_fanouts[node_id] = fanout
            row = rows[key] = RootBounds(cap_row, row_fanouts)
        table.append(row)
    return table


class RoutingEstimates:
    """Per-server fan-out statistics consumed by the size-based router."""

    __slots__ = ("fanout_total", "fanout_exact", "p_empty")

    def __init__(self, fanout_total: float, fanout_exact: float, p_empty: float) -> None:
        self.fanout_total = fanout_total
        self.fanout_exact = fanout_exact
        self.p_empty = p_empty

    def __repr__(self) -> str:
        return (
            f"RoutingEstimates(total={self.fanout_total:.2f}, "
            f"exact={self.fanout_exact:.2f}, p_empty={self.p_empty:.2f})"
        )


class Server:
    """Evaluation server for one query node.

    ``join_algorithm`` selects how candidates are located per operation:

    - ``"index"`` (default) — binary-search the tag index down to the root
      image's subtree interval, then filter by depth range;
    - ``"scan"`` — the paper's baseline ("a simple nested-loop algorithm
      based on Dewey"): linearly scan every node of the server's tag and
      test the structural predicate per node.

    Both return identical candidates; they differ only in comparisons
    performed, which the ``join_algorithms`` artifact measures — the comparison
    the paper explicitly skips ("since we are not comparing join algorithm
    performance").
    """

    JOIN_ALGORITHMS = ("index", "scan")

    def __init__(
        self,
        spec: ServerPredicates,
        index: DatabaseIndex,
        score_model: ScoreModel,
        relaxed: bool = True,
        join_algorithm: str = "index",
        *,
        injector: Optional["FaultInjector"] = None,
        probe_memo: Optional[ProbeMemo] = None,
    ) -> None:
        if join_algorithm not in self.JOIN_ALGORITHMS:
            raise ValueError(
                f"unknown join_algorithm {join_algorithm!r}; "
                f"expected one of {self.JOIN_ALGORITHMS}"
            )
        self.spec = spec
        self.index = index
        self.score_model = score_model
        self.relaxed = relaxed
        self.join_algorithm = join_algorithm
        self.injector = injector
        self._root_tag: Optional[str] = None
        # Whirlpool-M probes from every server thread, so the per-run
        # cached state below is read and written under this lock.
        self._cache_lock = threading.Lock()
        self._estimates_cache: Optional[RoutingEstimates] = None
        # The bound table's rows and process() draw from the memo, so a
        # popped match's sibling extensions pay for one probe total.
        # Built without an Engine, a server memoizes privately.
        self._probe_memo = probe_memo if probe_memo is not None else ProbeMemo()
        self._exact_test = compiled_axis_test(spec.tag, spec.exact_root_axis)

    def _probe_shared(self, root_dewey: Dewey) -> ProbeEntry:
        """Memoized :func:`probe_root` for one root image.

        Entries are pure functions of the root image; on a miss the probe
        runs outside the memo's lock (a concurrent duplicate probe is
        benign and both writers store equal values).
        """
        entry = self._probe_memo.get(root_dewey)
        if entry is None:
            entry = probe_root(
                self.spec, self.index, self.join_algorithm, self._exact_test, root_dewey
            )
            self._probe_memo.put(root_dewey, entry)
        return entry

    @property
    def node_id(self) -> int:
        """Preorder id of the query node this server instantiates."""
        return self.spec.node_id

    @property
    def tag(self) -> str:
        """Tag of the query node this server instantiates."""
        return self.spec.tag

    # -- the server operation -----------------------------------------------------

    def process(
        self, match: PartialMatch, stats: Optional[ExecutionStats] = None
    ) -> List[PartialMatch]:
        """Run one server operation: extend ``match`` at this query node.

        Returns the spawned extensions (unpruned — pruning is the caller's
        job, since it needs the shared top-k set).  Never returns an empty
        list in relaxed mode (the deleted extension survives); may in exact
        mode, which kills the match.
        """
        injector = self.injector
        if injector is not None and not injector.on_server_op(self.spec.node_id, match):
            # Injected DROP: the operation silently loses the match.  The
            # injector recorded its upper bound, so the result certificate
            # still covers whatever this match could have become.  An
            # injected ERROR raises before any index work, keeping retries
            # idempotent.
            return []

        spec = self.spec
        root_dewey = match.root_node.dewey
        # The memo, read in place: only a miss calls :meth:`_probe_shared`.
        entry = self._probe_memo.get(root_dewey)
        if entry is None:
            entry = self._probe_shared(root_dewey)
        survivors, comparisons, _ = entry

        # Every sibling of this operation has visited the same servers:
        # build the set once and hand the same object to all of them
        # (EngineBase.absorb_extensions checks that they share it).
        node_id = spec.node_id
        visited = match.visited | {node_id}
        contribution_of = self.score_model.contribution
        extensions: List[PartialMatch] = []
        for candidate, exact in survivors:
            if not self.relaxed:
                # Exact mode: the conditional predicate sequence is a
                # mandatory filter — every instantiated related node must
                # stand in the exact composed axis to the candidate.
                if not exact:
                    continue
                alive = True
                for conditional in spec.conditionals:
                    other = match.instantiations.get(conditional.other_id)
                    if other is None:  # not instantiated yet
                        continue
                    comparisons += 1
                    if not conditional.holds_exactly(candidate.dewey, other.dewey):
                        alive = False
                        break
                if not alive:
                    continue
            # Relaxed mode: validity and quality are root-anchored only
            # (Definition 4.4's component predicates relate the root to
            # each node; subtree promotion legitimately breaks pairwise
            # axes).  Keeping quality independent of the conditional
            # checks makes tuple scores independent of server order — the
            # invariant the cross-engine tests rely on.

            quality = MatchQuality.EXACT if exact else MatchQuality.RELAXED
            extensions.append(
                match.extend(
                    node_id,
                    candidate,
                    quality,
                    contribution_of(node_id, quality, candidate),
                    visited,
                )
            )

        if not extensions and self.relaxed:
            extensions.append(
                match.extend(node_id, None, MatchQuality.DELETED, 0.0, visited)
            )
            if stats is not None:
                stats.record_deleted_extension()

        if stats is not None:
            stats.record_server_operation(node_id, comparisons, len(extensions))
        return extensions

    # -- estimates for the router -----------------------------------------------------

    def set_root_tag(self, root_tag: str) -> None:
        """Tell the server its query root tag (needed for fan-out estimates)."""
        with self._cache_lock:
            self._root_tag = root_tag
            self._estimates_cache = None

    def routing_estimates(self) -> "RoutingEstimates":
        """Fan-out statistics driving the size-based router.

        Computed lazily, once, by scanning the root-tag index: mean number
        of probe candidates per root image (total and exact-quality), and
        the fraction of root images with an empty probe (those spawn the
        single outer-join deleted extension).  The analog of the paper's
        "estimates... obtained by using work on selectivity estimation for
        XML".  The scan draws on the shared probe memo, pre-warming it for
        the root images the engines are about to pop.  Computed outside
        the cache lock (it probes the index); a concurrent duplicate
        computation stores an identical value.
        """
        with self._cache_lock:
            cached = self._estimates_cache
        if cached is not None:
            return cached
        root_tag = self._root_tag
        if root_tag is None:
            raise RuntimeError("set_root_tag() must be called before routing_estimates()")

        anchors = self.index[root_tag].all()
        if not anchors:
            estimates = RoutingEstimates(0.0, 0.0, 1.0)
        else:
            total = 0
            exact_total = 0
            empty = 0
            for anchor in anchors:
                counts = self._probe_shared(anchor.dewey)[2]
                total += counts.total
                exact_total += counts.exact
                if not counts.total:
                    empty += 1
            estimates = RoutingEstimates(
                fanout_total=total / len(anchors),
                fanout_exact=exact_total / len(anchors),
                p_empty=empty / len(anchors),
            )
        with self._cache_lock:
            if self._estimates_cache is None:
                self._estimates_cache = estimates
            return self._estimates_cache

    def candidate_counts(self, root_dewey: Dewey) -> "CandidateCounts":
        """(total, exact-quality) candidate counts for one root image.

        How many extensions this server would spawn for a match anchored
        at ``root_dewey``: the counts in the memo entry the server
        operation reads, which a root's row of the bound table
        (:class:`RootBounds`) copies for the size-based router.
        """
        return self._probe_shared(root_dewey)[2]

    def __repr__(self) -> str:
        mode = "relaxed" if self.relaxed else "exact"
        return f"Server({self.tag}#{self.node_id}, {mode})"
