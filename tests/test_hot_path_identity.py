"""The per-operation hot path equals the per-extension code it replaced.

PR 17 moved what the sibling extensions of one server operation share —
``visited``, the remaining bound, completeness, the meeting with the top-k
set on the last hop — from once per extension to once per operation, and
made ``extend`` O(1) by building the ``instantiations`` / ``qualities``
dicts on first read.  The code that went is kept here as the oracle, the
way ``test_topk_threshold_property.py`` kept the sort-everything threshold:

- :func:`reference_bound` — the sum over the unvisited servers, per
  extension, of what each can still add for the match's root, with each
  cap taken afresh from the server's probe and the model's
  ``contribution``;
- :func:`eager_extend` — ``extend``'s two dict copies, per extension;
- a shadow :class:`TopKSet` that is shown *every* sibling in turn.

:class:`HotPathOracle` is an ``ExecutionTrace`` that checks, for every
extension of a run: ``upper_bound`` bit-equal to the reference sum,
``visited`` = the parent's plus the routed server, the dict views equal to
the eager copies *including key order* (read deepest match first, so the
views are rebuilt across whole ancestor chains), every reported threshold
equal to the live one, and after every completed batch the top-k set's
``export_state()`` identical — same match objects — to the shadow's.

The golden table (``tests/fixtures/hot_path/golden.json``) is taken by
running this file as a script: per case the event sequence,
``ExecutionStats``, answers, ``pending_bound`` and the bytes of a snapshot
taken mid-run.  It was taken from PR 17's parent commit, and retaken once
at PR 22, whose change — a match that can at best tie k completed answers
is pruned — moves every count by design (CHANGES.md has them side by
side); the oracle checks above, which compare a run with itself, held
through that change unedited.  It was retaken once more when bounds became
per root (a match is bounded by what its unvisited servers can still add
for *its* root, not by database-wide maxima): that moves every count and
bound by design, and :func:`reference_bound` moved with it — from the
database-wide ``refresh_bound`` sum to the per-root one — while the other
checks held unedited.  It was retaken once more when a tuple that cannot
beat the score its own root has already completed at became pruned (and
Whirlpool-S began to stop at the first tuple the shared levels close,
which moved no count by itself): fewer operations by design, with every
oracle check unedited.  It was retaken once more when Whirlpool-S began
to seed a root only when the root would pop next: no count, answer or
``pending_bound`` moved, but every snapshot digest moved with the
snapshot version (2), Whirlpool-S's snapshot carries a cursor in place
of the seeds not made yet, and its events leave out the seeds (and their
prunes) of the roots the early stop closes unseeded.  It was retaken once
more when the snapshot codec went to version 3 (a match is one flat list
with int-list Deweys): only the 36 snapshot digests moved; every event,
count, answer and ``pending_bound`` held.  Whirlpool-M has rows too, ``whirlpool_m@1``:
its step scheduled on one modeled processor (``repro.bench.makespan``), a
deterministic interleaving of the real engine code.  They were taken from
the parent of the commit that made the scheduler drive the engine's step
(with the simulator that had its own copy of it), and have no snapshot, since
a simulated run takes no checkpoint policy.  One field is left out of the event
digest on purpose: the threshold carried by a *completed* sibling's event.
A last-hop batch now meets the top-k set once, so all its siblings report
the threshold after the batch, where the parent reported the threshold
after each sibling; the oracle pins what they report instead (the live
threshold at the time of the call).

**The test bites.**  Four hand mutants — textual edits of the source, so a
mutant cannot outlive the line it mutates — must each fail the checks:

- ``last_best`` — the *last* of the best completed siblings is shown to the
  top-k set, not the first;
- ``keeps_ties`` — ``<`` for ``<=`` against the closing level (and no
  rounding factor) in the pop-time prune test (``TopKSet._levels_close``,
  which the Whirlpool-S early stop reads too): the rule before ties were
  closed, right for answers and wrong for every count in the table;
- ``bound_by_size`` — one ``remaining`` reused for every visited set of the
  same size;
- ``cap_too_low`` — a root's cap takes the relaxed contribution for an
  exact survivor.  It must also fail the per-root bound property and the
  differential battery of ``tests/test_differential.py``.
"""

import contextlib
import hashlib
import inspect
import json
import random
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.makespan import CostModel, simulate
from repro.bench.params import QUERIES
from repro.core import base as base_module
from repro.core.base import EngineBase
from repro.core.engine import Engine
from repro.core.match import PartialMatch
from repro.core.topk import TopKSet
from repro.core.trace import ExecutionTrace
from repro.recovery.policy import CheckpointPolicy
from repro.scoring.model import MatchQuality, ScoreModel
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig
from tests.test_differential import (
    _random_database,
    _random_pattern,
    check_algorithms_agree,
    check_seed_bounds,
)

GOLDEN = Path(__file__).parent / "fixtures" / "hot_path" / "golden.json"
ALGORITHMS = ("whirlpool_s", "lockstep")
#: Whirlpool-M's step, scheduled on one modeled processor.
SIMULATED = "whirlpool_m@1"
K_VALUES = (3, 15, 75)


# -- the code that went, kept as the oracle ---------------------------------------


def reference_cap(engine, node_id, root):
    """The most ``node_id``'s server can add for ``root``: the best
    contribution among its probe's survivors (exact ones only in exact
    mode), 0.0 for none — from the probe and ``contribution`` directly."""
    survivors = engine.servers[node_id]._probe_shared(root.dewey)[0]
    model = engine.score_model
    return max(
        (
            model.contribution(
                node_id, MatchQuality.EXACT if exact else MatchQuality.RELAXED, candidate
            )
            for candidate, exact in survivors
            if exact or engine.relaxed
        ),
        default=0.0,
    )


def reference_bound(match, engine):
    """``match``'s score plus what its unvisited servers can still add for
    its root, summed afresh in ``server_ids`` order from :func:`reference_cap`
    — per extension, with nothing kept."""
    remaining = 0.0
    for node_id in engine.server_ids:
        if node_id not in match.visited:
            remaining += reference_cap(engine, node_id, match.root_node)
    return match.score + remaining


def eager_extend(instantiations, qualities, node_id, candidate, quality):
    """``PartialMatch.extend``'s dict handling as it was: copy, then set."""
    instantiations = dict(instantiations)
    instantiations[node_id] = candidate
    qualities = dict(qualities)
    qualities[node_id] = quality
    return instantiations, qualities


class HotPathOracle(ExecutionTrace):
    """Records the run and holds every extension against the old code."""

    def __init__(self):
        super().__init__()
        self.engine = None
        self.shadow = None
        self.eager = {}  # match_id -> (instantiations, qualities), eagerly copied
        self.extensions = []
        self._routed = {}
        self._batch_open = False

    def attach(self, engine):
        self.engine = engine
        self.shadow = TopKSet(engine.k, threshold_source=engine.topk.threshold_source)

    @contextlib.contextmanager
    def recording_extends(self):
        """Mirror every ``extend`` with the eager copy while the block runs."""
        real_extend = PartialMatch.extend
        eager = self.eager

        def extend(match, node_id, candidate, quality, contribution, visited=None):
            child = real_extend(match, node_id, candidate, quality, contribution, visited)
            eager[child.match_id] = eager_extend(
                *eager.get(match.match_id, ({}, {})), node_id, candidate, quality
            )
            return child

        PartialMatch.extend = extend
        try:
            yield
        finally:
            PartialMatch.extend = real_extend

    # -- hooks ---------------------------------------------------------------------

    def _live(self, threshold):
        assert threshold == self.engine.topk.threshold()

    def _close_batch(self):
        """Observe-each leaves what the engine's one meeting per batch left."""
        if self._batch_open:
            self._batch_open = False
            assert self.engine.topk.export_state() == self.shadow.export_state()
            assert self.engine.topk.threshold() == self.shadow.threshold()

    def on_seed(self, match, threshold):
        super().on_seed(match, threshold)
        self.shadow.observe(match, complete=not self.engine.server_ids)
        assert match.upper_bound.hex() == reference_bound(match, self.engine).hex()
        self._live(threshold)

    def on_route(self, match, server_id, threshold):
        super().on_route(match, server_id, threshold)
        self._close_batch()
        self._routed[match.match_id] = server_id
        self._live(threshold)

    def on_prune(self, match, threshold):
        super().on_prune(match, threshold)
        self._close_batch()
        self._live(threshold)

    def on_extension(self, parent, extension, outcome, threshold):
        super().on_extension(parent, extension, outcome, threshold)
        server_id = self._routed[parent.match_id]
        assert extension.visited == parent.visited | {server_id}
        assert len(extension.visited) == len(parent.visited) + 1
        assert extension.upper_bound.hex() == reference_bound(extension, self.engine).hex()
        complete = outcome == "completed"
        assert complete == extension.is_complete(self.engine.server_ids)
        self.shadow.observe(extension, complete)
        self._batch_open = self._batch_open or complete
        self.extensions.append(extension)
        self._live(threshold)

    def finish(self):
        """After the run: the last batch, then every extension's dict views."""
        self._close_batch()
        assert self.engine.topk.export_state() == self.shadow.export_state()
        for extension in reversed(self.extensions):  # deepest chains first
            instantiations, qualities = self.eager[extension.match_id]
            assert _items(extension.instantiations) == _items(instantiations)
            assert list(extension.qualities.items()) == list(qualities.items())
            assert extension.instantiations is extension.instantiations  # kept


def _items(instantiations):
    return [(node_id, id(node)) for node_id, node in instantiations.items()]


def open_case(engine, k, algorithm, observer):
    return engine.open(k, algorithm=algorithm.split("@")[0], observer=observer)


def drive(run, algorithm):
    if algorithm == SIMULATED:
        return simulate(run, n_processors=1, cost_model=CostModel()).result
    return run.run()


def run_with_oracle(engine, k, algorithm):
    oracle = HotPathOracle()
    run = open_case(engine, k, algorithm, oracle)
    oracle.attach(run)
    with oracle.recording_extends():
        result = drive(run, algorithm)
    oracle.finish()
    return oracle, result


# -- the golden table ---------------------------------------------------------------


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def event_rows(trace):
    """The event sequence, match ids relative to the run's first; a
    completed sibling's threshold is left out (module docstring)."""
    base = trace.events[0].match_id if trace.events else 0
    return [
        [
            event.kind,
            event.match_id - base,
            event.server_id,
            event.score.hex(),
            event.bound.hex(),
            event.detail,
            None if event.detail == "completed" else event.threshold.hex(),
        ]
        for event in trace.events
    ]


def fingerprint(engine, k, algorithm, trace, result):
    """What the golden table holds for one case — public API only, so the
    same function runs against the parent commit."""
    stats = result.stats.as_dict()
    del stats["wall_time_seconds"]
    row = {
        "events": _digest(json.dumps(event_rows(trace))),
        "event_count": len(trace.events),
        "stats": stats,
        "answers": _digest(
            json.dumps([[list(a.root_node.dewey), a.score.hex()] for a in result.answers])
        ),
        "pending_bound": result.pending_bound.hex(),
    }
    if algorithm != SIMULATED:  # a simulated run takes no checkpoint policy
        stepped = engine.open(
            k,
            algorithm=algorithm,
            max_operations=max(int(stats["server_operations"]) // 2, 1),
            checkpoint_policy=CheckpointPolicy(every_operations=10**9),
        )
        stepped.run()
        row["snapshot"] = _digest(json.dumps(stepped.last_checkpoint))
    return row


def golden_cases():
    database = generate_database(XMarkConfig(items=150, seed=17))
    for relaxed in (True, False):
        for query, xpath in QUERIES.items():
            engine = Engine(database, xpath, relaxed=relaxed)
            for k in K_VALUES:
                for algorithm in ALGORITHMS + (SIMULATED,):
                    mode = "relaxed" if relaxed else "exact"
                    yield f"{mode}/{query}/k={k}/{algorithm}", engine, k, algorithm


def check_golden(only=None):
    """Every case: the oracle's checks, then the golden row."""
    golden = json.loads(GOLDEN.read_text())
    for name, engine, k, algorithm in golden_cases():
        if only is not None and name not in only:
            continue
        oracle, result = run_with_oracle(engine, k, algorithm)
        assert fingerprint(engine, k, algorithm, oracle, result) == golden[name], name


def test_hot_path_matches_old_code_and_parent_golden():
    check_golden()


def check_generated(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        database = _random_database(rng)
        pattern = _random_pattern(rng)
        for relaxed in (True, False):
            engine = Engine(database, pattern, relaxed=relaxed, scoring="random", seed=seed)
            if not len(engine.index[pattern.root.tag]):
                continue
            for algorithm in ALGORITHMS:
                run_with_oracle(engine, rng.randint(1, 4), algorithm)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_hot_path_matches_old_code_on_generated_databases(seed):
    check_generated([seed])


# -- the test bites -------------------------------------------------------------------

#: name -> (class, method, [(old text, new text), ...])
MUTANTS = {
    "last_best": (
        EngineBase,
        "absorb_extensions",
        [("if score > best.score:", "if score >= best.score:")],
    ),
    "keeps_ties": (
        TopKSet,
        "is_pruned",
        [("bound <= self._closing * factor", "bound < self._closing")],
    ),
    "bound_by_size": (
        EngineBase,
        "bound_entry",
        [
            (
                "remaining = bounds.caps.remaining_for(unvisited)",
                "remaining = bounds.remaining.setdefault("
                "len(visited), (bounds.caps.remaining_for(unvisited),))[0]",
            )
        ],
    ),
    "cap_too_low": (
        ScoreModel,
        "caps",
        [
            (
                "cap = exact_contribution if exact else 0.0",
                "cap = relaxed_contribution if exact else 0.0",
            )
        ],
    ),
}

#: Enough of the matrix to meet a tie among completed siblings, a queue
#: closed at the k-th completed score, and two visited sets of one size that
#: differ in what is left to add.  The last needs one root met in two
#: orders: bound rows are per root and kept by the Engine across runs, and
#: one run routes a root's matches alike, so Q2 is run by Whirlpool-S and
#: then by LockStep, on the same Engine.
MUTANT_CASES = {
    "relaxed/Q2/k=15/whirlpool_s",
    "relaxed/Q2/k=15/lockstep",
    "relaxed/Q3/k=15/lockstep",
}


def apply_mutant(name, monkeypatch):
    """Swap in the mutated method for the rest of the test."""
    owner, method, edits = MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(getattr(owner, method)))
    for old, new in edits:
        assert old in source, f"mutation site {old!r} left {owner.__name__}.{method}: update MUTANTS"
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[owner.__module__]))
    exec(compile(source, f"<mutant of {owner.__name__}.{method}>", "exec"), namespace)
    monkeypatch.setattr(owner, method, namespace[method])


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_identity_checks_kill_hand_mutants(name, monkeypatch):
    apply_mutant(name, monkeypatch)
    with pytest.raises(AssertionError):
        check_golden(only=MUTANT_CASES)


def test_cap_too_low_fails_the_bound_property_and_the_differential_battery(
    xmark_db, monkeypatch
):
    """An unsound cap is caught where it matters, not only here: the seeds'
    bounds no longer reach each root's best score, and runs that prune on
    them lose answers the differential battery asks for."""
    apply_mutant("cap_too_low", monkeypatch)
    with pytest.raises(AssertionError):
        for xpath in QUERIES.values():
            check_seed_bounds(Engine(xmark_db, xpath))
    with pytest.raises(AssertionError):
        for seed in range(40):
            check_algorithms_agree(seed)


def test_a_sibling_that_can_only_tie_is_closed_as_it_is_absorbed(xmark_db):
    """The rule's second site.  Whirlpool-S and LockStep never reach it
    with a tie — what they pop bounds what it spawns, and is closed first —
    so no golden row can pin it; Whirlpool-M's threads do (on the
    ``fig10_single`` documents, 269 of one Q2 run's 2,101 unfinished
    siblings).  Here: a finished k = 1 run, whose answer matches the query
    exactly, is handed that root's seed again.  Its extensions can at best
    tie the answer: all are closed, where the strict rule kept the exact
    one."""
    engine = Engine(xmark_db, QUERIES["Q2"])
    run = engine.open(1)
    best = run.run().answers[0]
    assert best.score == engine.score_model.max_total() == run.topk.closing_level()
    seed = PartialMatch.initial(best.root_node)
    server_id = run.server_ids[0]
    siblings = run.servers[server_id].process(seed)[0]
    pruned = run.stats.partial_matches_pruned
    assert run.absorb_extensions(siblings) == []
    assert max(sibling.upper_bound for sibling in siblings) == run.topk.threshold()
    assert run.stats.partial_matches_pruned == pruned + len(siblings)


if __name__ == "__main__":
    # Regenerate the golden table: run from the root of a checkout of the
    # commit to take it from, with that checkout's src on PYTHONPATH.
    table = {}
    for case, case_engine, case_k, case_algorithm in golden_cases():
        case_trace = ExecutionTrace()
        case_run = open_case(case_engine, case_k, case_algorithm, case_trace)
        case_result = drive(case_run, case_algorithm)
        table[case] = fingerprint(case_engine, case_k, case_algorithm, case_trace, case_result)
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
