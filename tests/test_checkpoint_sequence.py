"""Every snapshot a checkpointed run takes, pinned.

Whirlpool-S and LockStep snapshot on one rule: at a loop pass once
``every_operations`` server operations have passed since the last
checkpoint (or the restored snapshot), and at a budget exit.  The table
(``tests/fixtures/checkpoints/sequence.json``) holds, per case of the grid
below, the digest of each snapshot in the order the sink saw them,
``checkpoints_taken``, the operations, the answer scores and the
``pending_bound``.  Only the public API is used, so the same table can be
taken from any commit: run this file as a script from the root of a
checkout, with that checkout's ``src`` on ``PYTHONPATH``.

The table was retaken when Whirlpool-S began to seed a root only when it
would pop: every snapshot digest moved with ``SNAPSHOT_VERSION`` 2;
Whirlpool-S's snapshots carry a cursor over the roots not seeded yet
instead of their seeds and score-0 top-k entries; and an exit on the
budget reports the roots it has met — three budgeted Q3 rows lost their
score-0 answers.  Operations, ``checkpoints_taken`` and every
``pending_bound`` held.

It was retaken once more with ``SNAPSHOT_VERSION`` 3, which encodes a
match as one flat list (``[root, score, [[node_id, node, quality], ...]]``,
Deweys as int lists) and a top-k entry as ``[match, complete]``: every
snapshot digest moved with the shape; operations, ``checkpoints_taken``,
answer scores and every ``pending_bound`` held.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.bench.params import QUERIES
from repro.core.engine import Engine
from repro.recovery import CheckpointPolicy
from repro.xmark.generator import generate_database
from repro.xmark.schema import XMarkConfig

TABLE = Path(__file__).parent / "fixtures" / "checkpoints" / "sequence.json"
ALGORITHMS = ("whirlpool_s", "lockstep")
K_VALUES = (3, 15)
INTERVALS = (2, 7, 37)
BUDGETS = (None, 100)


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:12]


def snapshot_digest(snapshot, memo):
    """The snapshot's digest, each match payload in it replaced by its own.

    A run's snapshots share the payload of every match still queued
    (``repro.recovery.codec.encode_match``), so each payload is digested
    once, keyed by identity: ``memo`` lives as long as the snapshots."""

    def match(payload):
        if payload is None:
            return None
        digest = memo.get(id(payload))
        if digest is None:
            digest = memo[id(payload)] = _digest(payload)
        return digest

    return _digest(
        dict(
            snapshot,
            queues={
                label: [match(payload) for payload in payloads]
                for label, payloads in snapshot["queues"].items()
            },
            topk=[[match(entry), match(complete)] for entry, complete in snapshot["topk"]],
        )
    )


def cases():
    database = generate_database(XMarkConfig(items=60, seed=17))
    for relaxed in (True, False):
        for query, xpath in QUERIES.items():
            engine = Engine(database, xpath, relaxed=relaxed)
            for algorithm in ALGORITHMS:
                for k in K_VALUES:
                    for interval in INTERVALS:
                        for budget in BUDGETS:
                            mode = "relaxed" if relaxed else "exact"
                            name = f"{mode}/{query}/{algorithm}/k={k}/every={interval}/max_ops={budget}"
                            yield name, engine, algorithm, k, interval, budget


def row(engine, algorithm, k, interval, budget):
    snapshots = []
    result = engine.run(
        k,
        algorithm=algorithm,
        max_operations=budget,
        checkpoint_policy=CheckpointPolicy(every_operations=interval),
        checkpoint_sink=snapshots.append,
    )
    memo = {}
    return {
        "snapshots": [snapshot_digest(snapshot, memo) for snapshot in snapshots],
        "checkpoints_taken": result.stats.checkpoints_taken,
        "operations": result.stats.server_operations,
        "scores": [answer.score.hex() for answer in result.answers],
        "pending_bound": result.pending_bound.hex(),
    }


def table():
    return {name: row(*case) for name, *case in cases()}


def test_snapshot_sequences_match_the_table():
    expected = json.loads(TABLE.read_text())
    got = table()
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    rows = table()
    sys.stdout.write("{\n")
    sys.stdout.write(
        ",\n".join(
            f" {json.dumps(name)}: {json.dumps(rows[name], sort_keys=True)}"
            for name in sorted(rows)
        )
    )
    sys.stdout.write("\n}\n")
