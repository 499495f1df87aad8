"""How much codec work one sharded query's step path does — as counts.

A shard worker advances its run in budget steps and checkpoints at each
budget exit (:mod:`repro.cluster.worker`).  What that *should* cost is
small and exact: one checkpoint per step, every match encoded at most
once in its life, no restore at all unless something failed, and a
checkpoint text no larger than the snapshot shape needs.  This driver
pins those numbers for one fixed query so the trajectory gate
(:mod:`repro.bench.trajectory`) fails if a later change brings back a
restore per step, a second encode of the same state or a fatter
snapshot.

Each shard's :class:`~repro.cluster.worker.ShardWorker` is driven
in-process through ``init`` → ``begin`` → ``step`` … exactly as the
coordinator would drive it over frames, with the codec's two entry points
counted from outside for the duration — so the counts are deterministic
and no process is spawned.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.core.base as core_base
import repro.recovery.codec as codec
from repro.bench.params import QUERIES
from repro.cluster.partition import build_shard_specs
from repro.cluster.worker import ShardWorker
from repro.core.engine import Engine
from repro.xmark.generator import generate_root
from repro.xmark.schema import XMarkConfig
from repro.xmldb.model import Database

FOREST_DOCUMENTS = 4
FOREST_ITEMS_PER_DOCUMENT = 60
FOREST_SEED = 16


def fixed_forest() -> Database:
    """The record's forest: four small XMark documents, fixed seeds."""
    return Database.from_roots(
        [
            generate_root(
                XMarkConfig(items=FOREST_ITEMS_PER_DOCUMENT, seed=FOREST_SEED + number)
            )
            for number in range(FOREST_DOCUMENTS)
        ]
    )


@contextlib.contextmanager
def counted(
    owner: Any,
    name: str,
    calls: List[int],
    when: Optional[Callable[[Any], bool]] = None,
) -> Iterator[None]:
    """Count calls of ``owner.name`` — those whose result satisfies
    ``when``, if given — into ``calls[0]`` while the block runs."""
    original: Callable[..., Any] = getattr(owner, name)

    def counting(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        if when is None or when(result):
            calls[0] += 1
        return result

    setattr(owner, name, counting)
    try:
        yield
    finally:
        setattr(owner, name, original)


def drive_shard(
    worker: ShardWorker, documents: List[str], begin: Dict[str, Any]
) -> Dict[str, int]:
    """One fault-free query on one shard; returns its step-path counts,
    with ``checkpoint_bytes``: the bytes of every sealed checkpoint text
    its step replies carry, summed."""
    encodes, restores = [0], [0]
    with counted(codec, "match_payload", encodes), counted(
        core_base, "restore_engine_state", restores
    ):
        for frame in ({"op": "init", "id": 1, "documents": documents}, {**begin, "id": 2}):
            reply, _ = worker.handle(frame)
            assert reply is not None and reply["ok"], reply
        steps = 0
        checkpoint_bytes = 0
        while True:
            steps += 1
            reply, _ = worker.handle({"op": "step", "id": 2 + steps})
            assert reply is not None and reply["ok"], reply
            if reply["done"]:
                break
            checkpoint_bytes += len(reply["checkpoint"]["text"].encode("utf-8"))
    return {
        "steps": steps,
        "checkpoints_taken": int(reply["stats"]["checkpoints_taken"]),
        "checkpoint_bytes": checkpoint_bytes,
        "encode_match_builds": encodes[0],
        "restore_calls": restores[0],
    }


def begin_frame(engine: Engine, k: int, step_operations: int, **extra: Any) -> Dict[str, Any]:
    """The ``begin`` a coordinator holding ``engine`` would send its shards."""
    return {
        "op": "begin",
        "query": engine.pattern.to_xpath(),
        "k": k,
        "relaxed": engine.relaxed,
        "contributions": engine.score_model.contributions(),
        "step_operations": step_operations,
        **extra,
    }


def cluster_step_codec(
    query: str = "Q2", k: int = 15, shards: int = 2, step_operations: int = 100
) -> Dict[str, Any]:
    """Per-shard step-path counts of one fixed sharded query."""
    forest = fixed_forest()
    begin = begin_frame(Engine(forest, QUERIES[query]), k, step_operations)
    payload: Dict[str, Any] = {
        "query": query,
        "k": k,
        "step_operations": step_operations,
        "shards": {},
    }
    for spec in build_shard_specs(forest, shards):
        payload["shards"][spec.shard_id] = drive_shard(
            ShardWorker(spec.shard_id), list(spec.xml_texts), begin
        )
    return payload
