"""Partitioning the document forest across shards, and Dewey remapping.

A shard owns a subset of the forest's documents.  Workers re-parse their
subset into a fresh :class:`~repro.xmldb.model.Database`, which re-stamps
document ordinals ``0..m-1`` — so every Dewey id crossing the wire back
to the coordinator must have its first component mapped from the shard's
local ordinal to the global one.  That remap is the *only* translation
the cluster needs: scores are computed from coordinator-shipped global
contribution tables (:meth:`repro.scoring.model.ScoreModel.contributions`),
so a shard-local match is bit-identical to the same match in a
single-process run except for its document ordinal.

Partitions are deterministic in ``(documents, shards, skew, seed)``.
``skew`` exists because real shard layouts are never balanced — the
differential tests exercise pathological splits (one shard owning most
of the forest, another owning one document) to prove merge correctness
does not depend on balance.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Tuple

from repro.errors import ClusterError
from repro.xmldb.dewey import Dewey
from repro.xmldb.model import Database
from repro.xmldb.serializer import serialize


class ShardSpec:
    """One shard's slice of the forest, ready to ship to a worker."""

    __slots__ = ("shard_id", "global_ordinals", "xml_texts")

    def __init__(
        self,
        shard_id: int,
        global_ordinals: Tuple[int, ...],
        xml_texts: Tuple[str, ...],
    ) -> None:
        self.shard_id = shard_id
        self.global_ordinals = global_ordinals
        self.xml_texts = xml_texts

    def __repr__(self) -> str:
        return (
            f"ShardSpec(shard={self.shard_id}, "
            f"documents={list(self.global_ordinals)})"
        )


def partition_ordinals(
    count: int, shards: int, skew: float = 0.0, seed: int = 0
) -> List[List[int]]:
    """Split document ordinals ``0..count-1`` into ``shards`` lists.

    ``skew == 0`` deals documents round-robin (balanced).  ``skew > 0``
    draws a weight ``(1 + skew) ** i`` for shard ``i`` and assigns each
    document to a shard sampled by weight from the seeded RNG — larger
    skew concentrates the forest on the last shards.  Every shard list
    stays sorted so partitioning is order-stable.

    Empty shards are allowed (an extreme skew may starve one); workers
    handle an empty partition by reporting ``done`` immediately.
    """
    if count < 0:
        raise ClusterError(f"document count must be >= 0, got {count}")
    if shards < 1:
        raise ClusterError(f"shards must be >= 1, got {shards}")
    if skew < 0:
        raise ClusterError(f"skew must be >= 0, got {skew}")
    assignment: List[List[int]] = [[] for _ in range(shards)]
    if skew == 0.0:
        for ordinal in range(count):
            assignment[ordinal % shards].append(ordinal)
        return assignment
    rng = random.Random(seed)
    weights = [(1.0 + skew) ** index for index in range(shards)]
    total = sum(weights)
    for ordinal in range(count):
        pick = rng.random() * total
        cumulative = 0.0
        chosen = shards - 1
        for index, weight in enumerate(weights):
            cumulative += weight
            if pick < cumulative:
                chosen = index
                break
        assignment[chosen].append(ordinal)
    return assignment


def build_shard_specs(
    database: Database, shards: int, skew: float = 0.0, seed: int = 0
) -> List[ShardSpec]:
    """Serialize the forest into per-shard document sets.

    The XML text is the unit of shipping (and of re-shipping on
    failover): the coordinator caches these specs for the lifetime of
    the cluster so respawning a worker never re-serializes.
    """
    assignment = partition_ordinals(len(database.documents), shards, skew, seed)
    specs: List[ShardSpec] = []
    for shard_id, ordinals in enumerate(assignment):
        texts = tuple(
            serialize(database.documents[ordinal], pretty=False)
            for ordinal in ordinals
        )
        specs.append(ShardSpec(shard_id, tuple(ordinals), texts))
    return specs


def remap_dewey(local: Sequence[int], global_ordinals: Sequence[int]) -> Dewey:
    """Translate a shard-local Dewey id to the global forest.

    The first component is the shard-local document ordinal (position in
    the shard's partition); everything below the document root is
    untouched.
    """
    if not local:
        raise ClusterError("cannot remap an empty Dewey id")
    position = local[0]
    if not 0 <= position < len(global_ordinals):
        raise ClusterError(
            f"shard-local ordinal {position} outside partition of "
            f"{len(global_ordinals)} documents"
        )
    return (global_ordinals[position],) + tuple(local[1:])


def remap_match_payload(
    payload: Sequence[Any], global_ordinals: Sequence[int]
) -> List[Any]:
    """Remap every Dewey id of an encoded match (the shape of
    :func:`repro.recovery.codec.encode_match`, ``[root, score, [[node_id,
    node, quality], ...]]``) into a new payload; ``None`` (a deleted
    leaf) stays ``None``."""
    root, score, entries = payload
    return [
        list(remap_dewey(root, global_ordinals)),
        score,
        [
            [node_id, None if node is None else list(remap_dewey(node, global_ordinals)), quality]
            for node_id, node, quality in entries
        ],
    ]
