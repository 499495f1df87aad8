"""Global top-k merge and threshold algebra over per-shard streams.

This is the Fagin/TA-shaped heart of the cluster (ROADMAP item 1): each
shard is an independent source emitting (a) its current local top-k and
(b) a sound ``pending_bound`` certificate over everything it has not
reported.  Because document partitioning makes shard answer sets
*disjoint* (an answer's root lives in exactly one shard) and every shard
scores with the coordinator-shipped global contribution tables, the
global top-k over the forest is exactly the k best of the union of the
shard-local top-k's, under the engines' own total order
``(-score, dewey)`` (:meth:`repro.core.topk.TopKSet.answers`).

Soundness of early termination: once the merged k-th score strictly
dominates a shard's bound, no unreported or future match from that shard
can reach the global top-k — a future score is ≤ the shard bound < the
k-th score, and ties never displace an incumbent.  The comparison is
strict where ``TopKSet.is_pruned`` is not: the set closes a match that
can at best *tie* because it knows k *completed* matches hold that
score, whereas the merged k-th score is a shard's word for its best
known entries — in relaxed mode a step's answers may still be partial
matches — so equality here proves nothing about what the shard will
finish with.  Inside each shard the set closes ties against its local
k-th completed score, which never exceeds the forest's, so a shard
prunes no more than the single-process run would.  The same algebra
produces the degraded certificate: for a *lost* shard the coordinator
still holds its last reported top-k and bound, so ``max(last bound, last
k-th local score)`` bounds anything the dead worker knew that we do not.

Everything here is pure data-in/data-out — no processes, no locks — so
the differential tests can hammer it without spawning a cluster.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.xmldb.dewey import Dewey

#: One merged candidate: (global root Dewey, score, owning shard id).
MergedAnswer = Tuple[Dewey, float, int]


def merge_answers(
    per_shard: Dict[int, Sequence[Tuple[Dewey, float]]], k: int
) -> List[MergedAnswer]:
    """The k best answers across shards under ``(-score, dewey)``.

    ``per_shard`` maps shard id → that shard's current local top-k as
    (already remapped global root Dewey, score) pairs.  Roots are
    disjoint across shards by construction of the partition, so a plain
    sort of the union is the exact global order.
    """
    pool: List[MergedAnswer] = []
    for shard_id, answers in per_shard.items():
        for dewey, score in answers:
            pool.append((dewey, score, shard_id))
    pool.sort(key=lambda entry: (-entry[1], entry[0]))
    return pool[:k]


def kth_score(merged: Sequence[MergedAnswer], k: int) -> Optional[float]:
    """The merged k-th best score, or ``None`` while fewer than k
    answers exist (no threshold — nothing can be dominated yet)."""
    if len(merged) < k:
        return None
    return merged[k - 1][1]


def dominated(shard_bound: float, threshold: Optional[float]) -> bool:
    """May this shard still contribute to the global top-k?

    Strict ``<`` on purpose: at equality an unreported match could tie
    the current k-th answer, and the merged k-th may itself rest on a
    partial match (module docstring) — the top-k set's tie-closing
    argument needs k completed incumbents, which the coordinator cannot
    see.  Strictness also keeps the certificate independent of arrival
    order.
    """
    return threshold is not None and shard_bound < threshold


def lost_shard_bound(
    last_pending_bound: Optional[float],
    last_answers: Optional[Sequence[Tuple[Dewey, float]]],
    k: int,
    max_total: float,
) -> float:
    """Sound upper bound on any answer a lost shard could still hold.

    - Never heard from it → ``max_total`` (no complete match can score
      above the sum of per-node maximum contributions).
    - Otherwise: unprocessed work is bounded by its last
      ``pending_bound``; already-processed-but-unreported roots (beyond
      its local top-k) are bounded by its k-th reported score (a local
      top-k with fewer than k entries reported *everything* it had).
    """
    if last_pending_bound is None or last_answers is None:
        return max_total
    kth_local = last_answers[k - 1][1] if len(last_answers) >= k else 0.0
    return max(last_pending_bound, kth_local)


def global_pending_bound(
    live_bounds: Sequence[float], lost_bounds: Sequence[float]
) -> float:
    """The cluster-wide ``pending_bound``: no answer still queued on a
    live shard or stranded on a lost one can score above this.  (Roots a
    live shard has finished with and left out of its local top-k are
    covered by the other half of the certificate, the merged k-th score —
    :func:`repro.core.topk.certificate_ceiling`.)"""
    bounds = [*live_bounds, *lost_bounds]
    return max(bounds) if bounds else 0.0
