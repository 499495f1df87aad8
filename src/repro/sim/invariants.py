"""The invariant suite checked after every simulated run.

Each invariant is one facet of the paper's correctness-under-adversity
contract (docs/robustness.md): whatever a fault schedule does to the
run, the result must be *exact or certified*.  Checks are pure functions
from results to :class:`Verdict` values with deterministic detail
strings — a corpus fixture records its verdicts and the replay test
compares them byte-for-byte, so nothing time- or id-dependent may leak
into a detail.

The five invariants:

- ``reference_clean`` — the fault-free baseline itself ran undegraded
  (a broken baseline would vacuously pass everything else);
- ``topk_identity`` — a run that does not claim degradation returns a
  correct top-k of the fault-free ``lockstep_noprun`` ranking: the same
  scores, the same roots per score level except among roots tied at the
  k-th score (:func:`repro.core.topk.topk_mismatch` — the one
  definition, which a fault that reorders a run cannot flake);
- ``pending_bound_sound`` — a run's certificate covers every root it
  left out: none scores above ``max(pending_bound, k-th reported score)``
  (:func:`repro.core.topk.certificate_ceiling`);
- ``single_outcome`` — the harness observed exactly one terminal
  outcome for the run (one result, or one crash resolved by exactly one
  recovery) — the engine-level mirror of the service's
  exactly-one-outcome-per-ticket drain audit;
- ``no_leaked_state`` — the run left nothing behind: a fault-free rerun
  on the same engine reproduces the baseline (no poisoned caches or
  stuck in-flight work), and a cluster coordinator reports itself idle
  with no live shard still holding query state;
- ``missing_shards_named`` (cluster runs) — degraded answers *name* the
  shards whose work they lost; an undegraded answer names none.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.core.base import TopKResult
from repro.core.topk import Ranked, certificate_breach, ranked, topk_mismatch


class Verdict:
    """One invariant's outcome for one simulated run."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        self.name = name
        self.ok = ok
        self.detail = detail

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}

    def __repr__(self) -> str:
        flag = "ok" if self.ok else "VIOLATED"
        return f"Verdict({self.name}: {flag} — {self.detail})"


class InvariantReport:
    """All verdicts for one simulated run, in canonical order."""

    def __init__(self, verdicts: Sequence[Verdict]) -> None:
        self.verdicts: List[Verdict] = list(verdicts)

    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def violations(self) -> List[Verdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]

    def as_dict(self) -> List[Dict[str, Any]]:
        return [verdict.as_dict() for verdict in self.verdicts]

    def to_json(self) -> str:
        """Canonical JSON — the byte-for-byte replay comparison form."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def __repr__(self) -> str:
        bad = len(self.violations())
        return f"InvariantReport({len(self.verdicts)} checks, {bad} violated)"


# -- the checks ----------------------------------------------------------------


def check_reference_clean(reference: TopKResult) -> Verdict:
    if reference.degraded:
        return Verdict(
            "reference_clean", False, "fault-free baseline run reported degraded"
        )
    return Verdict(
        "reference_clean",
        True,
        f"baseline returned {len(reference.answers)} undegraded answers",
    )


def check_topk_identity(ranking: Ranked, result: TopKResult) -> Verdict:
    """A non-degraded run must return a top-k of the fault-free ranking."""
    if result.degraded:
        return Verdict(
            "topk_identity",
            True,
            "run is degraded: identity waived, certificate checked instead",
        )
    mismatch = topk_mismatch(ranking, ranked(result.answers), result.k)
    if mismatch is None:
        return Verdict(
            "topk_identity",
            True,
            f"{len(result.answers)} answers are a top-{result.k} of the baseline ranking",
        )
    return Verdict(
        "topk_identity", False, f"undegraded run diverged from baseline: {mismatch}"
    )


def check_pending_bound_sound(ranking: Ranked, result: TopKResult) -> Verdict:
    """Nothing the run left out may score above what it certifies."""
    bound = result.pending_bound
    if bound < 0.0 or bound == float("inf"):
        return Verdict(
            "pending_bound_sound", False, f"certificate is not finite/sane: {bound!r}"
        )
    answers = ranked(result.answers)
    breach = certificate_breach(ranking, answers, result.k, bound)
    if breach is not None:
        return Verdict("pending_bound_sound", False, breach)
    reported = {dewey for dewey, _ in answers}
    lost = sum(1 for dewey, _ in ranking[: result.k] if dewey not in reported)
    return Verdict(
        "pending_bound_sound",
        True,
        f"{lost} lost answers all covered by the certificate",
    )


def check_single_outcome(outcomes: int) -> Verdict:
    """Exactly one terminal outcome (result / crash-then-recovery) per run."""
    if outcomes == 1:
        return Verdict("single_outcome", True, "exactly one terminal outcome observed")
    return Verdict(
        "single_outcome", False, f"{outcomes} terminal outcomes observed (expected 1)"
    )


def check_no_leaked_state(leak: Optional[str]) -> Verdict:
    """``leak`` is the harness's finding (None when everything drained)."""
    if leak is None:
        return Verdict(
            "no_leaked_state", True, "fault-free rerun clean; no resident query state"
        )
    return Verdict("no_leaked_state", False, leak)


def check_missing_shards_named(
    degraded: bool, missing_shards: Sequence[int], shards: int
) -> Verdict:
    """Degraded cluster answers must say *which* shards they lost."""
    bogus = [shard for shard in missing_shards if not 0 <= shard < shards]
    if bogus:
        return Verdict(
            "missing_shards_named", False, f"missing shards out of range: {bogus!r}"
        )
    if not degraded and missing_shards:
        return Verdict(
            "missing_shards_named",
            False,
            f"undegraded answer names missing shards {list(missing_shards)!r}",
        )
    if degraded:
        return Verdict(
            "missing_shards_named",
            True,
            f"degraded answer names shards {sorted(missing_shards)!r}",
        )
    return Verdict("missing_shards_named", True, "no shards missing, none named")
