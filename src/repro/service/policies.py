"""Overload policies: what admission does when the bounded queue is full.

The service's backpressure story (docs/serving.md §2):

- ``reject`` — fast-fail the incoming request with a structured
  ``REJECTED`` outcome; callers see overload immediately.
- ``shed-oldest`` — evict the longest-queued request (it has burned the
  most of its deadline and is the likeliest to miss it anyway) and admit
  the newcomer.
- ``shed-lowest-priority`` — evict the lowest-priority queued request
  (oldest among ties).  When the newcomer itself is the lowest priority
  it is the one shed: a higher-priority request is **never** shed before
  a lower-priority one.
- ``degrade`` — absorb pressure with Whirlpool's anytime machinery
  instead of dropping work: past a queue-depth watermark, admitted
  requests get a tightened deadline and a shrunk ``k`` (:func:`degrade`)
  so each one holds a worker for less time; a full queue still rejects
  (bounded means bounded).

The ``degrade`` transform is tuned by the ``DEGRADE_*`` module
constants; tests that need other values monkeypatch them.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.errors import ServiceError

#: Queue-depth fraction of capacity (measured before insertion) from
#: which the ``degrade`` policy degrades admitted requests.
DEGRADE_WATERMARK_FRACTION = 0.5
#: Multiplier on a degraded request's remaining deadline.
DEGRADE_DEADLINE_FACTOR = 0.5
#: Deadline imposed on a degraded request that arrived without one — an
#: unbounded request cannot absorb pressure.
DEGRADE_FALLBACK_DEADLINE_SECONDS = 0.25
#: Floor under the tightened deadline, so a degraded run can still
#: produce a usable anytime result.
DEGRADE_MIN_DEADLINE_SECONDS = 0.01
#: Multiplier on a degraded request's ``k``, and its floor.
DEGRADE_K_FACTOR = 0.5
DEGRADE_MIN_K = 1


class OverloadPolicy(enum.Enum):
    """Admission behaviour when the queue is at capacity."""

    REJECT = "reject"
    SHED_OLDEST = "shed-oldest"
    SHED_LOWEST_PRIORITY = "shed-lowest-priority"
    DEGRADE = "degrade"

    @classmethod
    def parse(cls, value: str) -> "OverloadPolicy":
        """Policy from its CLI spelling (``reject`` / ``shed-oldest`` / ...)."""
        for policy in cls:
            if policy.value == value:
                return policy
        raise ServiceError(
            f"unknown overload policy {value!r}; expected one of "
            f"{', '.join(p.value for p in cls)}"
        )


def degrade(deadline_seconds: Optional[float], k: int) -> Tuple[float, int]:
    """(tightened deadline, shrunk k) for one degraded request."""
    if deadline_seconds is None:
        deadline = DEGRADE_FALLBACK_DEADLINE_SECONDS
    else:
        deadline = max(
            deadline_seconds * DEGRADE_DEADLINE_FACTOR, DEGRADE_MIN_DEADLINE_SECONDS
        )
    return deadline, max(int(k * DEGRADE_K_FACTOR), DEGRADE_MIN_K)
