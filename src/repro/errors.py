"""Exception hierarchy for the Whirlpool reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base class at an API boundary.  Parsing problems carry enough
position information to point at the offending character.
"""

from __future__ import annotations

from typing import Sequence


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XMLParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Attributes
    ----------
    message:
        Human-readable description of the problem.
    position:
        Character offset into the input where the problem was detected.
    line:
        1-based line number of the problem, when known.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1) -> None:
        self.message = message
        self.position = position
        self.line = line
        location = ""
        if line >= 0:
            location = f" (line {line})"
        elif position >= 0:
            location = f" (offset {position})"
        super().__init__(f"{message}{location}")


class XPathSyntaxError(ReproError):
    """Raised when the XPath-subset parser rejects a query string."""

    def __init__(self, message: str, query: str = "", position: int = -1) -> None:
        self.message = message
        self.query = query
        self.position = position
        detail = ""
        if query:
            detail = f" in query {query!r}"
            if position >= 0:
                detail += f" at offset {position}"
        super().__init__(f"{message}{detail}")


class PatternError(ReproError):
    """Raised for structurally invalid tree patterns (cycles, bad edges)."""


class RelaxationError(ReproError):
    """Raised when a relaxation is applied to a node/edge it does not fit."""


class ScoringError(ReproError):
    """Raised for invalid scoring configurations (e.g. unknown function)."""


class EngineError(ReproError):
    """Raised for invalid engine configurations or execution failures."""


class EngineDeadlockError(EngineError):
    """Raised when the in-flight counter stops moving for a full backstop window.

    Whirlpool-M's termination is notification-driven; this error firing
    means a worker lost a decrement (a bug), and it carries the evidence:
    the stuck in-flight count and the worker threads still alive.

    Attributes
    ----------
    in_flight:
        The counter value at the moment the backstop expired.
    thread_names:
        Names of the engine threads still alive at that moment.
    backstop_seconds:
        How long the counter sat unchanged before the raise.
    """

    def __init__(
        self,
        in_flight: int,
        thread_names: Sequence[str] = (),
        backstop_seconds: float = 0.0,
    ) -> None:
        self.in_flight = in_flight
        self.thread_names = list(thread_names)
        self.backstop_seconds = backstop_seconds
        alive = ", ".join(self.thread_names) if self.thread_names else "none alive"
        super().__init__(
            f"engine deadlock: in-flight count stuck at {in_flight} for "
            f"{backstop_seconds:g}s (threads: {alive})"
        )


class InjectedFaultError(EngineError):
    """Raised by a :class:`repro.faults.FaultInjector` ERROR action.

    Deliberately a normal engine failure — the whole point of fault
    injection is that supervision must treat injected errors exactly like
    real ones.

    Attributes
    ----------
    site:
        The injection site kind (``server_op``, ``queue_put``, ...).
    target:
        The specific site instance (server id / queue label), when known.
    """

    def __init__(self, site: str, target: str = "", message: str = "") -> None:
        self.site = site
        self.target = target
        where = f"{site}:{target}" if target else site
        super().__init__(message or f"injected fault at {where}")


class EngineCrashError(EngineError):
    """Raised by a :class:`repro.faults.FaultInjector` CRASH action.

    Unlike :class:`InjectedFaultError`, a crash is deliberately *not* a
    supervisable failure: it models the process dying mid-flight.  The
    supervisor re-raises it, engines abort promptly, and the only road
    back is restoring the engine's last checkpoint into a fresh run
    (see :mod:`repro.recovery`).

    Attributes
    ----------
    site:
        The injection site kind (``server_op``, ``queue_put``, ...).
    target:
        The specific site instance (server id / queue label), when known.
    """

    def __init__(self, site: str, target: str = "", message: str = "") -> None:
        self.site = site
        self.target = target
        where = f"{site}:{target}" if target else site
        super().__init__(message or f"injected crash at {where}")


class FaultPlanError(ReproError, ValueError):
    """Raised for a fault rule or plan that cannot be built: an action its
    site cannot execute, a bad trigger, a malformed payload.  Also a
    ``ValueError``, which is what rule validation used to raise."""


class RecoveryError(ReproError):
    """Raised for unusable snapshots: version/shape mismatches, dangling
    node references, or restoring into an incompatible engine (different
    ``k`` or pattern)."""


class ServiceError(ReproError):
    """Raised for invalid query-service configurations or misuse.

    Overload, shedding and drain outcomes are *not* exceptions — the
    service resolves every submitted request with a structured
    :class:`~repro.service.request.QueryResponse` — so this class covers
    only caller errors: bad construction parameters, malformed requests,
    or waiting on a ticket past an explicit timeout.
    """


class GeneratorError(ReproError):
    """Raised for invalid XMark generator parameters."""


class ClusterError(ReproError):
    """Raised for sharded-cluster misuse and unrecoverable cluster state:
    bad construction parameters, malformed worker replies, or a query on
    a coordinator that was already closed.

    Per-shard *failures* (a killed, hung or slow worker) are not
    exceptions — the coordinator absorbs them through failover and, when
    failover is exhausted, degrades the answer with a sound global
    ``pending_bound`` instead of raising.
    """


class CoordinatorBusyError(ClusterError):
    """A :class:`~repro.cluster.coordinator.Coordinator` was handed a query
    while it runs another.  Not a failure: the cluster backend catches
    this type (never the message) and waits for the slot."""


class ProtocolError(ClusterError):
    """Typed wire-protocol violation on a coordinator↔worker stream.

    Raised by :mod:`repro.cluster.protocol` when inbound bytes cannot be
    a well-formed frame: bad magic, an oversized length prefix, a CRC32
    mismatch, or a stream torn mid-frame.  A protocol error condemns the
    *connection*, never the worker session — the transport reconnects
    and replays idempotently.

    Attributes
    ----------
    reason:
        ``bad_magic``, ``oversize``, ``crc_mismatch``, ``truncated`` or
        ``garbage`` (undecodable body).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(detail or f"protocol error: {reason}")


class FrameTooLargeError(ProtocolError):
    """A frame length (declared or encoded) exceeds ``MAX_FRAME_BYTES``.

    Raised *before* any allocation or read of the declared size — a
    corrupted 4-byte length prefix must never drive an unbounded read.

    Attributes
    ----------
    declared_bytes:
        The length the header claimed.
    """

    def __init__(self, declared_bytes: int, limit: int) -> None:
        self.declared_bytes = declared_bytes
        super().__init__(
            "oversize",
            f"frame of {declared_bytes} bytes exceeds MAX_FRAME_BYTES ({limit})",
        )


class FrameCorruptError(ProtocolError):
    """A frame failed an integrity check (magic or CRC32).

    The byte stream is unusable from here on: framing cannot be resumed
    after corruption, so readers surface this instead of guessing at a
    resync point.
    """


class ConnectionLostError(ClusterError):
    """The transport connection to a shard worker broke (EOF, reset, or
    an injected PARTITION).  Unlike :class:`WorkerLostError` the worker
    *process* may still be alive — the transport answers this by
    accepting a redial from the same session, and only escalates to
    failover when the reconnect ladder is exhausted.

    Attributes
    ----------
    shard_id:
        The shard whose connection dropped.
    reason:
        ``eof``, ``reset``, ``partition`` or ``not_connected``.
    """

    def __init__(self, shard_id: int, reason: str) -> None:
        self.shard_id = shard_id
        self.reason = reason
        super().__init__(f"shard {shard_id} connection lost ({reason})")


class WorkerLostError(ClusterError):
    """Raised inside the coordinator's RPC layer when a shard worker
    dies (EOF / broken pipe) or misses its liveness deadline.  Always
    caught by the failover ladder; callers of
    :meth:`~repro.cluster.coordinator.Coordinator.run_query` never see
    it.

    Attributes
    ----------
    shard_id:
        The shard whose worker was lost.
    reason:
        ``eof``, ``timeout`` or ``spawn_failed``.
    """

    def __init__(self, shard_id: int, reason: str) -> None:
        self.shard_id = shard_id
        self.reason = reason
        super().__init__(f"shard {shard_id} worker lost ({reason})")
