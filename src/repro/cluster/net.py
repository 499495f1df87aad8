"""The shard link: how the coordinator reaches a worker process.

:class:`SocketTransport` owns one shard's worker subprocess and the
framed link to it.  The worker dials back to a coordinator-owned
loopback TCP listener and authenticates with a per-spawn session token.
A dropped connection is *not* a dead worker: the worker redials with
exponential backoff, the coordinator re-accepts, and the in-flight RPC
is replayed idempotently (the worker's reply cache answers duplicates
without re-executing).  A stale worker — one superseded by failover —
presents an old token, is refused at the handshake, and exits instead
of split-braining the shard.  A worker that is gone, or that does not
redial in time, is left to the coordinator's failover ladder.

Outbound frames are sequenced per connection (duplicate delivery is
dropped by the receiver's ``seq`` check) and carry the CRC-checked
framing of :mod:`repro.cluster.protocol`, so a flipped bit anywhere on
the link is detected, condemns the connection, and rides the same
reconnect-or-failover path as a partition.

Network fault injection lives here too: the send path arms the query's
:attr:`~repro.faults.plan.FaultSite.NET` rules once per outbound frame
of *this shard* (so a shard's schedule does not depend on how rounds
interleave across shards) and executes what fires — PARTITION severs
the link, CORRUPT_FRAME flips a bit in flight, DUP_FRAME delivers twice,
RECONNECT_STORM severs on several consecutive sends — which is what the
NET half of the chaos matrix in ``tests/test_cluster_chaos.py`` sweeps.

Locking discipline: the transport guards its mutable attributes with
short ``self._lock`` sections (it is watched by WPL001 and the runtime
race detector) and never holds a lock across socket I/O — the graph
analyzer's WPLG02 blocking-under-lock rule applies to this module with
no baseline entries.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
from typing import Any, Dict, List, Optional

from repro.cluster.protocol import FrameReader, encode_frame
from repro.core.stats import monotonic_seconds
from repro.errors import (
    ClusterError,
    ConnectionLostError,
    ProtocolError,
    WorkerLostError,
)
from repro.faults.inject import FaultArm
from repro.faults.plan import FaultAction, FaultSite

#: Total link severs a RECONNECT_STORM rule performs (the firing send
#: plus this many minus one follow-ups), so one rule exercises several
#: rungs of the reconnect backoff ladder in quick succession.
RECONNECT_STORM_DROPS = 3


def corrupt_frame_bytes(data: bytes) -> bytes:
    """Flip one bit in a frame's final byte — enough to fail the CRC
    without disturbing the header, mimicking payload corruption in
    flight."""
    if not data:
        return data
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with this checkout's ``src`` on
    ``PYTHONPATH`` so workers import the same tree even without an
    installed dist."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
    return env


class SocketTransport:
    """One shard's worker process plus the framed link to it: loopback
    TCP with token-authenticated redial.

    The coordinator owns one listening socket per shard (bound once,
    port stable across respawns).  ``spawn`` mints a fresh session
    token, passes it to the worker on its command line, and waits for
    the worker to dial back and present it; ``reconnect`` re-runs only
    the accept/handshake half against the *same* token, which is what
    distinguishes a partitioned worker (session intact, state resident)
    from a replaced one (old token refused, process exits).
    """

    def __init__(
        self,
        shard_id: int,
        python_executable: Optional[str] = None,
        connect_timeout_seconds: float = 10.0,
    ) -> None:
        if connect_timeout_seconds <= 0:
            raise ClusterError("connect timeout must be positive")
        self.shard_id = shard_id
        self.python_executable = python_executable or sys.executable
        self.connect_timeout_seconds = connect_timeout_seconds
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._out_seq = 0
        self._net_arm: Optional[FaultArm] = None
        self._storm_remaining = 0
        self._listener: Optional[socket.socket] = None
        self._port = 0
        self._conn: Optional[socket.socket] = None
        self._reader: Optional[FrameReader] = None
        self._token = ""

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_listener(self) -> socket.socket:
        listener = self._listener
        if listener is not None:
            return listener
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        port = sock.getsockname()[1]
        with self._lock:
            self._listener = sock
            self._port = port
        return sock

    def spawn(self) -> None:
        """Start (or restart) the worker and establish the link; raises
        :class:`~repro.errors.WorkerLostError` when the worker never
        comes up."""
        self._ensure_listener()
        token = os.urandom(8).hex()
        with self._lock:
            self._token = token
        proc = subprocess.Popen(
            [
                self.python_executable,
                "-m",
                "repro.cluster.worker",
                "--shard",
                str(self.shard_id),
                "--connect",
                f"127.0.0.1:{self._port}",
                "--token",
                token,
            ],
            stdin=subprocess.DEVNULL,
            stdout=None,
            stderr=None,  # inherit both: tracebacks surface in our stderr
            env=_worker_env(),
        )
        with self._lock:
            self._proc = proc
            self._conn = None
            self._reader = None
        if not self._accept(monotonic_seconds() + self.connect_timeout_seconds):
            self.kill()
            raise WorkerLostError(self.shard_id, "spawn_failed")

    def _accept(self, give_up_at: float) -> bool:
        """Accept-and-handshake loop: take the next dial-in that
        presents the current session token; refuse (and keep waiting
        past) anything else until ``give_up_at``."""
        listener = self._listener
        if listener is None:
            return False
        while True:
            timeout = give_up_at - monotonic_seconds()
            if timeout <= 0:
                return False
            try:
                readable, _, _ = select.select([listener.fileno()], [], [], timeout)
            except OSError:  # listener closed under us (teardown race)
                return False
            if not readable:
                return False
            try:
                conn, _ = listener.accept()
            except OSError:
                return False
            reader = FrameReader(conn.fileno())
            try:
                hello = reader.read(give_up_at)
            except ClusterError:
                conn.close()
                continue
            with self._lock:
                token = self._token
            accepted = (
                hello is not None
                and hello.get("op") == "hello"
                and hello.get("shard") == self.shard_id
                and hello.get("token") == token
            )
            try:
                conn.sendall(encode_frame({"op": "hello", "ok": accepted}, seq=1))
            except OSError:
                conn.close()
                continue
            if not accepted:
                # A stale session (pre-failover worker) or an impostor:
                # refused, and the refusal tells the worker to exit.
                conn.close()
                continue
            old = self._conn
            with self._lock:
                self._conn = conn
                self._reader = reader
                self._out_seq = 1  # the hello ack consumed seq 1
            if old is not None:
                try:
                    old.close()
                except OSError:
                    pass
            return True

    def kill(self) -> None:
        """Tear down the worker process and the link (idempotent)."""
        self._sever()
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - SIGKILL pending
            pass
        with self._lock:
            self._proc = None

    def close(self) -> None:
        """Final teardown; also releases the listener."""
        self.kill()
        with self._lock:
            listener = self._listener
            self._listener = None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.poll() is None

    # -- fault boundary -----------------------------------------------------------

    def arm_net_faults(self, arm: Optional[FaultArm]) -> None:
        """Install (or clear) the per-query NET fault schedule.  It stays
        armed across failovers — the network does not get healthier
        because a worker was replaced — and rule ``times`` caps keep every
        schedule finite."""
        with self._lock:
            self._net_arm = arm
            self._storm_remaining = 0

    # -- frames -------------------------------------------------------------------

    def send(self, payload: Dict[str, Any]) -> None:
        """Encode, sequence, and deliver one frame through the NET fault
        boundary; raises :class:`~repro.errors.ConnectionLostError` when
        the link is (or just became) unusable."""
        with self._lock:
            self._out_seq += 1
            seq = self._out_seq
            arm = self._net_arm
            storm = self._storm_remaining > 0
            if storm:
                self._storm_remaining -= 1
        data = encode_frame(payload, seq=seq)
        duplicate = False
        if not storm and arm is not None:
            rule = arm.arm(FaultSite.NET, str(self.shard_id))
            if rule is not None:
                if rule.action is FaultAction.CORRUPT_FRAME:
                    data = corrupt_frame_bytes(data)
                elif rule.action is FaultAction.DUP_FRAME:
                    duplicate = True
                elif rule.action is FaultAction.PARTITION:
                    storm = True
                elif rule.action is FaultAction.RECONNECT_STORM:
                    with self._lock:
                        self._storm_remaining = RECONNECT_STORM_DROPS - 1
                    storm = True
        if storm:
            self._sever()
            raise ConnectionLostError(self.shard_id, "partition")
        self._write_bytes(data)
        if duplicate:
            self._write_bytes(data)

    def recv(self, deadline_at: Optional[float]) -> Dict[str, Any]:
        """One inbound frame; raises :class:`FrameTimeout` past the
        deadline, the typed :class:`~repro.errors.ProtocolError` family
        on corruption, :class:`~repro.errors.ConnectionLostError` on
        EOF/reset."""
        reader = self._reader
        if reader is None:
            raise ConnectionLostError(self.shard_id, "not_connected")
        try:
            reply = reader.read(deadline_at)
        except ProtocolError:
            self._sever()
            raise
        if reply is None:
            self._sever()
            raise ConnectionLostError(self.shard_id, "eof")
        return reply

    def reconnect(self, give_up_at: float) -> bool:
        """Re-establish the link to the *same* worker session by
        accepting its redial, waiting until ``give_up_at`` at most."""
        self._sever()
        return self._accept(give_up_at)

    def _write_bytes(self, data: bytes) -> None:
        conn = self._conn
        if conn is None:
            raise ConnectionLostError(self.shard_id, "not_connected")
        try:
            conn.sendall(data)
        except OSError as exc:
            self._sever()
            raise ConnectionLostError(self.shard_id, "reset") from exc

    def _sever(self) -> None:
        """Drop the link (PARTITION semantics) without killing the
        process."""
        with self._lock:
            conn = self._conn
            self._conn = None
            self._reader = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass


__all__: List[str] = [
    "RECONNECT_STORM_DROPS",
    "SocketTransport",
    "corrupt_frame_bytes",
]
