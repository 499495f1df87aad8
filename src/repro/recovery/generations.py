"""Checkpoint generations: keep the last N *validated* snapshots.

A single-slot store (key → latest snapshot) has a blind spot the
cluster's hostile-network work exposed: if the newest checkpoint is
corrupted — torn on disk, damaged in flight, or truncated by a crash —
restore has nothing to fall back to and the whole run restarts from
zero.  :class:`CheckpointGenerations` closes that gap by layering a
small ring of generations over any :class:`~repro.recovery.store.RecoveryStore`,
one store entry per generation:

- ``save`` takes a snapshot already serialized by its producer
  (:func:`seal`: the JSON text plus a CRC-32 over exactly that text),
  refuses a text that does not match its CRC, and writes
  ``{"generation", "crc", "snapshot"}`` under ``<key>.g<generation>``
  verbatim — nothing is parsed or re-serialized here, the store only
  ever copies a string — then deletes the entries that fall out of the
  newest ``keep``;
- ``load`` walks newest → oldest and returns the first snapshot whose
  text still matches its CRC, skipping corrupt or unreadable entries;
- ``delete`` removes every generation of the key.

Falling back to an *older* generation is always safe for the cluster:
shard steps are deterministic, so restoring an earlier checkpoint just
replays the operations in between and lands on the same state — the
bit-identical-answer guarantee survives, only some work is redone.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.recovery.store import RecoveryStore


def _text_crc(text: str) -> int:
    """CRC-32 over a stored snapshot text's UTF-8 bytes."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def seal(snapshot: Dict[str, Any]) -> Tuple[str, int]:
    """Serialize a snapshot once: ``(compact JSON text, its CRC-32)`` —
    what :meth:`CheckpointGenerations.save` stores and what a shard
    worker ships in a step reply."""
    text = json.dumps(snapshot, separators=(",", ":"))
    return text, _text_crc(text)


class CheckpointGenerations:
    """Last-``keep`` validated checkpoints per key, over any store.

    The lock guards an in-memory list of each key's live generation
    numbers (primed from the store's key listing on first touch, so a
    second instance over the same store continues the numbering); every
    store call happens *outside* the lock (never hold a lock across file
    I/O — the graph analyzer's WPLG02 rule).  Concurrent savers of one
    key get distinct generation numbers, hence distinct store entries;
    the cluster saves each shard's key from a single query thread anyway.
    """

    def __init__(self, store: RecoveryStore, keep: int = 3) -> None:
        if keep < 1:
            raise RecoveryError(f"keep must be >= 1, got {keep}")
        self.store = store
        self.keep = keep
        self._lock = threading.Lock()
        self._rings: Dict[str, List[int]] = {}

    def generations(self, key: str) -> List[int]:
        """Stored generation numbers for ``key``, oldest first."""
        prefix = f"{key}.g"
        return sorted(
            int(name[len(prefix) :])
            for name in self.store.keys()
            if name.startswith(prefix) and name[len(prefix) :].isdigit()
        )

    def save(self, key: str, text: str, crc: int) -> None:
        """Store a :func:`seal`-ed snapshot as the newest generation and
        retire the ones beyond ``keep``.  A text that does not match
        ``crc`` was damaged on its way here: it raises
        :class:`~repro.errors.RecoveryError` and leaves the ring as it was."""
        if _text_crc(text) != crc:
            raise RecoveryError(f"checkpoint for {key!r} does not match its CRC")
        with self._lock:
            primed = key in self._rings
        stored = [] if primed else self.generations(key)
        with self._lock:
            ring = self._rings.setdefault(key, stored)
            generation = ring[-1] + 1 if ring else 0
            ring.append(generation)
            retired = ring[: -self.keep]
            del ring[: -self.keep]
        entry = {"generation": generation, "crc": crc, "snapshot": text}
        self.store.save(f"{key}.g{generation}", entry)
        for old in retired:
            self.store.delete(f"{key}.g{old}")

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The newest snapshot whose CRC validates, or ``None``."""
        for generation in reversed(self.generations(key)):
            try:
                entry = self.store.load(f"{key}.g{generation}")
            except RecoveryError:
                continue  # torn or unparseable entry: fall back past it
            text = None if entry is None else entry.get("snapshot")
            if isinstance(text, str) and _text_crc(text) == entry.get("crc"):
                return json.loads(text)
        return None

    def delete(self, key: str) -> None:
        """Forget every generation of ``key``."""
        with self._lock:
            self._rings.pop(key, None)
        for generation in self.generations(key):
            self.store.delete(f"{key}.g{generation}")
        # A directory written before per-generation entries holds the
        # whole ring under the bare key; it is no longer read, so drop it.
        self.store.delete(key)
