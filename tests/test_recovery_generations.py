"""Direct tests for :class:`repro.recovery.generations.CheckpointGenerations`.

The ring is stored one entry per generation (``<key>.g<n>``): a save
writes one snapshot and retires the one that falls out of ``keep``,
``load`` walks newest → oldest past anything whose CRC does not
validate, ``delete`` leaves nothing behind.
"""

import os
import zlib

import pytest

from repro.errors import RecoveryError
from repro.recovery.generations import CheckpointGenerations, seal
from repro.recovery.store import JsonFileRecoveryStore, MemoryRecoveryStore

KEY = "shard-0"


def snapshot(n: int) -> dict:
    return {"operations": n, "queue": [{"root": f"0.{n}", "score": 0.5 * n}]}


def save(ring: CheckpointGenerations, key: str, payload: dict) -> None:
    """What a shard worker and the coordinator do between them: seal the
    snapshot once, hand the ring the text and its CRC."""
    ring.save(key, *seal(payload))


class RecordingStore(MemoryRecoveryStore):
    """Memory store that remembers every ``save`` it was handed."""

    def __init__(self) -> None:
        super().__init__()
        self.saves = []

    def save(self, key, payload):
        self.saves.append((key, payload))
        super().save(key, payload)


@pytest.fixture(params=["memory", "files"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryRecoveryStore()
    return JsonFileRecoveryStore(str(tmp_path / "store"))


def test_keep_must_be_positive():
    with pytest.raises(RecoveryError):
        CheckpointGenerations(MemoryRecoveryStore(), keep=0)


def test_ring_trims_to_keep_and_numbers_increase(store):
    ring = CheckpointGenerations(store, keep=3)
    seen = []
    for n in range(6):
        save(ring, KEY, snapshot(n))
        seen.append(ring.generations(KEY))
    assert seen == [[0], [0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]]
    assert store.keys() == [f"{KEY}.g3", f"{KEY}.g4", f"{KEY}.g5"]
    assert ring.load(KEY) == snapshot(5)


def test_keys_are_independent(store):
    ring = CheckpointGenerations(store, keep=2)
    save(ring, "shard-1", snapshot(1))
    save(ring, "shard-10", snapshot(10))
    save(ring, "shard-10", snapshot(11))
    assert ring.generations("shard-1") == [0]
    assert ring.generations("shard-10") == [0, 1]
    ring.delete("shard-1")
    assert ring.load("shard-1") is None
    assert ring.load("shard-10") == snapshot(11)


@pytest.mark.parametrize("field", ["snapshot", "crc"])
def test_damaged_newest_falls_back_to_previous(store, field):
    ring = CheckpointGenerations(store, keep=3)
    for n in range(3):
        save(ring, KEY, snapshot(n))
    newest = f"{KEY}.g2"
    entry = store.load(newest)
    if field == "snapshot":
        entry["snapshot"] = entry["snapshot"].replace('"operations":2', '"operations":9')
    else:
        entry["crc"] ^= 1
    store.save(newest, entry)
    assert ring.load(KEY) == snapshot(1)


def test_torn_file_falls_back_to_previous(tmp_path):
    store = JsonFileRecoveryStore(str(tmp_path))
    ring = CheckpointGenerations(store, keep=3)
    save(ring, KEY, snapshot(0))
    save(ring, KEY, snapshot(1))
    with open(os.path.join(str(tmp_path), f"{KEY}.g1.json"), "w") as handle:
        handle.write('{"generation": 1, "crc": 12, "snap')
    assert ring.load(KEY) == snapshot(0)


def test_all_corrupt_loads_none(store):
    ring = CheckpointGenerations(store, keep=2)
    save(ring, KEY, snapshot(0))
    save(ring, KEY, snapshot(1))
    for name in store.keys():
        entry = store.load(name)
        entry["snapshot"] = entry["snapshot"] + " "
        store.save(name, entry)
    assert ring.load(KEY) is None
    assert CheckpointGenerations(store).load("never-saved") is None


def test_delete_leaves_no_generation_behind(store):
    ring = CheckpointGenerations(store, keep=3)
    for n in range(5):
        save(ring, KEY, snapshot(n))
    save(ring, "other", snapshot(7))
    # The previous layout kept the whole ring under the bare key; it is
    # no longer read, and delete must not leave it in the store's key scan.
    store.save(KEY, {"generations": []})
    ring.delete(KEY)
    assert store.keys() == ["other.g0"]
    assert ring.load(KEY) is None
    assert ring.generations(KEY) == []
    # Numbering restarts with the key.
    save(ring, KEY, snapshot(0))
    assert ring.generations(KEY) == [0]


def test_second_instance_continues_the_numbering(tmp_path):
    directory = str(tmp_path / "shared")
    first = CheckpointGenerations(JsonFileRecoveryStore(directory), keep=2)
    for n in range(3):
        save(first, KEY, snapshot(n))
    assert first.generations(KEY) == [1, 2]
    second = CheckpointGenerations(JsonFileRecoveryStore(directory), keep=2)
    assert second.load(KEY) == snapshot(2)
    save(second, KEY, snapshot(3))
    assert second.generations(KEY) == [2, 3]
    assert second.load(KEY) == snapshot(3)
    # ...and deletes what the first instance left.
    second.delete(KEY)
    assert os.listdir(directory) == []


def test_save_hands_the_store_one_snapshot_not_the_ring():
    store = RecordingStore()
    ring = CheckpointGenerations(store, keep=3)
    sizes = []
    for n in range(5):
        save(ring, KEY, snapshot(n))
        key, payload = store.saves[-1]
        assert key == f"{KEY}.g{n}"
        assert set(payload) == {"generation", "crc", "snapshot"}
        assert payload["generation"] == n
        sizes.append(len(payload["snapshot"]))
    # One store write per save, each the size of one snapshot however
    # many generations the ring holds.
    assert len(store.saves) == 5
    assert max(sizes) - min(sizes) <= 2


def test_save_rejects_a_text_that_does_not_match_its_crc(store):
    ring = CheckpointGenerations(store, keep=3)
    save(ring, KEY, snapshot(0))
    before = store.keys()
    text, crc = seal(snapshot(1))
    damaged = text.replace('"operations":1', '"operations":3')
    assert damaged != text
    for bad_text, bad_crc in ((damaged, crc), (text, crc ^ 1)):
        with pytest.raises(RecoveryError):
            ring.save(KEY, bad_text, bad_crc)
    # Nothing stored, ring and numbering as they were.
    assert store.keys() == before
    assert ring.generations(KEY) == [0]
    assert ring.load(KEY) == snapshot(0)
    save(ring, KEY, snapshot(1))
    assert ring.generations(KEY) == [0, 1]


def test_stored_entry_is_byte_for_byte_what_was_sent():
    store = RecordingStore()
    ring = CheckpointGenerations(store, keep=3)
    # Key order and spacing a re-serialization would not reproduce.
    text = '{"operations": 4,  "b": [1, 2], "a": {"z": null}}'
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    ring.save(KEY, text, crc)
    _, entry = store.saves[-1]
    assert entry == {"generation": 0, "crc": crc, "snapshot": text}
    assert store.load(f"{KEY}.g0")["snapshot"] == text
    assert ring.load(KEY) == {"operations": 4, "b": [1, 2], "a": {"z": None}}
