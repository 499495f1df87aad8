"""Corpus replay: every shrunk reproducer re-runs to identical verdicts.

``tests/fixtures/sim/`` is the corpus of minimal reproducers the
explorer/shrinker pipeline wrote; each fixture pins a scenario, a
plan, and the invariant verdicts the run produced.  The replay
contract is byte-for-byte: re-running the fixture must reproduce the
recorded verdicts exactly — including the detail strings — run after
run.  Anything less and the corpus stops being a regression oracle.
"""

import json
from pathlib import Path

import pytest

from repro.sim.shrink import load_fixture, replay_fixture

CORPUS = Path(__file__).parent / "fixtures" / "sim"
NAMES = ["engine_crash", "worker_kill", "net_partition"]


def fixture_path(name):
    return CORPUS / f"{name}.json"


def test_corpus_is_complete():
    found = sorted(path.stem for path in CORPUS.glob("*.json"))
    assert found == sorted(NAMES)


def test_corpus_covers_all_three_fault_families():
    families = set()
    for name in NAMES:
        families.update(load_fixture(fixture_path(name))["plan"].families())
    assert families == {"engine", "net", "process"}


def test_corpus_files_are_canonical_json():
    # Fixtures are written with sorted keys + stable indent; a hand edit
    # that breaks canonical form would silently defeat byte comparisons.
    for name in NAMES:
        raw = fixture_path(name).read_text(encoding="utf-8")
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_replay_reproduces_recorded_verdicts(name):
    replay = replay_fixture(fixture_path(name))
    assert replay["matches"], json.dumps(
        {"recorded": replay["recorded"], "replayed": replay["replayed"]}, indent=2
    )
    # The invariant suite itself held, not just matched.
    assert all(verdict["ok"] for verdict in replay["replayed"])


@pytest.mark.parametrize("name", NAMES)
def test_two_consecutive_replays_are_byte_identical(name):
    first = replay_fixture(fixture_path(name))
    second = replay_fixture(fixture_path(name))
    first_bytes = json.dumps(first["replayed"], indent=2, sort_keys=True)
    second_bytes = json.dumps(second["replayed"], indent=2, sort_keys=True)
    assert first_bytes == second_bytes
    assert first["matches"] and second["matches"]


def test_replays_warp_instead_of_burning_wall_time():
    # The engine fixture crashes and recovers with retry backoff in the
    # loop; under the virtual clock the whole thing stays sub-second.
    replay = replay_fixture(fixture_path("engine_crash"))
    assert replay["run"].wall_seconds < 5.0
