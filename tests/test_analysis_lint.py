"""Lint-engine tests: every rule fires on its fixture, the repo is clean.

``tests/fixtures/lint/`` holds deliberately-violating snippets (never
imported, only parsed); each test asserts the expected rule code fires at
the expected line — and nowhere else.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LintEngine,
    default_rules,
    format_human,
    format_json,
    lint_paths,
)
from repro.analysis.lint.engine import Finding, Rule
from repro.analysis.lint.rules import SHARED_CLASSES
from repro.analysis.racecheck import ENGINE_LOCKED_CLASSES

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_SRC = Path(__file__).parent.parent / "src" / "repro"


def codes_and_lines(findings):
    return sorted((f.code, f.line) for f in findings)


class TestRuleFixtures:
    def test_shared_state_guard_fires(self):
        findings = lint_paths([FIXTURES / "unguarded_topk.py"])
        assert codes_and_lines(findings) == [
            ("WPL001", 19),
            ("WPL001", 20),
            ("WPL001", 28),
        ]
        messages = {f.line: f.message for f in findings}
        assert "_entries" in messages[19]
        assert "threshold_value" in messages[20]

    def test_shared_state_guard_spares_init_and_guarded(self):
        findings = lint_paths([FIXTURES / "unguarded_topk.py"])
        lines = {f.line for f in findings}
        # __init__ writes (lines 14-16) and the `with self._lock:` block
        # (lines 24-26) must not be reported.
        assert not lines & set(range(13, 17))
        assert not lines & set(range(23, 27))

    def test_no_bare_thread_fires(self):
        findings = lint_paths([FIXTURES / "bare_thread.py"])
        assert codes_and_lines(findings) == [("WPL002", 15), ("WPL002", 16)]

    def test_engine_contract_fires(self):
        findings = lint_paths([FIXTURES / "engine_contract.py"])
        assert codes_and_lines(findings) == [("WPL003", 15), ("WPL003", 23)]
        by_line = {f.line: f.message for f in findings}
        assert "algorithm" in by_line[15]
        assert "make_server_queue" in by_line[23]

    def test_no_wallclock_in_core_fires(self):
        findings = lint_paths([FIXTURES / "core" / "wallclock.py"])
        assert codes_and_lines(findings) == [
            ("WPL004", 8),
            ("WPL004", 12),
            ("WPL004", 13),
            ("WPL004", 14),  # perf_counter() through `from time import`
        ]

    def test_wallclock_rule_is_path_scoped(self, tmp_path):
        # The same source outside a core/ directory is clean.
        copy = tmp_path / "wallclock.py"
        copy.write_text((FIXTURES / "core" / "wallclock.py").read_text())
        assert lint_paths([copy]) == []

    def test_bench_imports_public_api_fires(self):
        findings = lint_paths([FIXTURES / "benchmarks" / "bench_bad_import.py"])
        assert codes_and_lines(findings) == [("WPL005", 7), ("WPL005", 8)]
        # `from repro.core import Engine` (the public API) is fine.
        assert all("Engine" not in f.message for f in findings)

    def test_inflight_pairing_fires(self):
        findings = lint_paths([FIXTURES / "core" / "inflight_leak.py"])
        assert codes_and_lines(findings) == [("WPL006", 18), ("WPL006", 20)]
        by_line = {f.line: f.message for f in findings}
        assert "except" in by_line[18]
        assert "finally" in by_line[20]

    def test_inflight_pairing_spares_supervised_shape(self):
        # The try/finally loop and the out-of-loop helper in the same
        # fixture must not be reported.
        findings = lint_paths([FIXTURES / "core" / "inflight_leak.py"])
        assert {f.line for f in findings} == {18, 20}

    def test_inflight_pairing_is_path_scoped(self, tmp_path):
        # The same source outside a core/ directory is clean.
        copy = tmp_path / "inflight_leak.py"
        copy.write_text((FIXTURES / "core" / "inflight_leak.py").read_text())
        assert lint_paths([copy]) == []

    def test_unbounded_service_queue_fires(self):
        findings = lint_paths([FIXTURES / "service" / "unbounded_queue.py"])
        assert [(f.code, f.line) for f in findings] == [
            ("WPL007", 12),
            ("WPL007", 13),
            ("WPL007", 14),
        ]
        by_line = {f.line: f.message for f in findings}
        assert "maxsize" in by_line[12]
        assert "maxsize" in by_line[13]
        assert "SimpleQueue" in by_line[14]

    def test_unbounded_service_queue_spares_bounded(self):
        # The bounded constructions later in the fixture must not fire.
        findings = lint_paths([FIXTURES / "service" / "unbounded_queue.py"])
        assert max(f.line for f in findings) == 14

    def test_unbounded_service_queue_is_path_scoped(self, tmp_path):
        # The same source outside a service/ directory is clean.
        copy = tmp_path / "unbounded_queue.py"
        copy.write_text((FIXTURES / "service" / "unbounded_queue.py").read_text())
        assert lint_paths([copy]) == []

    def test_no_wallclock_duration_fires(self):
        findings = lint_paths([FIXTURES / "repro" / "duration_time.py"])
        assert codes_and_lines(findings) == [
            ("WPL008", 4),
            ("WPL008", 10),
            ("WPL008", 11),
            ("WPL008", 12),
        ]
        by_line = {f.line: f.message for f in findings}
        assert "monotonic_seconds" in by_line[10]

    def test_no_wallclock_duration_spares_monotonic_and_noqa(self):
        findings = lint_paths([FIXTURES / "repro" / "duration_time.py"])
        lines = {f.line for f in findings}
        # monotonic_seconds use (lines 17-19) and the noqa'd call (line 22).
        assert not lines & set(range(16, 23))

    def test_no_wallclock_duration_is_path_scoped(self, tmp_path):
        # The same source outside a repro package directory is clean.
        copy = tmp_path / "duration_time.py"
        copy.write_text((FIXTURES / "repro" / "duration_time.py").read_text())
        assert lint_paths([copy]) == []

    def test_no_pickle_snapshot_fires(self):
        findings = lint_paths([FIXTURES / "repro" / "pickle_snapshot.py"])
        assert codes_and_lines(findings) == [
            ("WPL009", 3),
            ("WPL009", 4),
            ("WPL009", 5),
        ]
        by_line = {f.line: f.message for f in findings}
        assert "repro.recovery.codec" in by_line[4]

    def test_no_pickle_snapshot_spares_json_and_noqa(self):
        findings = lint_paths([FIXTURES / "repro" / "pickle_snapshot.py"])
        lines = {f.line for f in findings}
        # The json import (line 7) and the noqa'd pickle import (line 22).
        assert not lines & {7, 22}

    def test_no_pickle_snapshot_is_path_scoped(self, tmp_path):
        # The same source outside a repro package directory is clean.
        copy = tmp_path / "pickle_snapshot.py"
        copy.write_text((FIXTURES / "repro" / "pickle_snapshot.py").read_text())
        assert lint_paths([copy]) == []

    def test_no_direct_sleep_fires(self):
        findings = lint_paths([FIXTURES / "repro" / "direct_sleep.py"])
        assert codes_and_lines(findings) == [
            ("WPL010", 4),
            ("WPL010", 10),
            ("WPL010", 11),
        ]
        by_line = {f.line: f.message for f in findings}
        assert "repro.sim.clock" in by_line[10]
        # The aliased `from time import sleep as snooze` call is caught too.
        assert "snooze" in by_line[11]

    def test_no_direct_sleep_spares_seam_and_noqa(self):
        findings = lint_paths([FIXTURES / "repro" / "direct_sleep.py"])
        lines = {f.line for f in findings}
        # The simclock.sleep call (line 15) and the noqa'd sleep (line 19).
        assert not lines & {15, 19}

    def test_no_direct_sleep_is_path_scoped(self, tmp_path):
        # The same source outside a repro package directory is clean.
        copy = tmp_path / "direct_sleep.py"
        copy.write_text((FIXTURES / "repro" / "direct_sleep.py").read_text())
        assert lint_paths([copy]) == []

    def test_no_direct_sleep_exempts_clock_seam(self, tmp_path):
        # The one sanctioned caller: repro/**/sim/clock.py itself.
        seam = tmp_path / "repro" / "sim"
        seam.mkdir(parents=True)
        copy = seam / "clock.py"
        copy.write_text("import time\n\n\ndef nap():\n    time.sleep(0.01)\n")
        assert lint_paths([copy]) == []


#: (code, directory that puts a file in scope, module, callee, arguments)
#: for every rule that bans a call.
CALL_BANS = [
    ("WPL002", "", "threading", "Thread", "target=print"),
    ("WPL004", "core", "time", "perf_counter", ""),
    ("WPL007", "service", "queue", "SimpleQueue", ""),
    ("WPL008", "repro", "time", "time", ""),
    ("WPL010", "repro", "time", "sleep", "0"),
]

#: The four ways to bind a name from module ``m``: (import, callee).
SPELLINGS = {
    "import m": ("import {m}", "{m}.{f}"),
    "import m as x": ("import {m} as x", "x.{f}"),
    "from m import f": ("from {m} import {f}", "{f}"),
    "from m import f as g": ("from {m} import {f} as g", "g"),
}


class TestNameResolution:
    @pytest.mark.parametrize("spelling", list(SPELLINGS))
    @pytest.mark.parametrize(
        "code, directory, module, callee, arguments",
        CALL_BANS,
        ids=[ban[0] for ban in CALL_BANS],
    )
    def test_call_ban_fires_through_every_import_spelling(
        self, tmp_path, spelling, code, directory, module, callee, arguments
    ):
        statement, call = SPELLINGS[spelling]
        folder = tmp_path / directory
        folder.mkdir(exist_ok=True)
        path = folder / "spelled.py"
        path.write_text(
            statement.format(m=module, f=callee)
            + "\n\n\ndef go():\n"
            + f"    return {call.format(m=module, f=callee)}({arguments})\n"
        )
        lines = {f.line for f in lint_paths([path]) if f.code == code}
        assert 5 in lines, (code, spelling)

    def test_shared_classes_name_real_classes(self):
        # WPL001 matches these names and racecheck imports these classes
        # (with the engine-locked ones), so each must exist.
        for dotted in SHARED_CLASSES + ENGINE_LOCKED_CLASSES:
            module, _, name = dotted.rpartition(".")
            cls = getattr(importlib.import_module(module), name, None)
            assert inspect.isclass(cls) and cls.__module__ == module, dotted


class TestSuppressions:
    def test_noqa_silences_named_code(self):
        findings = lint_paths([FIXTURES / "core" / "suppressed.py"])
        lines = {f.line for f in findings}
        assert 10 not in lines  # wpl: noqa=WPL004 on the offending line
        assert 14 in lines  # unsuppressed call still fires

    def test_noqa_with_wrong_code_does_not_suppress(self):
        findings = lint_paths([FIXTURES / "core" / "suppressed.py"])
        assert ("WPL004", 18) in codes_and_lines(findings)


class TestEngineMechanics:
    def test_duplicate_code_rejected(self):
        class Dup(Rule):
            code = "WPL001"
            name = "dup"
            description = "duplicate"

            def check(self, module):
                return []

        engine = LintEngine(default_rules())
        with pytest.raises(ValueError):
            engine.register(Dup())

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings = lint_paths([bad])
        assert [f.code for f in findings] == ["WPL900"]

    def test_directory_recursion_matches_explicit_files(self):
        from_dir = lint_paths([FIXTURES])
        explicit = lint_paths(sorted(FIXTURES.rglob("*.py")))
        assert codes_and_lines(from_dir) == codes_and_lines(explicit)

    def test_findings_sorted(self):
        findings = lint_paths([FIXTURES])
        keys = [(f.path, f.line, f.col, f.code) for f in findings]
        assert keys == sorted(keys)


class TestOutputFormats:
    def test_json_round_trips(self):
        findings = lint_paths([FIXTURES / "bare_thread.py"])
        payload = json.loads(format_json(findings))
        assert payload["count"] == 2
        entries = payload["findings"]
        assert entries[0]["code"] == "WPL002"
        assert set(entries[0]) == {"code", "rule", "path", "line", "col", "message"}

    def test_human_format(self):
        findings = [
            Finding(
                code="WPL001",
                rule="shared-state-guard",
                path="x.py",
                line=3,
                col=4,
                message="msg",
            )
        ]
        text = format_human(findings)
        assert "x.py:3:4" in text
        assert "WPL001" in text
        assert "1 finding" in text

    def test_human_format_empty(self):
        assert "0 findings" in format_human([])


class TestCleanRepo:
    def test_repo_source_is_lint_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], format_human(findings)

    def test_repo_benchmarks_are_lint_clean(self):
        bench = REPO_SRC.parent.parent / "benchmarks"
        findings = lint_paths([bench])
        assert findings == [], format_human(findings)
