"""End-to-end tests for ``python -m repro.analysis``.

The entry point must exit 0 on the repo itself (lint-clean + race-free)
and non-zero when pointed at the violating fixtures, since CI keys off
the exit status.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def run_analysis(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )


class TestLintExit:
    def test_default_paths_clean(self):
        proc = run_analysis("--skip-racecheck")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_fixture_violations_fail(self):
        proc = run_analysis("--skip-racecheck", str(FIXTURES))
        assert proc.returncode == 1
        for number in range(1, 11):
            code = f"WPL{number:03d}"
            assert code in proc.stdout, code

    def test_missing_path_clean_error(self):
        proc = run_analysis("--skip-racecheck", "/no/such/dir")
        assert proc.returncode == 2
        assert "no such path" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_json_output(self):
        proc = run_analysis("--skip-racecheck", "--json", str(FIXTURES))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] > 0
        assert {f["code"] for f in payload["findings"]} >= {"WPL001", "WPL005"}


class TestFullRun:
    def test_lint_and_racecheck_clean(self):
        proc = run_analysis()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "racecheck" in proc.stdout.lower()
