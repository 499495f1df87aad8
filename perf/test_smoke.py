"""Self-test of the benchmark: ``python -m pytest perf/test_smoke.py``.

Outside tier-1 ``testpaths`` on purpose: it runs every workload (``--quick``,
about 20 s each way) and spawns the cluster workers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_declared_present_and_correct(workload: str) -> None:
    result = run("--workload", workload, "--seed", "3", "--quick", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, cell in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert cell["unit"] == declared[name]
        assert cell["value"] > 0


def test_traced_counts_repeat_exactly_with_one_caller() -> None:
    first = run("--workload", "fig10_single", "--seed", "3", "--quick", "--trace", "1")
    second = run("--workload", "fig10_single", "--seed", "3", "--quick", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert set(first["metrics"]) == set(declared)
    counts = [name for name, unit in declared.items() if unit == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["core.topk.threshold_calls"]["value"] > 0
    trace = json.loads((HERE / "out" / "trace-fig10_single.json").read_text())
    assert {"op_id", "layer", "parent", "calls", "total_s", "self_s"} <= set(trace["rows"][0])


def test_seed_decides_the_documents() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.xmldb.serializer import serialize
    from workloads import ITEMS_300KB, build_forest

    same = [serialize(build_forest(5, ITEMS_300KB), pretty=False) for _ in range(2)]
    other = serialize(build_forest(6, ITEMS_300KB), pretty=False)
    assert same[0] == same[1]
    assert same[0] != other


def test_contract_names_and_bounds() -> None:
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])
