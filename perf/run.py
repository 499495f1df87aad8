"""Wall-clock benchmark of the Whirlpool reproduction: ``python perf/run.py``.

Two ways in:

- ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload in
  this process and prints one JSON object as the last line of stdout (the
  form ``BENCHMARK.json`` declares);
- without ``--workload`` it runs all five, each in a fresh subprocess of the
  form above, and prints a table (``--trace``, ``--selfcheck``, ``--quick``
  and ``--json PATH`` apply here).
"""

from __future__ import annotations

import argparse
import compileall
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    """Driver form: one workload here, result JSON as the last stdout line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # The build step: byte-compile the program once per checkout, so shard
    # workers start from bytecode whether or not the environment lets Python
    # write it, and the first run in a checkout is like the rest.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    setup_repeats = 1 if quick else harness.SETUP_REPEATS
    min_rounds = 1 if quick else harness.MIN_ROUNDS
    try:
        if trace:
            units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
            metrics, measurement = tracing.traced_run(workload, seconds, min_rounds, units, OUT)
        else:
            metrics, measurement = harness.untraced_run(
                workload, seconds, setup_repeats, min_rounds
            )
    finally:
        workload.tear_down()
    failed = workload.failures(measurement.answers)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(measurement.answers),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


def spawn(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """One workload in a fresh process, so no cache or garbage is shared."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def print_table(title: str, results: Dict[str, Dict[str, Any]], names: List[str]) -> None:
    workloads = list(results)
    print(f"\n{title}")
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{w:>16s}" for w in workloads))
    for name in names:
        cells = [results[w]["metrics"].get(name, {}) for w in workloads]
        unit = next((cell["unit"] for cell in cells if cell), "")
        row = " ".join(f"{cell['value']:16.6g}" if cell else f"{'-':>16s}" for cell in cells)
        print(f"{name:38s} {unit:6s} {row}")
    print(
        f"{'operations attempted / failed':45s} "
        + " ".join(f"{results[w]['attempted']:>10d} / {results[w]['failed']:<3d}" for w in workloads)
    )


def run_set(
    contract: Dict[str, Any], seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, Dict[str, Any]]:
    return {
        w["name"]: spawn(w["name"], seed, seconds, trace, quick) for w in contract["workloads"]
    }


def selfcheck(contract: Dict[str, Any], first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """A/A: the same code twice must agree within the declared bounds."""
    ok = True
    print("\nA/A self-check (relative difference of run B from run A, against the bound)")
    for workload in first:
        for metric in contract["end_to_end"]:
            a = first[workload]["metrics"][metric["name"]]["value"]
            b = second[workload]["metrics"][metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            within = abs(worse) <= metric["bound"]
            ok = ok and within
            print(
                f"{workload:18s} {metric['name']:16s} A={a:<12.6g} B={b:<12.6g} "
                f"diff={worse:+7.2%} bound={metric['bound']:.0%} {'ok' if within else 'EXCEEDED'}"
            )
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in-process (driver form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (or, with --workload, only) the per-layer traced run")  # fmt: skip
    parser.add_argument("--selfcheck", action="store_true", help="run the set twice, compare")
    parser.add_argument("--quick", action="store_true", help="smoke: one round, one set-up")
    parser.add_argument("--json", metavar="PATH", help="also write the results here")
    args = parser.parse_args(argv)

    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; expected one of {known}")
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.quick else float(contract["run_seconds"])
    )
    if args.workload is not None:
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)

    results = {"end_to_end": run_set(contract, args.seed, seconds, False, args.quick)}
    print_table(
        f"end to end (seed {args.seed}, {seconds:g} s measured, reference-machine seconds)",
        results["end_to_end"], [m["name"] for m in contract["end_to_end"]],
    )  # fmt: skip
    failed = any(r["exit"] for r in results["end_to_end"].values())
    if args.trace:
        results["per_layer"] = run_set(contract, args.seed, seconds, True, args.quick)
        print_table(
            f"per layer (traced run; spans in {OUT.relative_to(ROOT)}/trace-<workload>.json)",
            results["per_layer"], [m["name"] for m in contract["per_layer"]],
        )  # fmt: skip
        failed = failed or any(r["exit"] for r in results["per_layer"].values())
    if args.selfcheck:
        results["end_to_end_b"] = run_set(contract, args.seed, seconds, False, args.quick)
        agree = selfcheck(contract, results["end_to_end"], results["end_to_end_b"])
        failed = failed or not agree or any(r["exit"] for r in results["end_to_end_b"].values())
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
