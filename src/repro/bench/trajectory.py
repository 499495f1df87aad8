"""Per-PR performance-trajectory artifacts (``BENCH_PR<n>.json``).

ROADMAP item 2: the repo has 22 bench scripts but, until PR 6, zero
checked-in performance artifacts — so there was nothing for a later PR
to diff against when a "refactor" quietly doubles a wall time.  This
driver runs a small, representative subset (`fig10_vary_k` — the paper's
headline execution-time figure — plus the observability-overhead bound,
the cluster step path's codec counts and the adaptive core's
per-extension work counts) and writes a **normalized record schema** that
future PRs can compare mechanically::

    {
      "schema_version": 1,
      "pr": 6,
      "scale": 0.02,
      "config": {...},
      "records": [
        {"bench": ..., "case": ..., "metric": ..., "unit": ..., "value": ...},
        ...
      ]
    }

Records are sorted by ``(bench, case, metric)`` so artifact diffs are
line-stable.  ``scale`` captures ``REPRO_BENCH_SCALE`` — artifacts are
only comparable at equal scale.  Times are *modeled* engine times (unit
``model_s``) or wall seconds (``s``); counts are ``ops``/``sites``/``calls``/``entries``;
ratios are dimensionless ``fraction``.

``--noisy-advisory`` splits the gate: deterministic metrics (and lost
coverage) still fail the run, wall-clock drift is printed but advisory —
the shape CI uses for its blocking gate on shared runners.

Usage::

    python -m repro.bench.trajectory --pr 6 --out BENCH_PR6.json
    python -m repro.bench.trajectory --pr 7 --compare BENCH_PR6.json

``--compare`` turns the emitter into a regression gate: the fresh run
is diffed against the named baseline artifact record-by-record and the
process exits ``1`` if anything regressed.  Modeled metrics
(``model_s``/``ops``/``sites``) are deterministic, so *any* increase is
a regression; wall-clock metrics (``s``/``ns`` and the derived
``fraction`` bound) are machine-noisy and only fail beyond
``--threshold`` (default +50%).  Artifacts at different
``REPRO_BENCH_SCALE`` are incomparable and exit ``2``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.bench.experiments import fig10_backend_speedup, fig10_vary_k
from repro.bench.hot_path import hot_path_work
from repro.bench.obs_overhead import obs_overhead_payload
from repro.bench.params import bench_scale
from repro.bench.step_codec import cluster_step_codec

SCHEMA_VERSION = 1

#: Units measured in wall-clock time (or derived from one): subject to
#: machine noise, compared under the ``--threshold`` band.  Everything
#: else is modeled/counted and must not grow at all.
NOISY_UNITS = frozenset({"s", "ns", "fraction"})

#: Relative slack for deterministic units — absorbs float round-trip
#: differences, not behaviour changes.
_EXACT_RTOL = 1e-9

_FIG10_UNITS = {
    "whirlpool_s_time": "model_s",
    "whirlpool_m_time": "model_s",
    "whirlpool_s_ops": "ops",
    "whirlpool_m_ops": "ops",
}


def record(bench: str, case: str, metric: str, unit: str, value) -> Dict:
    return {
        "bench": bench,
        "case": case,
        "metric": metric,
        "unit": unit,
        "value": value,
    }


def fig10_records(payload: Dict) -> Iterator[Dict]:
    for query, per_k in payload["series"].items():
        for k, entry in per_k.items():
            case = f"{query}/k={k}"
            for metric, value in entry.items():
                yield record(
                    "fig10_vary_k", case, metric, _FIG10_UNITS[metric], value
                )


def backend_records(payload: Dict) -> Iterator[Dict]:
    """Records for the index-backend comparison on the fig10 workload.

    Probe units are modeled boxed component comparisons — deterministic,
    so future PRs gate them exactly (a columnar regression shows up as a
    unit increase).  Wall seconds ride along as noisy records.  The
    speedup *ratio* is intentionally not emitted as a record: the compare
    gate treats growth as regression, and a faster columnar backend grows
    the ratio.  It lives in the payload/docs instead.
    """
    for query, per_backend in payload["series"].items():
        for backend, entry in per_backend.items():
            case = f"{query}/{backend}"
            yield record(
                "fig10_backend", case, "probe_units", "units", entry["probe_units"]
            )
            yield record("fig10_backend", case, "wall", "s", entry["wall_s"])


def obs_records(payload: Dict) -> Iterator[Dict]:
    case = f"{payload['query']}/k={payload['k']}"
    for configuration, wall in payload["walls"].items():
        yield record("obs_overhead", case, f"wall_{configuration}", "s", wall)
    yield record(
        "obs_overhead", case, "guard_cost_ns", "ns", payload["guard_cost_ns"]
    )
    yield record("obs_overhead", case, "hook_sites", "sites", payload["hook_sites"])
    yield record(
        "obs_overhead", case, "overhead_bound", "fraction", payload["overhead_bound"]
    )


def step_codec_records(payload: Dict) -> Iterator[Dict]:
    """Per-shard step-path counts (steps, checkpoints, match encodes,
    restores) of the fixed sharded query — deterministic, so the gate
    fails on any growth: a restore per step or a second encode of the
    same match shows up here as a count, not as a slower wall."""
    for shard_id, counts in payload["shards"].items():
        case = f"{payload['query']}/k={payload['k']}/shard={shard_id}"
        for metric, value in counts.items():
            yield record("cluster_step_codec", case, metric, "calls", value)


def hot_path_records(payload: Dict) -> Iterator[Dict]:
    """Per-query counts of what Whirlpool-S pays per extension rather than
    per server operation (:mod:`repro.bench.hot_path`) — deterministic, so
    the gate fails on any growth: a second meeting with the top-k set per
    completed sibling, a dict copied per extension or a closure per
    counter shows up here as a count, not as a slower wall."""
    for query, counts in payload["queries"].items():
        case = f"{query}/k={payload['k']}"
        for metric, value in counts.items():
            unit = "entries" if metric == "bound_table_entries" else "calls"
            yield record("hot_path_work", case, metric, unit, value)


def build(
    pr: int,
    k_values: Sequence[int] = (3, 15, 75),
    obs_query: str = "Q2",
    obs_k: int = 15,
    obs_rounds: int = 5,
    notes: Sequence[str] = (),
) -> Dict:
    """Run the trajectory benches and assemble the artifact payload.

    ``notes`` are free text stored beside the records — where a PR says
    why a record moved; :func:`compare` ignores them.
    """
    records: List[Dict] = []
    records.extend(fig10_records(fig10_vary_k(k_values=tuple(k_values))))
    records.extend(backend_records(fig10_backend_speedup(k_values=tuple(k_values))))
    records.extend(
        obs_records(obs_overhead_payload(obs_query, k=obs_k, rounds=obs_rounds))
    )
    records.extend(step_codec_records(cluster_step_codec()))
    records.extend(hot_path_records(hot_path_work()))
    records.sort(key=lambda r: (r["bench"], r["case"], r["metric"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "pr": pr,
        "scale": bench_scale(),
        "config": {
            "fig10_k_values": list(k_values),
            "obs_query": obs_query,
            "obs_k": obs_k,
            "obs_rounds": obs_rounds,
        },
        "notes": list(notes),
        "records": records,
    }


def serialize(payload: Dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _index(payload: Dict) -> Dict:
    return {
        (r["bench"], r["case"], r["metric"]): r for r in payload["records"]
    }


def compare(current: Dict, baseline: Dict, threshold: float) -> Dict:
    """Diff two trajectory artifacts.

    Returns ``{"comparable": bool, "regressions": [...], "improvements":
    [...], "missing": [...], "added": [...], "lines": [...]}`` where
    ``lines`` is the human report.  A *regression* is a deterministic
    metric that grew at all, a noisy metric that grew beyond
    ``threshold``, or a baseline record the fresh run no longer emits
    (lost coverage hides regressions just as well as slow code does).
    """
    lines: List[str] = []
    if current.get("scale") != baseline.get("scale"):
        lines.append(
            "incomparable: scale mismatch "
            f"(current={current.get('scale')}, baseline={baseline.get('scale')}); "
            "rerun with matching REPRO_BENCH_SCALE"
        )
        return {
            "comparable": False,
            "regressions": [],
            "improvements": [],
            "missing": [],
            "added": [],
            "lines": lines,
        }

    ours, theirs = _index(current), _index(baseline)
    regressions: List[Dict] = []
    improvements: List[Dict] = []
    missing = sorted(key for key in theirs if key not in ours)
    added = sorted(key for key in ours if key not in theirs)

    for key in sorted(set(ours) & set(theirs)):
        new, old = ours[key]["value"], theirs[key]["value"]
        unit = ours[key]["unit"]
        if old == new:
            continue
        delta = new - old
        ratio = (delta / old) if old else float("inf") if delta > 0 else 0.0
        noisy = unit in NOISY_UNITS
        entry = {
            "key": key,
            "unit": unit,
            "old": old,
            "new": new,
            "ratio": ratio,
            "noisy": noisy,
        }
        limit = threshold if noisy else _EXACT_RTOL
        if ratio > limit:
            regressions.append(entry)
        elif delta < 0 and (noisy is False or -ratio > threshold):
            improvements.append(entry)

    def _fmt(entry: Dict, tag: str) -> str:
        bench, case, metric = entry["key"]
        return (
            f"  {tag} {bench}/{case}/{metric}: "
            f"{entry['old']:.6g} -> {entry['new']:.6g} {entry['unit']} "
            f"({entry['ratio']:+.1%})"
        )

    for entry in regressions:
        lines.append(_fmt(entry, "REGRESSED"))
    for key in missing:
        bench, case, metric = key
        lines.append(f"  MISSING   {bench}/{case}/{metric}: gone from current run")
    for entry in improvements:
        lines.append(_fmt(entry, "improved "))
    for key in added:
        bench, case, metric = key
        lines.append(f"  new       {bench}/{case}/{metric}")
    lines.append(
        f"compared {len(set(ours) & set(theirs))} records vs PR {baseline.get('pr')}: "
        f"{len(regressions)} regressed, {len(missing)} missing, "
        f"{len(improvements)} improved, {len(added)} new "
        f"(noise threshold {threshold:.0%} on {'/'.join(sorted(NOISY_UNITS))})"
    )
    return {
        "comparable": True,
        "regressions": regressions,
        "improvements": improvements,
        "missing": missing,
        "added": added,
        "lines": lines,
    }


def noise_floor(repeats: int, **build_kwargs) -> Dict:
    """Measure the machine's wall-clock noise floor over bench repeats.

    Runs the trajectory benches ``repeats`` times and, for every
    noisy-unit record, computes the relative spread ``(max - min) / min``
    across the runs.  The *floor* is the worst spread observed — the band
    below which a wall-clock "regression" on this machine is
    indistinguishable from noise.  ROADMAP item 2 flips the CI wall-clock
    band from advisory to blocking only where the measured floor is
    comfortably below the gate threshold.
    """
    samples: Dict[tuple, List[float]] = {}
    for _ in range(repeats):
        payload = build(pr=0, **build_kwargs)
        for entry in payload["records"]:
            if entry["unit"] in NOISY_UNITS:
                key = (entry["bench"], entry["case"], entry["metric"])
                samples.setdefault(key, []).append(float(entry["value"]))
    spreads: Dict[tuple, float] = {}
    for key, values in samples.items():
        low, high = min(values), max(values)
        spreads[key] = (high - low) / low if low > 0 else 0.0
    worst_key = max(spreads, key=lambda key: spreads[key]) if spreads else None
    return {
        "repeats": repeats,
        "records": len(spreads),
        "floor": max(spreads.values()) if spreads else 0.0,
        "worst": "/".join(worst_key) if worst_key else None,
        "spreads": {"/".join(key): spread for key, spread in sorted(spreads.items())},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Emit the per-PR BENCH_PR<n>.json performance artifact.",
    )
    parser.add_argument("--pr", type=int, required=True, help="PR number to stamp")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: BENCH_PR<n>.json in the current directory)",
    )
    parser.add_argument(
        "--k-values",
        default="3,15,75",
        help="comma-separated k values for fig10 (default: 3,15,75)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="obs-overhead wall-time rounds"
    )
    parser.add_argument(
        "--note",
        action="append",
        default=[],
        metavar="TEXT",
        help="free text stored in the artifact's notes (repeatable): why a "
        "record moved in this PR",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="diff against a prior artifact; exit 1 on regression, 2 if "
        "the artifacts are incomparable (scale mismatch)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="relative noise band for wall-clock metrics (default: 0.5)",
    )
    parser.add_argument(
        "--noise-floor",
        type=int,
        default=None,
        metavar="REPEATS",
        help="instead of emitting an artifact, run the benches REPEATS "
        "times and report the worst relative spread among wall-clock "
        "records — the machine's noise floor for the --threshold band",
    )
    parser.add_argument(
        "--noisy-advisory",
        action="store_true",
        help="report wall-clock regressions without failing on them: the "
        "exit code then gates only deterministic metrics (model_s/ops/"
        "sites) and lost coverage, which are machine-independent — this "
        "is how CI runs the blocking gate on shared runners",
    )
    args = parser.parse_args(argv)

    k_values = tuple(int(part) for part in args.k_values.split(",") if part)
    if args.noise_floor is not None:
        report = noise_floor(
            args.noise_floor, k_values=k_values, obs_rounds=args.rounds
        )
        for key, spread in report["spreads"].items():
            print(f"  {key}: spread {spread:+.1%}")
        print(
            f"noise floor over {report['repeats']} repeats: "
            f"{report['floor']:.1%} (worst: {report['worst']}); "
            f"wall-clock band --threshold {args.threshold:.0%} is "
            f"{'SAFE to block on' if report['floor'] < args.threshold / 2 else 'too tight'} "
            "for this machine"
        )
        return 0
    payload = build(
        args.pr, k_values=k_values, obs_rounds=args.rounds, notes=args.note
    )
    out = args.out or Path(f"BENCH_PR{args.pr}.json")
    out.write_text(serialize(payload), encoding="utf-8")
    print(
        f"{out}: {len(payload['records'])} records "
        f"(scale={payload['scale']}, schema v{payload['schema_version']})"
    )
    if args.compare is None:
        return 0

    baseline = json.loads(args.compare.read_text(encoding="utf-8"))
    report = compare(payload, baseline, threshold=args.threshold)
    for line in report["lines"]:
        print(line)
    if not report["comparable"]:
        return 2
    gating = report["regressions"]
    if args.noisy_advisory:
        gating = [entry for entry in gating if not entry["noisy"]]
        advisory = len(report["regressions"]) - len(gating)
        if advisory:
            print(
                f"  ({advisory} wall-clock regression(s) reported as advisory "
                "only; deterministic metrics gate)"
            )
    if gating or report["missing"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
