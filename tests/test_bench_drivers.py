"""Smoke tests for the benchmark drivers at a tiny scale.

These verify the harness plumbing (payload shapes, caching, reporting) so
benchmark failures mean a *claim* regressed, not the harness.  The shape
assertions themselves live in ``benchmarks/``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench import experiments, trajectory
from repro.bench.hot_path import hot_path_work
from repro.bench.params import DEFAULTS, QUERIES, paper_doc_bytes
from repro.bench.reporting import format_table, write_results
from repro.bench.step_codec import cluster_step_codec
from repro.bench.workloads import clear_cache, get_database, get_engine


@pytest.fixture(scope="module", autouse=True)
def tiny_scale():
    previous = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = "0.003"
    clear_cache()
    yield
    if previous is None:
        del os.environ["REPRO_BENCH_SCALE"]
    else:
        os.environ["REPRO_BENCH_SCALE"] = previous
    clear_cache()


class TestParams:
    def test_queries_match_paper(self):
        assert QUERIES["Q1"] == "//item[./description/parlist]"
        assert "mailbox/mail/text" in QUERIES["Q2"]
        assert "incategory" in QUERIES["Q3"]

    def test_paper_doc_bytes_scaled(self):
        assert paper_doc_bytes("1M") < paper_doc_bytes("10M") < paper_doc_bytes("50M")
        with pytest.raises(KeyError):
            paper_doc_bytes("3M")

    def test_defaults_are_paper_defaults(self):
        assert DEFAULTS["query"] == "Q2"
        assert DEFAULTS["doc"] == "10M"
        assert DEFAULTS["k"] == 15
        assert DEFAULTS["scoring"] == "sparse"


class TestWorkloads:
    def test_database_cached(self):
        first = get_database("1M")
        second = get_database("1M")
        assert first is second

    def test_engine_cached_by_configuration(self):
        a = get_engine("Q1", "1M")
        b = get_engine("Q1", "1M")
        c = get_engine("Q1", "1M", normalization="dense")
        assert a is b
        assert a is not c

    def test_clear_cache(self):
        first = get_database("1M")
        clear_cache()
        second = get_database("1M")
        assert first is not second


class TestDrivers:
    def test_fig5_payload(self):
        payload = experiments.fig5_routing_strategies(doc="1M")
        assert set(payload["series"]) == {"max_score", "min_score", "min_alive"}
        for entry in payload["series"].values():
            assert entry["whirlpool_s_ops"] > 0
            assert entry["whirlpool_m_time"] > 0

    def test_fig6_7_payload(self):
        payload = experiments.fig6_7_adaptive_vs_static(query="Q1", doc="1M")
        algorithms = payload["algorithms"]
        assert set(algorithms) == {
            "lockstep_noprun",
            "lockstep",
            "whirlpool_s",
            "whirlpool_m",
        }
        for name in ("whirlpool_s", "whirlpool_m"):
            assert "adaptive_time" in algorithms[name]
        for entry in algorithms.values():
            summary = entry["static_time"]
            assert summary["min"] <= summary["median"] <= summary["max"]

    def test_fig8_payload(self):
        payload = experiments.fig8_adaptivity_cost(
            query="Q1", doc="1M", operation_costs=(1e-3, 1e-1)
        )
        for cost in (1e-3, 1e-1):
            assert payload["ratios"][cost]["lockstep_noprun"] == pytest.approx(1.0)

    def test_fig9_payload(self):
        payload = experiments.fig9_parallelism(doc="1M", processors=(1, None))
        for ratios in payload["ratios"].values():
            assert set(ratios) == {"1", "inf"}

    def test_fig10_fig11_payloads(self):
        fig10 = experiments.fig10_vary_k(doc="1M", k_values=(1, 5))
        assert set(fig10["series"]) == set(QUERIES)
        fig11 = experiments.fig11_vary_docsize(docs=("1M",))
        for per_doc in fig11["series"].values():
            assert "1M" in per_doc

    def test_table2_payload(self):
        payload = experiments.table2_scalability(docs=("1M",))
        for row in payload["percentages"].values():
            assert 0 < row["1M"] <= 100.0 + 1e-9

    def test_lockstep_sweeps_run_on_the_warm_engine(self):
        """Every permutation shares the Engine's probe memos, and counts
        what a hand-built LockStep with private memos counts."""
        from repro.core.lockstep import LockStep, LockStepNoPrun

        engine = get_engine("Q2", "1M")
        before = engine.index.probe_cost()
        for order in experiments.static_orders(engine.server_node_ids(), budget=4):
            for prune, engine_cls in ((True, LockStep), (False, LockStepNoPrun)):
                warm = experiments.run_lockstep(engine, 5, order=order, prune=prune)
                assert engine.index.probe_cost() == before
                cold = engine_cls(
                    pattern=engine.pattern,
                    index=engine.index,
                    score_model=engine.score_model,
                    k=5,
                    order=order,
                ).run()
                before = engine.index.probe_cost()
                assert warm.root_deweys() == cold.root_deweys()
                assert warm.scores() == cold.scores()
                for counter in ("server_operations", "join_comparisons"):
                    assert getattr(warm.stats, counter) == getattr(cold.stats, counter)

    def test_static_orders_budget(self):
        orders = experiments.static_orders([1, 2, 3], budget=3)
        assert len(orders) == 3
        assert (1, 2, 3) in orders and (3, 2, 1) in orders
        full = experiments.static_orders([1, 2, 3], budget=100)
        assert len(full) == 6


class TestReporting:
    def test_format_table(self):
        table = format_table("T", ["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        # title + header + separator + 2 data rows
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        table = format_table("T", ["col"], [])
        assert "col" in table

    def test_write_results(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.reporting.RESULTS_DIR", str(tmp_path)
        )
        path = write_results("unit", {"x": 1})
        with open(path) as handle:
            assert json.load(handle) == {"x": 1}


class TestTrajectory:
    """The BENCH_PR<n>.json perf-trajectory driver (repro.bench.trajectory)."""

    def test_build_shape(self):
        payload = trajectory.build(pr=6, k_values=(1, 5), obs_rounds=1)
        assert payload["schema_version"] == trajectory.SCHEMA_VERSION
        assert payload["pr"] == 6
        assert payload["scale"] == pytest.approx(0.003)
        keys = [(r["bench"], r["case"], r["metric"]) for r in payload["records"]]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)), "duplicate record keys"
        benches = {r["bench"] for r in payload["records"]}
        assert benches == {
            "fig10_vary_k",
            "fig10_backend",
            "obs_overhead",
            "cluster_step_codec",
            "hot_path_work",
        }
        for entry in payload["records"]:
            assert set(entry) == {"bench", "case", "metric", "unit", "value"}

    def test_records_cover_every_query_and_k(self):
        payload = trajectory.build(pr=6, k_values=(1, 5), obs_rounds=1)
        fig10_cases = {
            r["case"] for r in payload["records"] if r["bench"] == "fig10_vary_k"
        }
        assert fig10_cases == {
            f"{query}/k={k}" for query in QUERIES for k in (1, 5)
        }
        obs = {
            r["metric"]: r
            for r in payload["records"]
            if r["bench"] == "obs_overhead"
        }
        assert obs["overhead_bound"]["unit"] == "fraction"
        assert 0 <= obs["overhead_bound"]["value"] < 1
        assert obs["hook_sites"]["value"] > 0

    def test_cli_writes_artifact(self, tmp_path):
        out = tmp_path / "BENCH_PR99.json"
        code = trajectory.main(
            ["--pr", "99", "--out", str(out), "--k-values", "1", "--rounds", "1"]
            + ["--note", "why a record moved"]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["pr"] == 99
        assert payload["notes"] == ["why a record moved"]
        assert payload["config"]["fig10_k_values"] == [1]
        assert payload["records"]

    def test_backend_speedup_payload(self):
        payload = experiments.fig10_backend_speedup(k_values=(1,))
        assert set(payload["series"]) == set(QUERIES)
        for per_backend in payload["series"].values():
            assert set(per_backend) == {"columnar", "object"}
            for cell in per_backend.values():
                assert cell["probe_units"] > 0
                assert cell["probes"] > 0
                assert cell["wall_s"] >= 0
            # Identical probe sequences, cheaper columnar units.
            assert (
                per_backend["columnar"]["probes"] == per_backend["object"]["probes"]
            )
        assert payload["speedup_units"] >= 1.5

    def test_backend_records_shape(self):
        payload = experiments.fig10_backend_speedup(k_values=(1,))
        records = list(trajectory.backend_records(payload))
        by_metric = {}
        for entry in records:
            assert entry["bench"] == "fig10_backend"
            by_metric.setdefault(entry["metric"], []).append(entry)
        # probe_units gates as a deterministic unit; wall stays noisy.
        assert all(e["unit"] == "units" for e in by_metric["probe_units"])
        assert all(e["unit"] == "s" for e in by_metric["wall"])
        cases = {e["case"] for e in by_metric["probe_units"]}
        assert cases == {
            f"{query}/{backend}"
            for query in QUERIES
            for backend in ("columnar", "object")
        }
        # No speedup-ratio record: the gate would read growth of a
        # deterministic unit as a regression.
        assert set(by_metric) == {"probe_units", "wall"}

    def test_noise_floor_report(self):
        report = trajectory.noise_floor(2, k_values=(1,), obs_rounds=1)
        assert report["repeats"] == 2
        assert report["records"] > 0
        assert report["floor"] >= 0
        assert report["worst"] in report["spreads"]
        assert all(key.count("/") >= 2 for key in report["spreads"])

    def test_noise_floor_cli_skips_artifact(self, tmp_path, capsys):
        out = tmp_path / "never_written.json"
        code = trajectory.main(
            [
                "--pr",
                "99",
                "--out",
                str(out),
                "--k-values",
                "1",
                "--rounds",
                "1",
                "--noise-floor",
                "2",
            ]
        )
        assert code == 0
        assert not out.exists()
        assert "noise floor over 2 repeats" in capsys.readouterr().out

    def test_serialize_is_stable(self):
        payload = {"schema_version": 1, "pr": 6, "records": []}
        assert trajectory.serialize(payload) == trajectory.serialize(payload)
        assert trajectory.serialize(payload).endswith("\n")

    @pytest.mark.parametrize("pr", [6, 7, 8, 9, 12, 16, 17, 22])
    def test_checked_in_artifact_matches_schema(self, pr):
        artifact = Path(__file__).parent.parent / f"BENCH_PR{pr}.json"
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["schema_version"] == trajectory.SCHEMA_VERSION
        assert payload["pr"] == pr
        keys = [(r["bench"], r["case"], r["metric"]) for r in payload["records"]]
        assert keys == sorted(keys)
        # The artifact must be serialized exactly the way the driver writes
        # it, so future regenerations diff cleanly.
        assert artifact.read_text(encoding="utf-8") == trajectory.serialize(payload)

    def test_fig10_vary_k_records_identical_from_pr9_to_pr12(self):
        """The threshold/router/memo work of PR 12 changed no decision:
        op counts and modeled times are the same records."""
        root = Path(__file__).parent.parent
        fig10 = {}
        for pr in (9, 12):
            payload = json.loads((root / f"BENCH_PR{pr}.json").read_text(encoding="utf-8"))
            fig10[pr] = [r for r in payload["records"] if r["bench"] == "fig10_vary_k"]
        assert fig10[12] and fig10[12] == fig10[9]

    def test_pr16_keeps_pr15_counts_and_pins_the_step_path(self):
        """PR 16 changed how a shard steps, not what the engines decide:
        the deterministic fig10 records are PR 15's.  Its new records say
        what a fault-free sharded query's step path costs — one checkpoint
        per budget exit, no restore — and a fresh drive reproduces them."""
        root = Path(__file__).parent.parent
        old, new = (
            json.loads((root / f"BENCH_PR{pr}.json").read_text(encoding="utf-8"))
            for pr in (15, 16)
        )

        def counted(payload):
            return [
                r
                for r in payload["records"]
                if r["bench"] in ("fig10_vary_k", "fig10_backend")
                and r["unit"] not in trajectory.NOISY_UNITS
            ]

        assert counted(new) and counted(new) == counted(old)
        # The step path's shape held when PR 22 closed ties and every count
        # moved (fewer operations, hence fewer steps): the fresh drive is
        # pinned to the newest artefact.
        newest = json.loads((root / "BENCH_PR22.json").read_text(encoding="utf-8"))
        for payload in (new, newest):
            step_path = [
                r for r in payload["records"] if r["bench"] == "cluster_step_codec"
            ]
            values = {(r["case"], r["metric"]): r["value"] for r in step_path}
            for shard in (0, 1):
                case = f"Q2/k=15/shard={shard}"
                assert values[case, "steps"] > 2
                assert values[case, "checkpoints_taken"] == values[case, "steps"] - 1
                assert values[case, "restore_calls"] == 0
        fresh = sorted(
            trajectory.step_codec_records(cluster_step_codec()),
            key=lambda r: (r["case"], r["metric"]),
        )
        assert fresh == step_path


    def test_pr17_keeps_pr16_counts_and_pins_the_hot_path(self):
        """PR 17 changed what an extension costs, not what the engines
        decide: every deterministic record of PR 16 repeats.  Its new
        records say what a Whirlpool-S run still pays per extension —
        no dict copy, no closure, no exclusion set, and fewer meetings
        with the top-k set than matches made."""
        root = Path(__file__).parent.parent
        old, new = (
            json.loads((root / f"BENCH_PR{pr}.json").read_text(encoding="utf-8"))
            for pr in (16, 17)
        )

        def counted(payload):
            return [
                r
                for r in payload["records"]
                if r["bench"] in ("fig10_vary_k", "fig10_backend", "cluster_step_codec")
                and r["unit"] not in trajectory.NOISY_UNITS
            ]

        assert counted(new) and counted(new) == counted(old)
        # PR 22 closed ties: fewer operations, hence fewer of everything
        # counted per operation — the invariants below are held against
        # the newest artefact.
        newest = json.loads((root / "BENCH_PR22.json").read_text(encoding="utf-8"))
        committed = {
            (r["case"], r["metric"]): r["value"]
            for r in newest["records"]
            if r["bench"] == "hot_path_work"
        }
        assert {case for case, _ in committed} == {"Q2/k=15", "Q3/k=15"}
        fresh = {
            (f"{query}/k=15", metric): value
            for query, counts in hot_path_work()["queries"].items()
            for metric, value in counts.items()
        }
        assert set(fresh) == set(committed)
        for values in (committed, fresh):  # the bench-scale and the test-scale document
            for query in ("Q2", "Q3"):
                case = f"{query}/k=15"
                assert values[case, "match_materializations"] == 0
                assert values[case, "exclusion_sets_allocated"] == 0
                assert values[case, "stats_closures_built"] == 0
                servers = len(get_engine(query).server_node_ids())
                assert 0 < values[case, "bound_table_entries"] <= 2**servers
        for query in ("Q2", "Q3"):
            created = get_engine(query).run(15).stats.partial_matches_created
            assert 0 < fresh[f"{query}/k=15", "observe_calls"] < created


def _artifact(*records, scale=0.02, pr=6):
    return {"schema_version": 1, "pr": pr, "scale": scale, "records": list(records)}


def _rec(metric, unit, value, bench="b", case="c"):
    return trajectory.record(bench, case, metric, unit, value)


class TestCompare:
    """The ``--compare`` regression gate over two trajectory artifacts."""

    def test_identical_artifacts_pass(self):
        base = _artifact(_rec("ops", "ops", 100), _rec("wall", "s", 1.0))
        report = trajectory.compare(base, base, threshold=0.5)
        assert report["comparable"]
        assert not report["regressions"] and not report["missing"]

    def test_deterministic_metric_must_not_grow_at_all(self):
        base = _artifact(_rec("ops", "ops", 100))
        cur = _artifact(_rec("ops", "ops", 101), pr=7)
        report = trajectory.compare(cur, base, threshold=0.5)
        assert [entry["key"] for entry in report["regressions"]] == [("b", "c", "ops")]

    def test_noisy_metric_gets_the_threshold_band(self):
        base = _artifact(_rec("wall", "s", 1.0))
        inside = trajectory.compare(
            _artifact(_rec("wall", "s", 1.4), pr=7), base, threshold=0.5
        )
        assert not inside["regressions"]
        outside = trajectory.compare(
            _artifact(_rec("wall", "s", 1.6), pr=7), base, threshold=0.5
        )
        assert len(outside["regressions"]) == 1

    def test_lost_coverage_counts_as_regression_signal(self):
        base = _artifact(_rec("ops", "ops", 100), _rec("gone", "ops", 5))
        cur = _artifact(_rec("ops", "ops", 100), _rec("new", "ops", 7), pr=7)
        report = trajectory.compare(cur, base, threshold=0.5)
        assert report["missing"] == [("b", "c", "gone")]
        assert report["added"] == [("b", "c", "new")]
        assert not report["regressions"]

    def test_scale_mismatch_is_incomparable(self):
        base = _artifact(_rec("ops", "ops", 100), scale=1.0)
        cur = _artifact(_rec("ops", "ops", 100), scale=0.02, pr=7)
        report = trajectory.compare(cur, base, threshold=0.5)
        assert not report["comparable"]
        assert "scale mismatch" in report["lines"][0]

    def test_improvements_are_reported_not_failed(self):
        base = _artifact(_rec("ops", "ops", 100))
        report = trajectory.compare(
            _artifact(_rec("ops", "ops", 90), pr=7), base, threshold=0.5
        )
        assert not report["regressions"]
        assert [entry["key"] for entry in report["improvements"]] == [
            ("b", "c", "ops")
        ]

    def test_cli_exit_codes(self, tmp_path):
        out = tmp_path / "BENCH_PR99.json"
        assert (
            trajectory.main(
                ["--pr", "99", "--out", str(out), "--k-values", "1", "--rounds", "1"]
            )
            == 0
        )
        # Regressed baseline: shrink one deterministic value so the fresh
        # run looks like it grew.
        payload = json.loads(out.read_text(encoding="utf-8"))
        for entry in payload["records"]:
            if entry["unit"] == "ops" and entry["value"] > 0:
                entry["value"] -= 1
                break
        regressed = tmp_path / "baseline_regressed.json"
        regressed.write_text(trajectory.serialize(payload), encoding="utf-8")
        code = trajectory.main(
            [
                "--pr", "100", "--out", str(tmp_path / "a.json"),
                "--k-values", "1", "--rounds", "1",
                "--compare", str(regressed),
            ]
        )
        assert code == 1
        # Scale mismatch is a distinct failure: exit 2.
        payload["scale"] = 123.0
        mismatched = tmp_path / "baseline_mismatched.json"
        mismatched.write_text(trajectory.serialize(payload), encoding="utf-8")
        code = trajectory.main(
            [
                "--pr", "100", "--out", str(tmp_path / "b.json"),
                "--k-values", "1", "--rounds", "1",
                "--compare", str(mismatched),
            ]
        )
        assert code == 2
