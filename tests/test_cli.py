"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from tests.conftest import BOOKS_XML


@pytest.fixture
def books_file(tmp_path):
    path = tmp_path / "books.xml"
    path.write_text(BOOKS_XML)
    return str(path)


class TestQuery:
    def test_basic_query(self, books_file, capsys):
        code = main(["query", books_file, "/book[.//title = 'wodehouse']", "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "top-2 answers" in out
        assert "score=" in out

    def test_stats_flag(self, books_file, capsys):
        code = main(["query", books_file, "/book[./title]", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "server_operations" in out

    def test_json_output(self, books_file, capsys):
        code = main(["query", books_file, "/book[./title]", "--json", "-k", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["answers"]) == 1
        assert "score" in payload["answers"][0]
        assert "server_operations" in payload["stats"]

    def test_exact_flag(self, books_file, capsys):
        query = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
        code = main(["query", books_file, query, "--exact", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["answers"]) == 1

    def test_threshold_mode(self, books_file, capsys):
        code = main(
            ["query", books_file, "/book[.//title]", "--threshold", "0.0", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["answers"]) == 3

    def test_threshold_mode_honours_run_options(self, books_file, capsys):
        query = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
        flags = ["--threshold", "0.0", "--json"]
        code = main(["query", books_file, query, "--max-ops", "1", *flags])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["degraded"] is True
        assert payload["stats"]["server_operations"] == 1
        code = main(["query", books_file, query, "--chaos-seed", "3", *flags])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["failure"]["injection"]
        code = main(["query", books_file, query, "--routing", "no_such", *flags])
        assert code == 2

    def test_threshold_mode_is_whirlpool_s_only(self, books_file, capsys):
        code = main(
            ["query", books_file, "/book[.//title]", "--threshold", "0.0",
             "--algorithm", "lockstep"]
        )
        assert code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_explain_flag(self, books_file, capsys):
        query = "/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']"
        code = main(["query", books_file, query, "--explain", "-k", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact match" in out
        assert "DELETED" in out

    def test_algorithm_choice(self, books_file, capsys):
        code = main(
            ["query", books_file, "/book[./title]", "--algorithm", "lockstep"]
        )
        assert code == 0
        assert "lockstep" in capsys.readouterr().out

    def test_bad_query_exits_2(self, books_file, capsys):
        code = main(["query", books_file, "not-a-query"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        code = main(["query", "/no/such/file.xml", "/a"])
        assert code == 2


class TestExplain:
    def test_explain_output(self, capsys):
        code = main(["explain", "//item[./description/parlist]"])
        out = capsys.readouterr().out
        assert code == 0
        assert "component predicates" in out
        assert "item[./description]" in out
        assert "compiled plan: 2 servers" in out

    def test_explain_relaxations(self, capsys):
        code = main(["explain", "/a[./b/c]", "--relaxations"])
        out = capsys.readouterr().out
        assert code == 0
        assert "relaxation closure" in out
        assert "/a[.//b" in out or "/a[./b" in out


class TestGenerate:
    def test_generate_items_to_stdout(self, capsys):
        code = main(["generate", "--items", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("<site>")
        assert out.count("<item ") == 3

    def test_generate_to_file_roundtrips(self, tmp_path, capsys):
        target = str(tmp_path / "auction.xml")
        code = main(["generate", "--items", "5", "-o", target])
        assert code == 0
        from repro.xmldb.parser import parse_document

        database = parse_document(open(target).read())
        assert len(database.nodes_with_tag("item")) == 5

    def test_generate_by_size(self, tmp_path):
        target = str(tmp_path / "sized.xml")
        code = main(["generate", "--size", "50000", "-o", target])
        assert code == 0
        import os

        assert abs(os.path.getsize(target) - 50000) / 50000 < 0.3

    def test_generate_deterministic(self, capsys):
        main(["generate", "--items", "2", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "--items", "2", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestSim:
    def test_explore_clean_code_exits_zero(self, capsys):
        code = main(["sim", "explore", "--budget", "6", "--items", "30", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["stats"]["runs"] <= 6
        assert payload["reproducers"] == []

    def test_replay_corpus_exits_zero(self, capsys):
        code = main(["sim", "replay", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["replays"]) == 3
        assert all(entry["matches"] for entry in payload["replays"])

    def test_walltime_reports_reduction_and_equivalence(self, capsys):
        code = main(
            ["sim", "walltime", "--seeds", "3", "--items", "30", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["equivalent"] is True
        assert payload["reduction"] > 1.0

    def test_replay_missing_corpus_exits_two(self, tmp_path, capsys):
        code = main(["sim", "replay", "--corpus", str(tmp_path)])
        assert code == 2
        assert "no fixtures" in capsys.readouterr().err
