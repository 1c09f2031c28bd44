"""Tests for the interactive shell (repro.cli)."""

import io

import pytest

from repro.cli import DATASETS, Shell, main


@pytest.fixture()
def shell(fig1_db):
    return Shell(fig1_db, top_k=1)


def run(shell, line):
    out = io.StringIO()
    alive = shell.run_command(line, out=out)
    return alive, out.getvalue()


class TestDotCommands:
    def test_tables(self, shell):
        _, text = run(shell, ".tables")
        assert "Person" in text and "Movie_Producer" in text

    def test_schema_shows_keys(self, shell):
        _, text = run(shell, ".schema Person")
        assert "person_id" in text and "PK" in text

    def test_schema_shows_fk_targets(self, shell):
        _, text = run(shell, ".schema Actor")
        assert "-> Person" in text and "-> Movie" in text

    def test_schema_unknown_relation(self, shell):
        _, text = run(shell, ".schema ghost")
        assert "unknown relation" in text

    def test_quit_stops(self, shell):
        alive, _ = run(shell, ".quit")
        assert not alive

    def test_unknown_command(self, shell):
        _, text = run(shell, ".frobnicate")
        assert "unknown command" in text

    def test_top_changes_k(self, shell):
        run(shell, ".top 3")
        assert shell.top_k == 3
        _, text = run(shell, ".top oops")
        assert "usage" in text

    def test_views_empty_then_logged(self, shell):
        _, text = run(shell, ".views")
        assert "(no views)" in text
        run(
            shell,
            ".log SELECT p.name FROM Person p, Director d "
            "WHERE p.person_id = d.person_id",
        )
        _, text = run(shell, ".views")
        assert "[log]" in text and "Person" in text

    def test_help(self, shell):
        _, text = run(shell, ".help")
        assert ".tables" in text

    def test_explain_does_not_execute(self, shell):
        _, text = run(
            shell, ".explain SELECT title? WHERE year? > 2000"
        )
        assert "w=" in text
        assert "row(s)" not in text


class TestQueries:
    def test_translate_and_execute(self, shell):
        _, text = run(
            shell, "SELECT title? FROM movies? WHERE year? > 2000"
        )
        assert "SELECT" in text and "row(s)" in text

    def test_plain_sql_works(self, shell):
        _, text = run(shell, "SELECT count(*) FROM Movie")
        assert "3" in text

    def test_syntax_error_reported(self, shell):
        _, text = run(shell, "SELECT FROM WHERE")
        assert "error" in text.lower()

    def test_untranslatable_reported(self, shell):
        import dataclasses

        from repro.core import TranslatorConfig

        shell.translator.config = dataclasses.replace(
            shell.translator.config, kdef=0.0
        )
        _, text = run(shell, "SELECT 1 + 1")
        assert "2" in text  # constant queries always work

    def test_empty_line_is_noop(self, shell):
        alive, text = run(shell, "   ")
        assert alive and text == ""

    def test_top_k_shows_alternatives(self, shell):
        run(shell, ".top 3")
        _, text = run(
            shell,
            ".explain SELECT count(actor?.name?) "
            "WHERE director_name? = 'James Cameron'",
        )
        assert "[1]" in text and "[2]" in text


class TestMain:
    def test_execute_flag(self, capsys):
        exit_code = main(
            ["--dataset", "movies", "--execute", "SELECT count(*) FROM movie"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "row(s)" in captured.out

    def test_dataset_registry(self):
        assert set(DATASETS) == {"movies", "courses", "courses-alt"}


class TestBatchMode:
    def write_batch(self, tmp_path, lines):
        path = tmp_path / "batch.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_batch_reports_per_request_outcomes(self, tmp_path, capsys):
        path = self.write_batch(
            tmp_path,
            [
                "# comment lines and blanks are skipped",
                "",
                "SELECT name? WHERE director_name? = 'James Cameron'",
                "SELECT title? WHERE actor?.name? = 'Tom Hanks'",
            ],
        )
        exit_code = main(["--dataset", "movies", "--batch", path])
        text = capsys.readouterr().out
        assert exit_code == 0
        assert "[1] ok" in text and "[2] ok" in text
        assert "rung=full" in text
        assert text.count("-> SELECT") == 2
        assert "2 ok, 0 failed, 0 shed" in text

    def test_batch_failure_renders_diagnostic_and_exit_code(
        self, tmp_path, capsys
    ):
        path = self.write_batch(
            tmp_path,
            [
                "SELECT name? WHERE director_name? = 'James Cameron'",
                "SELECT name? WHERE",  # syntax error
            ],
        )
        exit_code = main(["--dataset", "movies", "--batch", path])
        text = capsys.readouterr().out
        assert exit_code == 2  # syntax error dominates the batch code
        assert "[2] failed" in text
        assert "error:" in text
        assert "| stage: parse" in text

    def test_batch_over_sqlite_matches_memory(self, tmp_path, capsys):
        # --processes refuses --backend sqlite, so the in-process batch
        # is the one batch path over SQLite
        path = self.write_batch(
            tmp_path,
            [
                "SELECT name? WHERE director_name? = 'James Cameron'",
                "SELECT title? WHERE actor?.name? = 'Tom Hanks'",
                "SELECT title?, year? WHERE gross? > 100",
            ],
        )
        outputs = {}
        for backend in ("memory", "sqlite"):
            exit_code = main(
                ["--dataset", "movies", "--backend", backend, "--batch", path]
            )
            assert exit_code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["sqlite"] == outputs["memory"]
        assert outputs["sqlite"].count("-> SELECT") == 3

    def test_batch_processes_match_in_process(self, tmp_path, capsys):
        # the third query repeats the first, so the worker also serves a
        # result-cache hit, whose SQL is the text stored with the entry
        path = self.write_batch(
            tmp_path,
            [
                "SELECT name? WHERE director_name? = 'James Cameron'",
                "SELECT title? WHERE actor?.name? = 'Tom Hanks'",
                "SELECT name? WHERE director_name? = 'James Cameron'",
            ],
        )
        outputs = {}
        for mode, extra in (("inline", []), ("processes", ["--processes", "1"])):
            exit_code = main(["--dataset", "movies", "--batch", path, *extra])
            assert exit_code == 0
            outputs[mode] = capsys.readouterr().out
        sql = {
            mode: [line for line in text.splitlines() if "-> " in line]
            for mode, text in outputs.items()
        }
        assert len(sql["inline"]) == 3
        assert sql["processes"] == sql["inline"]
        request = {
            line.split()[0]: line
            for line in outputs["processes"].splitlines()
            if line.startswith("[")
        }
        assert "cached" not in request["[1]"]
        assert "cached" in request["[3]"]

    def test_batch_writes_service_stats(self, tmp_path, capsys):
        import json as jsonlib

        path = self.write_batch(
            tmp_path, ["SELECT name? WHERE director_name? = 'James Cameron'"]
        )
        stats_path = tmp_path / "svc.json"
        exit_code = main(
            [
                "--dataset",
                "movies",
                "--batch",
                path,
                "--service-stats",
                str(stats_path),
            ]
        )
        assert exit_code == 0
        snapshot = jsonlib.loads(stats_path.read_text(encoding="utf-8"))
        assert snapshot["stats"]["completed"] == 1


class TestExplainSubcommand:
    QUERY = "SELECT name? WHERE director_name? = 'James Cameron'"

    def test_explain_renders_span_tree(self, capsys):
        from repro.cli import run_explain

        exit_code = main(["explain", self.QUERY, "--dataset", "movies"])
        text = capsys.readouterr().out
        assert exit_code == 0
        assert "[1] w=" in text and "rung=full" in text
        # the annotated trace: root span, rung attempts, mapper sigmas
        assert "translate" in text
        assert "rung:full" in text
        assert "map.tree" in text
        assert "σ=" in text
        assert run_explain is not None  # direct entry point stays public

    def test_explain_writes_jsonl(self, tmp_path, capsys):
        import json as jsonlib

        trace_path = tmp_path / "trace.jsonl"
        exit_code = main(
            ["explain", self.QUERY, "--trace-out", str(trace_path)]
        )
        capsys.readouterr()
        assert exit_code == 0
        records = [
            jsonlib.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        ]
        assert any(r["name"] == "translate" for r in records)
        assert all(r["status"] in ("ok", "error") for r in records)

    def test_explain_syntax_error_exit_code(self, capsys):
        exit_code = main(["explain", "SELECT name? WHERE"])
        text = capsys.readouterr().out
        assert exit_code == 2
        assert "error:" in text


class TestObservabilityFlags:
    QUERY = "SELECT name? WHERE director_name? = 'James Cameron'"

    def test_trace_flag_renders_tree_after_results(self, capsys):
        exit_code = main(
            ["--dataset", "movies", "--trace", "--execute", self.QUERY]
        )
        text = capsys.readouterr().out
        assert exit_code == 0
        assert "SELECT" in text  # the translation itself still prints
        assert "translate" in text and "rung:full" in text

    def test_trace_out_appends_spans(self, tmp_path, capsys):
        import json as jsonlib

        trace_path = tmp_path / "spans.jsonl"
        exit_code = main(
            [
                "--dataset",
                "movies",
                "--trace-out",
                str(trace_path),
                "--execute",
                self.QUERY,
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        names = {
            jsonlib.loads(line)["name"]
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        }
        assert {"translate", "parse", "map", "compose"} <= names

    def test_metrics_json_snapshot(self, tmp_path, capsys):
        import json as jsonlib

        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "--dataset",
                "movies",
                "--metrics",
                str(metrics_path),
                "--execute",
                self.QUERY,
            ]
        )
        text = capsys.readouterr().out
        assert exit_code == 0
        assert f"metrics written to {metrics_path}" in text
        snapshot = jsonlib.loads(metrics_path.read_text(encoding="utf-8"))
        queries = snapshot["repro_translate_queries_total"]["values"]
        assert queries == {"outcome=ok,rung=full": 1}

    def test_metrics_prometheus_exposition(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        exit_code = main(
            [
                "--dataset",
                "movies",
                "--metrics",
                str(metrics_path),
                "--execute",
                self.QUERY,
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        text = metrics_path.read_text(encoding="utf-8")
        assert "# TYPE repro_translate_queries_total counter" in text
        assert (
            'repro_translate_queries_total{outcome="ok",rung="full"} 1'
            in text
        )
        assert "repro_translate_total_seconds_bucket" in text

    def test_metrics_cover_batch_service(self, tmp_path, capsys):
        import json as jsonlib

        batch = tmp_path / "batch.txt"
        batch.write_text(self.QUERY + "\n", encoding="utf-8")
        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "--dataset",
                "movies",
                "--batch",
                str(batch),
                "--metrics",
                str(metrics_path),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        snapshot = jsonlib.loads(metrics_path.read_text(encoding="utf-8"))
        requests = snapshot["repro_service_requests_total"]["values"]
        assert requests == {"database=default,outcome=ok": 1}


class TestSqliteBackendFlag:
    def test_execute_on_sqlite_backend(self, capsys):
        exit_code = main(
            [
                "--dataset",
                "movies",
                "--backend",
                "sqlite",
                "--execute",
                "SELECT count(*) FROM movie",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "row(s)" in captured.out

    def test_results_agree_with_memory_backend(self, capsys):
        query = "SELECT title? WHERE release_year? > 2000"
        main(["--dataset", "movies", "--execute", query])
        memory_out = capsys.readouterr().out
        main(
            ["--dataset", "movies", "--backend", "sqlite", "--execute", query]
        )
        sqlite_out = capsys.readouterr().out
        memory_rows = {l for l in memory_out.splitlines() if l.startswith("  ")}
        sqlite_rows = {l for l in sqlite_out.splitlines() if l.startswith("  ")}
        assert memory_rows == sqlite_rows


class TestImportSubcommand:
    @pytest.fixture()
    def sqlite_file(self, fig1_db, tmp_path):
        from repro.engine.io import export_to_sqlite

        path = tmp_path / "fig1.sqlite"
        export_to_sqlite(fig1_db, path).close()
        return str(path)

    def test_import_reports_reflection(self, sqlite_file, capsys):
        exit_code = main(["import", sqlite_file, "--schema"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "6 relations, 6 foreign keys" in captured.out
        assert "Person" in captured.out

    def test_import_execute_translates_end_to_end(self, sqlite_file, capsys):
        exit_code = main(
            [
                "import",
                sqlite_file,
                "--execute",
                "SELECT title? WHERE director_name? = 'James Cameron'",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Titanic" in captured.out
        assert "Avatar" in captured.out

    def test_import_missing_file_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import EXIT_ENGINE

        missing = str(tmp_path / "nope.sqlite")
        exit_code = main(["import", missing, "--schema"])
        captured = capsys.readouterr()
        assert exit_code == EXIT_ENGINE
        assert "no such file" in captured.out
        assert not (tmp_path / "nope.sqlite").exists()

    def test_import_bad_query_exit_code(self, sqlite_file, capsys):
        from repro.cli import EXIT_SYNTAX

        exit_code = main(["import", sqlite_file, "--execute", "SELECT FROM"])
        capsys.readouterr()
        assert exit_code == EXIT_SYNTAX

    def test_import_corrupted_file_typed_diagnostic(self, tmp_path, capsys):
        """Satellite: a non-SQLite file gets a typed error, a rendered
        diagnostic, and the backend exit code — never a raw traceback."""
        from repro.cli import EXIT_BACKEND

        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"\x00garbage, not a database\xff" * 8)
        exit_code = main(["import", str(path), "--schema"])
        captured = capsys.readouterr()
        assert exit_code == EXIT_BACKEND
        assert "error: cannot open SQLite database" in captured.out
        assert "  | " in captured.out  # diagnostic lines are rendered
        assert "Traceback" not in captured.out
