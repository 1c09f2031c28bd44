"""Interactive Schema-free SQL shell and batch service front end.

Usage::

    python -m repro [--dataset movies|courses|courses-alt] [--top-k N]
    python -m repro --backend sqlite --execute "SELECT title? WHERE gross? > 100"
    python -m repro --batch queries.txt --deadline 0.5
    python -m repro explain "SELECT title? WHERE gross? > 100"
    python -m repro import mydb.sqlite

``--backend sqlite`` exports the dataset to an in-memory SQLite
database, reflects it back, and serves every query from SQLite;
``import`` points the shell at an existing SQLite file with no
hand-written schema (catalog and statistics are reflected — see
README "Backends").

Type Schema-free SQL (or plain SQL) at the prompt; the shell shows the
best translation and its answer.  Dot-commands:

    .tables              list relations
    .schema <relation>   show a relation's columns and keys
    .top <k>             show the k best translations for the next queries
    .explain <sf-sql>    show translations without executing
    .why <sf-sql>        explain the join network behind each translation
    .log <sql>           record a full-SQL query into the query log
    .views               list the views currently on the view graph
    .stats [on|off]      toggle per-query timing/cache statistics
    .help                this text
    .quit                exit

With ``--stats`` (or ``.stats on``) every query prints its translation
statistics: per-stage wall time, candidates and expansions charged, and
the shared context's memo hits/misses.

Observability (docs/OBSERVABILITY.md):

* ``explain "<sf-sql>"`` — translate one query with tracing on and
  render the span tree: per-stage durations, each relation tree's top
  mapper candidates with their σ scores, the degradation-ladder rungs
  attempted, and which rung produced the final SQL;
* ``--trace`` — render the same span tree after every shell/one-shot
  query;
* ``--trace-out FILE`` — append every finished span as one JSON object
  per line (works in shell, one-shot, and batch modes);
* ``--metrics FILE`` — write a metrics snapshot on exit: Prometheus
  text exposition when FILE ends in ``.prom``/``.txt``, JSON otherwise.

Batch mode (``--batch FILE``) reads one query per line (``#`` comments
and blank lines ignored) and serves them one after another through
:meth:`repro.service.QueryService.serve_inline`, with ``--deadline``
seconds per request.  Each request reports its outcome,
degradation-ladder rung, retry count and (on failure) the structured
diagnostic; ``--service-stats FILE`` dumps the service counters as
JSON.  ``--processes N`` serves the file from N supervised worker
processes instead, where ``--queue-limit`` bounds admission.  Exit
codes: 0 all ok, otherwise the code of the first failure (2 syntax /
3 translation / 4 engine / 5 internal), or 6 when shed ``--processes``
requests were the only failures; the full table lives in
``repro.service``'s module docstring.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import SchemaFreeTranslator, TranslationError
from .datasets import (
    make_course_alt_database,
    make_course_database,
    make_movie_database,
)
from .engine import Database, EngineError
from .errors import ReproError
from .obs import (
    JsonlExporter,
    MetricsRegistry,
    RingBufferExporter,
    Tracer,
    record_translation,
    render_trace,
)
from .sqlkit import SqlSyntaxError

DATASETS = {
    "movies": make_movie_database,
    "courses": make_course_database,
    "courses-alt": make_course_alt_database,
}

#: One-shot (``--execute``) exit codes, one per failure class.
EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_TRANSLATION = 3
EXIT_ENGINE = 4
EXIT_INTERNAL = 5
#: --batch --processes: requests shed by admission control, no other failure
EXIT_OVERLOADED = 6
#: the execution backend is unavailable or degraded (corrupted file,
#: locked database, retries exhausted) — repro.backends.errors
EXIT_BACKEND = 7
#: a serving worker process crashed or hung (repro.server.errors)
EXIT_WORKER = 8

#: translation result cache entries per database at the serving tiers
#: (shell, --batch, serve); 0 disables — docs/CACHING.md has the
#: consistency contract.  The library-level default stays 0 so direct
#: SchemaFreeTranslator users opt in explicitly.
DEFAULT_CACHE_SIZE = 256


def exit_code_for(error: Optional[BaseException]) -> int:
    """Map a failure to its one-shot exit code (syntax, translation,
    engine, backend, worker, and internal errors are distinguishable
    to scripts)."""
    from .backends.errors import BackendError
    from .server.errors import WorkerError

    if error is None:
        return EXIT_OK
    if isinstance(error, SqlSyntaxError):
        return EXIT_SYNTAX
    if isinstance(error, WorkerError):
        return EXIT_WORKER
    if isinstance(error, BackendError):
        return EXIT_BACKEND
    if isinstance(error, EngineError):
        return EXIT_ENGINE
    if isinstance(error, ReproError):
        return EXIT_TRANSLATION
    return EXIT_INTERNAL

class Shell:
    """A small REPL over one backend (or raw Database) and one translator."""

    def __init__(
        self,
        database,  # Database or any repro.backends Backend
        top_k: int = 1,
        show_stats: bool = False,
        tracer=None,  # Optional[repro.obs.Tracer]
        trace_ring: Optional[RingBufferExporter] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        context=None,  # Optional[repro.core.context.TranslationContext]
    ) -> None:
        import dataclasses

        from .core.config import DEFAULT_CONFIG

        self.database = database
        config = dataclasses.replace(
            DEFAULT_CONFIG, result_cache_size=max(0, cache_size)
        )
        self.translator = SchemaFreeTranslator(
            database, config, context=context, tracer=tracer
        )
        self.top_k = top_k
        self.show_stats = show_stats
        #: when set (--trace), each query's span tree is rendered after
        #: its results
        self.trace_ring = trace_ring
        self.metrics = metrics
        #: the last failure seen by ``_query``/``_why`` (drives one-shot
        #: exit codes; cleared at the start of every query)
        self.last_error: Optional[BaseException] = None

    def _report_error(self, exc: ReproError, out, prefix: str = "error") -> None:
        self.last_error = exc
        print(f"{prefix}: {exc}", file=out)
        if exc.diagnostic is not None:
            for line in exc.diagnostic.render().splitlines():
                print(f"  | {line}", file=out)

    def _report_internal(self, exc: BaseException, out, where: str) -> None:
        self.last_error = exc
        print(
            f"internal error in {where}: {type(exc).__name__}: {exc}",
            file=out,
        )
        print("  | this is a bug, not a problem with your query;", file=out)
        print("  | the shell keeps running.", file=out)

    # ------------------------------------------------------------------
    def run_command(self, line: str, out=None) -> bool:
        """Execute one input line; returns False when the shell should
        exit."""
        if out is None:
            out = sys.stdout
        line = line.strip()
        if not line:
            return True
        if line.startswith("."):
            return self._dot_command(line, out)
        self._query(line, out, execute=True)
        return True

    # ------------------------------------------------------------------
    def _dot_command(self, line: str, out) -> bool:
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            print(__doc__, file=out)
        elif command == ".tables":
            for relation in self.database.catalog:
                print(
                    f"  {relation.name} ({len(relation)} columns, "
                    f"{self.database.count(relation.name)} rows)",
                    file=out,
                )
        elif command == ".schema":
            self._schema(argument, out)
        elif command == ".top":
            try:
                self.top_k = max(1, int(argument))
                print(f"showing top {self.top_k} translations", file=out)
            except ValueError:
                print("usage: .top <k>", file=out)
        elif command == ".explain":
            self._query(argument, out, execute=False)
        elif command == ".why":
            self._why(argument, out)
        elif command == ".log":
            try:
                views = self.translator.record_query_log(argument)
                print(f"mined {len(views)} view(s) from the query", file=out)
            except (SqlSyntaxError, EngineError) as exc:
                print(f"error: {exc}", file=out)
        elif command == ".stats":
            if argument in ("on", "off"):
                self.show_stats = argument == "on"
            elif argument:
                print("usage: .stats [on|off]", file=out)
                return True
            else:
                self.show_stats = not self.show_stats
            state = "on" if self.show_stats else "off"
            print(f"per-query statistics {state}", file=out)
        elif command == ".views":
            views = self.translator.view_graph.views
            if not views:
                print("  (no views)", file=out)
            for view in views:
                chain = " - ".join(view.relations)
                print(
                    f"  [{view.source}] {view.name}: {chain} "
                    f"(strength {view.strength:.1f})",
                    file=out,
                )
        else:
            print(f"unknown command {command!r}; try .help", file=out)
        return True

    def _observe(self, translations, out, failed: bool = False) -> None:
        """Per-query observability tail: fold the query into the metrics
        registry and render its span tree when --trace is on."""
        if self.metrics is not None:
            if failed:
                record_translation(
                    self.metrics,
                    self.translator.last_translation_stats,
                    outcome="failed",
                    rung="none",
                )
            elif translations and translations[0].stats is not None:
                first = translations[0]
                record_translation(
                    self.metrics,
                    first.stats,
                    outcome="degraded" if first.is_degraded else "ok",
                    rung=first.rung,
                )
        if self.trace_ring is not None:
            print(render_trace(self.trace_ring.last_trace()), file=out)

    def _why(self, text: str, out) -> None:
        from .core import describe_translation

        self.last_error = None
        try:
            translations = self.translator.translate(text, top_k=self.top_k)
        except ReproError as exc:
            self._report_error(exc, out)
            self._observe(None, out, failed=True)
            return
        except Exception as exc:  # keep the REPL alive on translator bugs
            self._report_internal(exc, out, ".why")
            return
        for rank, translation in enumerate(translations, 1):
            print(f"--- interpretation {rank} ---", file=out)
            print(describe_translation(translation), file=out)

    def _schema(self, name: str, out) -> None:
        if not name or not self.database.catalog.has_relation(name):
            print(f"unknown relation {name!r}", file=out)
            return
        relation = self.database.catalog.relation(name)
        print(f"  {relation.name}", file=out)
        for attribute in relation.attributes:
            marks = []
            if attribute.name in relation.primary_key:
                marks.append("PK")
            for fk in self.database.catalog.foreign_keys:
                if (
                    fk.source_relation.lower() == relation.key
                    and fk.source_attribute.lower() == attribute.key
                ):
                    marks.append(f"-> {fk.target_relation}")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            print(
                f"    {attribute.name}: {attribute.data_type}{suffix}",
                file=out,
            )

    def _query(self, text: str, out, execute: bool) -> None:
        if not text:
            return
        self.last_error = None
        try:
            translations = self.translator.translate(text, top_k=self.top_k)
        except ReproError as exc:
            self._report_error(exc, out)
            self._observe(None, out, failed=True)
            return
        except Exception as exc:  # keep the REPL alive on translator bugs
            self._report_internal(exc, out, "translation")
            return
        for rank, translation in enumerate(translations, 1):
            prefix = f"[{rank}] " if len(translations) > 1 else ""
            print(f"{prefix}w={translation.weight:.4f}  {translation.sql}", file=out)
            if translation.degradation:
                print(
                    f"{' ' * len(prefix)}[degraded: "
                    f"{'; '.join(translation.degradation)}]",
                    file=out,
                )
        if self.show_stats and translations and translations[0].stats:
            print(translations[0].stats.render(), file=out)
        self._observe(translations, out)
        if not execute or not translations:
            return
        try:
            result = self.database.execute(translations[0].query)
        except ReproError as exc:
            # EngineError (bad query) and BackendError (substrate down)
            # both get a typed, REPL-safe report
            self._report_error(exc, out, prefix="execution error")
            return
        except Exception as exc:  # keep the REPL alive on engine bugs
            self._report_internal(exc, out, "execution")
            return
        print("  ".join(result.columns), file=out)
        for row in result.rows[:40]:
            print("  ".join("NULL" if v is None else str(v) for v in row), file=out)
        if len(result.rows) > 40:
            print(f"... {len(result.rows) - 40} more rows", file=out)
        print(f"({len(result.rows)} row(s))", file=out)


def read_batch_file(path: str) -> list[str]:
    """Queries from a batch file: one per line, ``#`` comments ignored."""
    queries = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                queries.append(line)
    return queries


def run_batch(
    database,  # Database or any repro.backends Backend
    queries: list[str],
    deadline: Optional[float],
    top_k: int,
    stats_path: Optional[str] = None,
    out=None,
    tracer=None,  # Optional[repro.obs.Tracer]
    metrics: Optional[MetricsRegistry] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
) -> int:
    """Serve a query batch in order on this thread.

    Prints one outcome line per request (rung used, retries) plus the
    diagnostic block for failures, and returns the batch exit code.
    """
    import dataclasses

    from .core.config import DEFAULT_CONFIG
    from .service import QueryService, ServiceConfig

    if out is None:
        out = sys.stdout
    config = ServiceConfig(
        deadline=deadline,
        top_k=max(1, top_k),
        translator=dataclasses.replace(
            DEFAULT_CONFIG, result_cache_size=max(0, cache_size)
        ),
    )
    with QueryService(
        database, config, tracer=tracer, metrics=metrics
    ) as service:
        responses = [service.serve_inline(query) for query in queries]
        snapshot = service.snapshot()

    first_error: Optional[BaseException] = None
    for response in responses:
        marks = [f"rung={response.rung or '-'}"]
        if response.cached:
            marks.append("cached")
        if response.retries:
            marks.append(f"retries={response.retries}")
        print(
            f"[{response.request_id}] {response.outcome:<8} "
            f"{' '.join(marks)}  {response.query}",
            file=out,
        )
        if response.ok:
            print(f"    -> {response.sql}", file=out)
            if response.degraded:
                steps = "; ".join(response.translations[0].degradation)
                print(f"    [degraded: {steps}]", file=out)
        else:
            if first_error is None:
                first_error = response.error
            print(f"    error: {response.error}", file=out)
            if response.diagnostic is not None:
                for line in response.diagnostic.render().splitlines():
                    print(f"    | {line}", file=out)
    stats = snapshot["stats"]
    print(
        f"batch: {stats['completed']} ok, {stats['failed']} failed, "
        f"{stats['shed']} shed, {stats['retries']} retries",
        file=out,
    )
    if stats_path:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, default=str)
        print(f"service stats written to {stats_path}", file=out)
    return exit_code_for(first_error)


def run_batch_processes(
    database_spec,  # repro.server.DatabaseSpec
    shard: str,
    queries: list[str],
    processes: int,
    deadline: Optional[float],
    queue_limit: int,
    top_k: int,
    stats_path: Optional[str] = None,
    out=None,
    tracer=None,  # Optional[repro.obs.Tracer]
    metrics: Optional[MetricsRegistry] = None,
    chaos_hooks: bool = False,
    request_timeout: float = 30.0,
    cache_size: int = DEFAULT_CACHE_SIZE,
) -> int:
    """Route a query batch through the supervised process pool.

    The crash-isolated sibling of :func:`run_batch`: worker processes
    serve the queries, the supervisor restarts any that die, and a
    request failed by a crashed or hung worker exits with
    ``EXIT_WORKER`` (8) instead of poisoning the whole batch.
    """
    from .server import Supervisor, SupervisorConfig

    if out is None:
        out = sys.stdout
    config = SupervisorConfig(
        workers_per_shard=max(1, processes),
        queue_limit=max(0, queue_limit),
        deadline=deadline,
        top_k=max(1, top_k),
        request_timeout=request_timeout,
        cache_size=max(0, cache_size),
        chaos_hooks=chaos_hooks,
    )
    supervisor = Supervisor(
        {shard: database_spec}, config, tracer=tracer, metrics=metrics
    )
    with supervisor:
        responses = supervisor.run(queries, database=shard)
        snapshot = supervisor.drain()

    first_error: Optional[BaseException] = None
    any_shed = False
    for response in responses:
        marks = [f"rung={response.rung or '-'}"]
        if response.cached:
            marks.append("cached")
        if response.retries:
            marks.append(f"retries={response.retries}")
        if response.worker_pid is not None:
            marks.append(f"pid={response.worker_pid}")
        print(
            f"[{response.request_id}] {response.outcome:<8} "
            f"{' '.join(marks)}  {response.query}",
            file=out,
        )
        if response.ok:
            print(f"    -> {response.sql}", file=out)
        else:
            any_shed = any_shed or response.shed
            if first_error is None and not response.shed:
                first_error = response.error
            print(f"    error: {response.error}", file=out)
            if response.diagnostic is not None:
                for line in response.diagnostic.render().splitlines():
                    print(f"    | {line}", file=out)
    stats = snapshot["stats"]
    print(
        f"batch: {stats['completed']} ok, {stats['failed']} failed, "
        f"{stats['shed']} shed, {stats['crashed']} crashed, "
        f"{stats['timed_out']} timed out, {stats['restarts']} restarts "
        f"({config.workers_per_shard} worker processes)",
        file=out,
    )
    if stats_path:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, default=str)
        print(f"supervisor stats written to {stats_path}", file=out)
    if any_shed and first_error is None:
        return EXIT_OVERLOADED
    return exit_code_for(first_error)


def run_serve(argv: Optional[list[str]] = None, out=None) -> int:
    """The ``repro serve`` subcommand: the supervised HTTP front end.

    Shards one or more databases across worker processes and serves
    ``POST /query``, ``GET /healthz``, ``GET /readyz`` and
    ``GET /metrics`` until SIGTERM starts the graceful drain.
    """
    import asyncio

    from .server import DatabaseSpec, Supervisor, SupervisorConfig
    from .server.http import serve as http_serve

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve schema-free SQL over HTTP from supervised "
        "worker processes",
    )
    parser.add_argument(
        "--dataset",
        action="append",
        choices=sorted(DATASETS),
        metavar="NAME",
        help="host this synthetic dataset as a shard (repeatable; "
        "default: movies)",
    )
    parser.add_argument(
        "--load",
        action="append",
        metavar="NAME=DIR",
        help="host a saved database directory as shard NAME (repeatable)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--workers-per-shard",
        type=int,
        default=1,
        help="worker processes per database shard (default: 1)",
    )
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--top-k", type=int, default=1)
    parser.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_CACHE_SIZE,
        metavar="N",
        help="translation result cache entries per worker database "
        f"(0 disables; default: {DEFAULT_CACHE_SIZE})",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="kill a worker whose request exceeds this many seconds",
    )
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    parser.add_argument("--heartbeat-timeout", type=float, default=5.0)
    parser.add_argument("--max-restarts", type=int, default=5)
    parser.add_argument("--restart-window", type=float, default=60.0)
    parser.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="directory of shared translation-context artifacts; the "
        "supervisor builds (or finds) one per shard and every worker — "
        "including crash replacements — attaches it instead of "
        "rebuilding (docs/ARTIFACTS.md)",
    )
    # deterministic chaos directives for harnesses; not a user feature
    parser.add_argument(
        "--chaos-hooks", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if out is None:
        out = sys.stderr

    specs: dict[str, "DatabaseSpec"] = {}
    for name in args.dataset or []:
        specs[name] = DatabaseSpec(kind="dataset", target=name)
    for pair in args.load or []:
        name, sep, path = pair.partition("=")
        if not sep:
            print(f"error: --load expects NAME=DIR, got {pair!r}", file=out)
            return EXIT_INTERNAL
        specs[name] = DatabaseSpec(kind="saved", target=path)
    if not specs:
        specs["movies"] = DatabaseSpec(kind="dataset", target="movies")

    registry = MetricsRegistry()
    supervisor = Supervisor(
        specs,
        SupervisorConfig(
            workers_per_shard=max(1, args.workers_per_shard),
            queue_limit=max(0, args.queue_limit),
            deadline=args.deadline,
            top_k=max(1, args.top_k),
            cache_size=max(0, args.cache_size),
            request_timeout=args.request_timeout,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            max_restarts=args.max_restarts,
            restart_window=args.restart_window,
            chaos_hooks=args.chaos_hooks,
            artifact_dir=args.artifact_dir,
        ),
        metrics=registry,
    )
    # serve() starts the supervisor on its own event loop
    print(
        f"serving shards {sorted(specs)} on "
        f"http://{args.host}:{args.port} "
        f"({args.workers_per_shard} worker(s) per shard)",
        file=out,
    )
    try:
        asyncio.run(
            http_serve(supervisor, host=args.host, port=args.port)
        )
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.close()
    return EXIT_OK


def _load_database(dataset: str, load: Optional[str]) -> tuple[Database, str]:
    if load:
        from .engine.io import load_database

        return load_database(load), load
    return DATASETS[dataset](), dataset


def _as_sqlite(database: Database, label: str):
    """Materialise *database* into an in-memory SQLite file and return a
    reflected SqliteBackend over it (the ``--backend sqlite`` path)."""
    from .backends import SqliteBackend
    from .engine.io import export_to_sqlite

    return SqliteBackend(export_to_sqlite(database, ":memory:"), name=label)


def _shell_loop(shell: Shell, banner: str) -> int:
    """The interactive REPL shared by the default and import entrypoints."""
    print(banner)
    while True:
        try:
            line = input("sfsql> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            alive = shell.run_command(line)
        except Exception as exc:  # last-ditch guard: the REPL survives
            shell._report_internal(exc, sys.stdout, "the shell")
            continue
        if not alive:
            return 0


def write_metrics(registry: MetricsRegistry, path: str, out=None) -> None:
    """Dump the registry: Prometheus text for ``.prom``/``.txt`` paths,
    the JSON snapshot otherwise."""
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith((".prom", ".txt")):
            handle.write(registry.render_text())
        else:
            json.dump(registry.snapshot(), handle, indent=2)
    if out is not None:
        print(f"metrics written to {path}", file=out)


def run_explain(argv: Optional[list[str]] = None, out=None) -> int:
    """The ``repro explain`` subcommand: translate one query with
    tracing enabled and render the annotated span tree — per-stage
    durations, each relation tree's top mapper candidates with σ
    scores, the ladder rungs attempted, and the rung that produced the
    final SQL."""
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Trace one schema-free query through the pipeline",
    )
    parser.add_argument("query", help="the Schema-free SQL query to explain")
    parser.add_argument(
        "--dataset",
        choices=sorted(DATASETS),
        default="movies",
        help="which synthetic database to load (default: movies)",
    )
    parser.add_argument(
        "--load",
        metavar="DIR",
        help="load a saved database instead of a built-in dataset",
    )
    parser.add_argument(
        "--top-k", type=int, default=1, help="interpretations to produce"
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="also append the spans to FILE as JSON lines",
    )
    args = parser.parse_args(argv)
    if out is None:
        out = sys.stdout

    database, _ = _load_database(args.dataset, args.load)
    ring = RingBufferExporter()
    exporters = [ring]
    jsonl = JsonlExporter(args.trace_out) if args.trace_out else None
    if jsonl is not None:
        exporters.append(jsonl)
    tracer = Tracer(exporters=exporters)
    translator = SchemaFreeTranslator(database, tracer=tracer)
    error: Optional[BaseException] = None
    translations = []
    try:
        translations = translator.translate(
            args.query, top_k=max(1, args.top_k)
        )
    except ReproError as exc:
        error = exc
        print(f"error: {exc}", file=out)
        if exc.diagnostic is not None:
            for line in exc.diagnostic.render().splitlines():
                print(f"  | {line}", file=out)
    finally:
        if jsonl is not None:
            jsonl.close()
    for rank, translation in enumerate(translations, 1):
        print(
            f"[{rank}] w={translation.weight:.4f}  rung={translation.rung}  "
            f"{translation.sql}",
            file=out,
        )
        if translation.degradation:
            print(
                f"    [degraded: {'; '.join(translation.degradation)}]",
                file=out,
            )
    print(file=out)
    print(render_trace(ring.spans()), file=out)
    return exit_code_for(error)


def run_import(argv: Optional[list[str]] = None, out=None) -> int:
    """The ``repro import`` subcommand: reflect an existing SQLite file.

    No hand-written schema: relations, attributes, types and FK edges
    come from ``PRAGMA`` metadata (repro.backends.sqlite), translation
    statistics from sampled SELECTs, and schema-free queries translate
    and execute against the file end-to-end.
    """
    import os

    parser = argparse.ArgumentParser(
        prog="repro import",
        description="Reflect a SQLite database and query it schema-free",
    )
    parser.add_argument("file", help="path to an existing SQLite database file")
    parser.add_argument(
        "--top-k", type=int, default=1, help="translations to show per query"
    )
    parser.add_argument(
        "--execute",
        metavar="SF_SQL",
        help="translate and run one query non-interactively, then exit",
    )
    parser.add_argument(
        "--schema",
        action="store_true",
        help="print the reflected catalog and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-query translation statistics",
    )
    parser.add_argument(
        "--sample-limit",
        type=int,
        default=None,
        metavar="N",
        help="cap rows read per column for translation statistics "
        "(default: whole column)",
    )
    parser.add_argument(
        "--precompute-context",
        action="store_true",
        help="build and store a translation-context artifact at import "
        "time so the first query (in any process) starts warm",
    )
    parser.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="artifact store directory for --precompute-context "
        "(default: <file>.artifacts next to the database file)",
    )
    args = parser.parse_args(argv)
    if out is None:
        out = sys.stdout

    # sqlite3.connect() silently creates missing files, which would
    # reflect as an empty catalog — catch the mistake here instead.
    if not os.path.exists(args.file):
        print(f"error: no such file: {args.file}", file=out)
        return EXIT_ENGINE

    from .backends import SqliteBackend

    # A corrupted, locked, or non-SQLite file surfaces as a typed
    # BackendError with a structured diagnostic — never a raw sqlite3
    # traceback.
    try:
        backend = SqliteBackend(args.file, sample_limit=args.sample_limit)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        if exc.diagnostic is not None:
            for line in exc.diagnostic.render().splitlines():
                print(f"  | {line}", file=out)
        return exit_code_for(exc)
    catalog = backend.catalog
    print(
        f"imported {args.file}: {len(catalog)} relations, "
        f"{len(catalog.foreign_keys)} foreign keys",
        file=out,
    )
    context = None
    if args.precompute_context:
        import dataclasses as _dataclasses

        from .artifacts import ArtifactStore, ensure_artifact, load_context
        from .core.config import DEFAULT_CONFIG as _DEFAULT_CONFIG

        directory = args.artifact_dir or args.file + ".artifacts"
        # the shell's translator config (the cache-size delta is outside
        # the artifact key, so any repro process can share this file)
        shell_config = _dataclasses.replace(
            _DEFAULT_CONFIG, result_cache_size=DEFAULT_CACHE_SIZE
        )
        try:
            path = ensure_artifact(backend, ArtifactStore(directory))
            context = load_context(path, backend, shell_config)
        except ReproError as exc:
            # advisory: a failed precompute costs a cold first query,
            # never the import itself
            print(f"warning: context precompute failed: {exc}", file=out)
        else:
            print(f"context artifact ready: {path}", file=out)
    if args.schema:
        shell = Shell(backend)
        for relation in catalog:
            shell._schema(relation.name, out)
        return EXIT_OK

    shell = Shell(
        backend,
        top_k=max(1, args.top_k),
        show_stats=args.stats,
        context=context,
    )
    if args.execute is not None:
        shell.run_command(args.execute, out=out)
        return exit_code_for(shell.last_error)
    return _shell_loop(
        shell,
        f"Schema-free SQL shell — imported {args.file!r} "
        f"({len(catalog)} relations). Type .help for commands.",
    )


def run_artifacts(argv: Optional[list[str]] = None, out=None) -> int:
    """The ``repro artifacts`` subcommand: build / list / gc the
    persistent translation-context artifact store (docs/ARTIFACTS.md).
    """
    parser = argparse.ArgumentParser(
        prog="repro artifacts",
        description="Manage persistent translation-context artifacts",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    build = sub.add_parser(
        "build", help="build and publish one database's artifact"
    )
    source = build.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset", choices=sorted(DATASETS), default="movies"
    )
    source.add_argument(
        "--sqlite", metavar="FILE", help="a SQLite file to reflect"
    )
    source.add_argument(
        "--load", metavar="DIR", help="a saved database directory"
    )
    build.add_argument("--artifact-dir", metavar="DIR", required=True)
    build.add_argument(
        "--warm-workload",
        action="store_true",
        help="translate the dataset's bundled workload during the build "
        "so the artifact also carries similarity/network memos",
    )

    lister = sub.add_parser("list", help="list published artifacts")
    lister.add_argument("--artifact-dir", metavar="DIR", required=True)

    gc = sub.add_parser(
        "gc", help="LRU-evict artifacts beyond the disk budget"
    )
    gc.add_argument("--artifact-dir", metavar="DIR", required=True)
    gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte budget to enforce (default: the store's default)",
    )

    args = parser.parse_args(argv)
    if out is None:
        out = sys.stdout

    from .artifacts import ArtifactReader, ArtifactStore, ensure_artifact
    from .errors import ReproError as _ReproError

    store = ArtifactStore(args.artifact_dir)
    if args.verb == "build":
        if args.sqlite:
            from .backends import SqliteBackend

            backend = SqliteBackend(args.sqlite)
        elif args.load:
            from .engine.io import load_database

            backend = load_database(args.load)
        else:
            backend = DATASETS[args.dataset]()
        warmup: list[str] = []
        if args.warm_workload and not args.sqlite and not args.load:
            from .workloads import (
                COURSE_QUERIES,
                SOPHISTICATED_QUERIES,
                TEXTBOOK_QUERIES,
            )

            bundles = {
                "movies": TEXTBOOK_QUERIES + SOPHISTICATED_QUERIES,
                "courses": COURSE_QUERIES,
                "courses-alt": COURSE_QUERIES,
            }
            warmup = [
                q.sf_sql or q.gold_sql for q in bundles.get(args.dataset, [])
            ]
        try:
            path = ensure_artifact(backend, store, warmup=warmup)
        except _ReproError as exc:
            print(f"error: {exc}", file=out)
            return EXIT_INTERNAL
        print(path, file=out)
        return EXIT_OK

    if args.verb == "list":
        entries = store.list()
        if not entries:
            print("(no artifacts)", file=out)
            return EXIT_OK
        for entry in entries:
            try:
                reader = ArtifactReader(entry.path)
                detail = (
                    f"schema {reader.schema_fingerprint[:12]}… "
                    f"data_version {reader.data_version}"
                )
            except _ReproError as exc:
                detail = f"UNREADABLE: {exc.args[0]}"
            print(
                f"{entry.key}  {entry.size} bytes  {detail}",
                file=out,
            )
        return EXIT_OK

    evicted = store.gc(args.max_bytes)
    kept = store.list()
    print(
        f"evicted {len(evicted)} artifact(s), kept {len(kept)} "
        f"({sum(e.size for e in kept)} bytes)",
        file=out,
    )
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return run_explain(argv[1:])
    if argv and argv[0] == "import":
        return run_import(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "artifacts":
        return run_artifacts(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="Schema-free SQL interactive shell"
    )
    parser.add_argument(
        "--dataset",
        choices=sorted(DATASETS),
        default="movies",
        help="which synthetic database to load (default: movies)",
    )
    parser.add_argument(
        "--top-k", type=int, default=1, help="translations to show per query"
    )
    parser.add_argument(
        "--load",
        metavar="DIR",
        help="load a database saved with repro.engine.io.save_database "
        "instead of a built-in dataset",
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help="execution backend: the in-process engine, or the dataset "
        "exported to an in-memory SQLite database and reflected back "
        "(default: memory)",
    )
    parser.add_argument(
        "--execute",
        metavar="SF_SQL",
        help="translate and run one query non-interactively, then exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-query translation statistics (stage timings, "
        "search counters, cache hits)",
    )
    parser.add_argument(
        "--batch",
        metavar="FILE",
        help="translate a file of queries (one per line) through the "
        "query service, then exit",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds for --batch "
        "(default: none)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="admission-control queue bound for --batch --processes; "
        "requests beyond processes + limit are shed (default: 32)",
    )
    parser.add_argument(
        "--service-stats",
        metavar="FILE",
        help="with --batch, write the service stats snapshot as JSON",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_CACHE_SIZE,
        metavar="N",
        help="translation result cache entries per database "
        f"(0 disables; default: {DEFAULT_CACHE_SIZE}; see "
        "docs/CACHING.md for the consistency contract)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="with --batch, serve from N supervised worker *processes* "
        "instead of in this process: crash-isolated, restarted on "
        "failure; a request lost to a crashed or hung worker exits 8",
    )
    # deterministic chaos directives for harnesses; not a user feature
    parser.add_argument(
        "--chaos-hooks", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="render each query's span tree after its results",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="append every finished span to FILE as JSON lines",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics snapshot on exit (.prom/.txt: Prometheus "
        "text exposition; otherwise JSON)",
    )
    args = parser.parse_args(argv)

    database, dataset_label = _load_database(args.dataset, args.load)
    if args.backend == "sqlite":
        database = _as_sqlite(database, dataset_label)
        dataset_label = f"{dataset_label} (sqlite)"

    tracer = None
    ring: Optional[RingBufferExporter] = None
    jsonl: Optional[JsonlExporter] = None
    if args.trace or args.trace_out:
        exporters = []
        if args.trace:
            ring = RingBufferExporter()
            exporters.append(ring)
        if args.trace_out:
            jsonl = JsonlExporter(args.trace_out)
            exporters.append(jsonl)
        tracer = Tracer(exporters=exporters)
    registry = MetricsRegistry() if args.metrics else None

    try:
        if args.batch is not None and args.processes is not None:
            from .server import DatabaseSpec

            if args.backend == "sqlite":
                print(
                    "error: --processes rebuilds each worker's database "
                    "from its spec; use --dataset or --load, not "
                    "--backend sqlite",
                    file=sys.stderr,
                )
                return EXIT_INTERNAL
            if args.load:
                spec = DatabaseSpec(kind="saved", target=args.load)
                shard = args.load
            else:
                spec = DatabaseSpec(kind="dataset", target=args.dataset)
                shard = args.dataset
            return run_batch_processes(
                spec,
                shard,
                read_batch_file(args.batch),
                processes=args.processes,
                deadline=args.deadline,
                queue_limit=args.queue_limit,
                top_k=args.top_k,
                stats_path=args.service_stats,
                tracer=tracer,
                metrics=registry,
                chaos_hooks=args.chaos_hooks,
                cache_size=args.cache_size,
            )
        if args.batch is not None:
            return run_batch(
                database,
                read_batch_file(args.batch),
                deadline=args.deadline,
                top_k=args.top_k,
                stats_path=args.service_stats,
                tracer=tracer,
                metrics=registry,
                cache_size=args.cache_size,
            )

        shell = Shell(
            database,
            top_k=max(1, args.top_k),
            show_stats=args.stats,
            tracer=tracer,
            trace_ring=ring,
            metrics=registry,
            cache_size=args.cache_size,
        )

        if args.execute is not None:
            # one-shot mode: distinct nonzero exit codes per failure
            # class (2 syntax, 3 translation, 4 engine, 5 internal)
            shell.run_command(args.execute)
            return exit_code_for(shell.last_error)

        return _shell_loop(
            shell,
            f"Schema-free SQL shell — dataset {dataset_label!r} "
            f"({len(database.catalog)} relations). Type .help for commands.",
        )
    finally:
        if jsonl is not None:
            jsonl.close()
        if registry is not None:
            write_metrics(registry, args.metrics, out=sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
