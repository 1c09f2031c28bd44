"""SqliteBackend — run the schema-free pipeline over a real SQLite file.

Three responsibilities (ISSUE 5 tentpole, DESIGN.md §12):

* **catalog reflection** — build a :class:`repro.catalog.Catalog` from
  ``PRAGMA table_info`` / ``PRAGMA foreign_key_list``, including the FK
  adjacency the view graph needs, so ``repro import mydb.sqlite`` works
  with no hand-written schema;
* **statistics provision** — ``column_values`` runs a (optionally
  ``LIMIT``-ed) ``SELECT`` and decodes values back to engine types, so
  :class:`repro.core.context.TranslationContext` builds identical
  samples — and therefore identical translations — on either backend;
* **execution** — lower the composed AST to SQLite's dialect
  (:mod:`repro.backends.dialect`), run it, and return rows in the
  engine's :class:`~repro.engine.executor.Result` shape.

Semantics parity is enforced by registering the engine's scalar
functions as SQLite UDFs (overriding builtins where both exist — e.g.
``round`` becomes half-even like Python's) plus ``repro_div`` /
``repro_mod`` for arithmetic and a ``like()`` override for the engine's
case-sensitive LIKE.  Exceptions raised inside UDFs surface from sqlite3
as a generic OperationalError, so the backend stashes the original
engine error and re-raises it with its message intact.

Threading: file-backed sources get one connection **per thread**
(created lazily, UDFs registered at creation), so threads sharing one
``QueryService`` execute concurrently instead of serialising on one
handle.
``:memory:`` sources and adopted connections cannot be re-opened per
thread, so they stay on a single shared connection guarded by an RLock
(sqlite3 objects are not thread-safe even with
``check_same_thread=False``).  UDF error stashing is thread-local in
both modes.

Open/reflect failures are typed (ISSUE 6): a corrupted or non-SQLite
file raises :class:`~repro.backends.errors.BackendUnavailable`, a
locked/busy database raises :class:`~repro.backends.errors.
TransientBackendError` (worth a retry) — never a raw ``sqlite3``
traceback.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import nullcontext
from datetime import date
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..catalog import Attribute, Catalog, DataType, SchemaError
from ..engine.errors import ExecutionError
from ..errors import Diagnostic
from .errors import BackendUnavailable, TransientBackendError
from ..engine.evaluator import like_match
from ..engine.executor import Result
from ..engine.functions import SCALAR_FUNCTIONS
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..sqlkit import ast
from ..sqlkit.parser import parse
from ..sqlkit.render import render_identifier
from .dialect import to_sqlite_sql
from .instrument import BackendInstruments

__all__ = ["SqliteBackend", "reflect_catalog", "map_declared_type"]


def map_declared_type(declared: Optional[str]) -> DataType:
    """Map a SQLite declared column type to an engine :class:`DataType`.

    Follows SQLite's own affinity rules (substring matching on the
    declared type) extended with BOOLEAN and DATE, which SQLite stores
    as INTEGER/TEXT but our engine treats as distinct types.  Unknown or
    missing declarations fall back to TEXT.
    """
    decl = (declared or "").upper()
    if "BOOL" in decl:
        return DataType.BOOLEAN
    if "DATE" in decl or "TIME" in decl:
        return DataType.DATE
    if "INT" in decl:
        return DataType.INTEGER
    if "CHAR" in decl or "CLOB" in decl or "TEXT" in decl:
        return DataType.TEXT
    if (
        "REAL" in decl
        or "FLOA" in decl
        or "DOUB" in decl
        or "NUMERIC" in decl
        or "DEC" in decl
    ):
        return DataType.FLOAT
    return DataType.TEXT


def reflect_catalog(connection: sqlite3.Connection, name: str = "sqlite") -> Catalog:
    """Build a Catalog from a live SQLite connection's schema.

    Tables come from ``sqlite_master`` in creation order; columns, types,
    nullability and primary keys from ``PRAGMA table_info``; FK edges from
    ``PRAGMA foreign_key_list``.  Composite foreign keys and FKs whose
    endpoints do not resolve (dangling targets are legal in un-enforced
    SQLite schemas) are skipped — the view graph only models single-column
    FK-PK edges (paper §5.1).
    """
    catalog = Catalog(name)
    tables = [
        row[0]
        for row in connection.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        )
    ]
    for table in tables:
        info = connection.execute(
            f"PRAGMA table_info({render_identifier(table)})"
        ).fetchall()
        # Only the explicit NOT NULL flag maps to nullable=False: SQLite
        # implies NOT NULL for most PK columns, but mirroring that here
        # would break round-tripping catalogs whose PKs are declared
        # nullable (the flag is descriptive; the engine enforces PKs).
        attributes = [
            Attribute(
                name=col_name,
                data_type=map_declared_type(declared),
                nullable=not notnull,
            )
            for (_cid, col_name, declared, notnull, _default, _pk) in info
        ]
        pk_columns = sorted(
            ((pk_position, col_name) for (_c, col_name, _d, _n, _df, pk_position) in info
             if pk_position),
        )
        catalog.create_relation(
            table, attributes, primary_key=[col for _pos, col in pk_columns]
        )
    for table in tables:
        fk_rows = connection.execute(
            f"PRAGMA foreign_key_list({render_identifier(table)})"
        ).fetchall()
        # ids count backwards from the last-declared FK (id 0 is the
        # newest), so declaration order — which join-predicate ordering
        # in translated SQL depends on — is descending id.  Composite
        # FKs (any id with a seq > 0 member) are dropped.
        composite_ids = {row[0] for row in fk_rows if row[1] > 0}
        for row in sorted(fk_rows, key=lambda r: (-r[0], r[1])):
            fk_id, seq, target_table, source_column, target_column = row[:5]
            if fk_id in composite_ids:
                continue
            try:
                catalog.add_foreign_key(
                    table, source_column, target_table, target_column
                )
            except SchemaError:
                continue  # dangling or duplicate FK — not an edge we can use
    return catalog


# ---------------------------------------------------------------------------
# engine-semantics UDFs
# ---------------------------------------------------------------------------


def _udf_div(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if right == 0:
        raise ExecutionError("division by zero")
    result = left / right
    if isinstance(left, int) and isinstance(right, int):
        return left // right if left % right == 0 else result
    return result


def _udf_mod(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if right == 0:
        raise ExecutionError("modulo by zero")
    return left % right


def _map_open_error(exc: sqlite3.Error, source: str) -> Exception:
    """Typed error for an unusable database file: locked/busy is
    transient and retryable, everything else — corrupted file, not a
    database, permissions — is terminal."""
    message = str(exc).lower()
    diagnostic = Diagnostic(
        stage="backend",
        message=f"cannot open SQLite database: {exc}",
        token="reflect",
        detail={"source": source, "sqlite_error": type(exc).__name__},
    )
    if isinstance(exc, sqlite3.OperationalError) and (
        "locked" in message or "busy" in message
    ):
        return TransientBackendError(
            f"SQLite database {source!r} is locked: {exc}",
            diagnostic=diagnostic,
        )
    return BackendUnavailable(
        f"cannot open SQLite database {source!r}: {exc}", diagnostic=diagnostic
    )


class SqliteBackend:
    """Execute translated queries against a SQLite database."""

    kind = "sqlite"

    def __init__(
        self,
        source: Union[str, Path, sqlite3.Connection],
        *,
        name: Optional[str] = None,
        sample_limit: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Open (or adopt) a SQLite database and reflect its catalog.

        *source* is a filesystem path, ``":memory:"``, or an existing
        ``sqlite3.Connection`` (adopted, not closed by :meth:`close`).
        *sample_limit* caps the rows ``column_values`` reads per column —
        leave ``None`` to match MemoryBackend's full-column statistics.
        """
        self._tls = threading.local()
        self._conn_lock = threading.Lock()
        self._connections: list[sqlite3.Connection] = []
        self._closed = False
        if isinstance(source, sqlite3.Connection):
            self._path = None
            self._shared_conn: Optional[sqlite3.Connection] = source
            self._owns_connection = False
            self._per_thread = False
            default_name = "sqlite"
        else:
            self._path = str(source)
            self._owns_connection = True
            # A second connection to ":memory:" would see a different,
            # empty database — memory sources stay on one shared handle.
            self._per_thread = self._path != ":memory:"
            self._shared_conn = None
            stem = Path(self._path).stem
            default_name = stem if stem and stem != ":memory:" else "sqlite"
            if not self._per_thread:
                self._shared_conn = sqlite3.connect(
                    self._path, check_same_thread=False
                )
        self.name = name if name is not None else default_name
        self.sample_limit = sample_limit
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._instruments = BackendInstruments(metrics, self.kind)
        self._lock = threading.RLock()
        with self.tracer.span("backend.reflect", backend=self.kind) as span:
            started = time.perf_counter()
            try:
                conn = self._connection()
                if self._shared_conn is not None:
                    self._register_functions(conn)
                self._catalog = reflect_catalog(conn, self.name)
            except sqlite3.Error as exc:
                self._instruments.observe(
                    "reflect", time.perf_counter() - started, error=True
                )
                span.set_attribute("error", type(exc).__name__)
                raise _map_open_error(exc, self._path or "<connection>") from exc
            elapsed = time.perf_counter() - started
            span.set_attribute("relations", len(self._catalog))
            span.set_attribute("foreign_keys", len(self._catalog.foreign_keys))
        self._instruments.observe("reflect", elapsed)

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        """This thread's connection (created lazily in per-thread mode)."""
        if not self._per_thread:
            assert self._shared_conn is not None
            return self._shared_conn
        conn = getattr(self._tls, "conn", None)
        if conn is None:
            assert self._path is not None
            # check_same_thread=False: each connection is *used* by one
            # thread only, but close() runs from whichever thread tears
            # the backend down.
            conn = sqlite3.connect(self._path, check_same_thread=False)
            self._register_functions(conn)
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    raise BackendUnavailable(
                        f"SqliteBackend({self.name!r}) is closed"
                    )
                self._connections.append(conn)
            self._tls.conn = conn
        return conn

    def _guard(self):
        """Serialise shared-connection use; no-op when each thread owns
        its connection."""
        return self._lock if not self._per_thread else nullcontext()

    # ------------------------------------------------------------------
    # function registration
    # ------------------------------------------------------------------
    def _capture(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Stash exceptions raised inside a UDF (thread-locally — UDFs
        run on the executing thread) so :meth:`execute` can re-raise the
        engine error instead of sqlite3's opaque wrapper."""

        def wrapper(*args: Any) -> Any:
            try:
                return fn(*args)
            except Exception as exc:  # re-raises after stashing the cause
                self._tls.udf_error = exc
                raise

        return wrapper

    def _register_functions(self, conn: sqlite3.Connection) -> None:
        conn.create_function("repro_div", 2, self._capture(_udf_div), deterministic=True)
        conn.create_function("repro_mod", 2, self._capture(_udf_mod), deterministic=True)
        # Engine scalar functions override SQLite builtins of the same
        # name, so e.g. round() is half-even on both backends and
        # concat() exists even where SQLite lacks it.
        from ..engine.functions import call_scalar

        for fname in SCALAR_FUNCTIONS:
            conn.create_function(
                fname,
                -1,
                self._capture(self._scalar_wrapper(fname, call_scalar)),
                deterministic=True,
            )
        # A LIKE override makes pattern matching case-sensitive, as the
        # engine's is.  SQLite calls like(pattern, value); the 3-arg
        # ESCAPE form has no engine counterpart.
        def _like(pattern: Any, value: Any) -> Any:
            if pattern is None or value is None:
                return None
            return 1 if like_match(str(value), str(pattern)) else 0

        conn.create_function("like", 2, self._capture(_like), deterministic=True)

    @staticmethod
    def _scalar_wrapper(
        fname: str, call_scalar: Callable[[str, Any], Any]
    ) -> Callable[..., Any]:
        def wrapper(*args: Any) -> Any:
            return call_scalar(fname, args)

        return wrapper

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def data_version(self) -> int:
        """Combine ``PRAGMA data_version`` (bumped by *other*
        connections' commits) with this thread's connection change
        counter.  In per-thread mode the value is thread-relative after
        a write — different threads may briefly disagree, which at worst
        invalidates the shared context cache spuriously (the safe
        direction)."""
        conn = self._connection()
        with self._guard():
            (external,) = conn.execute("PRAGMA data_version").fetchone()
            return external * 1_000_000 + conn.total_changes

    def count(self, relation_name: str) -> int:
        relation = self._catalog.relation(relation_name)
        sql = f"SELECT count(*) FROM {render_identifier(relation.name)}"
        conn = self._connection()
        with self._guard():
            (value,) = conn.execute(sql).fetchone()
        return value

    def column_values(self, relation_name: str, attribute_name: str) -> list:
        """One column in rowid (insertion) order, decoded to engine types.

        Decoding matters: BOOLEAN comes back as 0/1 and DATE as ISO text,
        but the engine's comparison rules only match booleans with
        booleans, so raw SQLite values would silently zero out condition
        similarity scores.
        """
        relation = self._catalog.relation(relation_name)
        attribute = relation.attribute(attribute_name)
        sql = (
            f"SELECT {render_identifier(attribute.name)} "
            f"FROM {render_identifier(relation.name)}"
        )
        if self.sample_limit is not None:
            sql += f" LIMIT {int(self.sample_limit)}"
        started = time.perf_counter()
        conn = self._connection()
        with self._guard():
            rows = conn.execute(sql).fetchall()
        values = [_decode(value, attribute.data_type) for (value,) in rows]
        self._instruments.observe(
            "sample", time.perf_counter() - started, rows=len(values)
        )
        return values

    def execute(self, query: Union[str, ast.Node]) -> Result:
        """Lower to the SQLite dialect, run, and shape rows like the engine."""
        if isinstance(query, str):
            query = parse(query)
        sql = to_sqlite_sql(query)
        conn = self._connection()
        with self.tracer.span("backend.execute", backend=self.kind) as span:
            started = time.perf_counter()
            with self._guard():
                self._tls.udf_error = None
                try:
                    cursor = conn.execute(sql)
                    rows = [tuple(row) for row in cursor.fetchall()]
                except sqlite3.Error as exc:
                    self._instruments.observe(
                        "execute", time.perf_counter() - started, error=True
                    )
                    span.set_attribute("error", type(exc).__name__)
                    udf_error = getattr(self._tls, "udf_error", None)
                    if isinstance(udf_error, ExecutionError):
                        raise udf_error from exc
                    message = str(exc).lower()
                    if isinstance(exc, sqlite3.OperationalError) and (
                        "locked" in message or "busy" in message
                    ):
                        # Contention, not a property of the query: typed
                        # transient so the query service retries it.
                        raise TransientBackendError(
                            f"sqlite: {exc}",
                            diagnostic=Diagnostic(
                                stage="backend",
                                message=f"sqlite execute: {exc}",
                                token="execute",
                            ),
                        ) from exc
                    raise ExecutionError(f"sqlite: {exc}") from exc
                columns = (
                    [item[0] for item in cursor.description]
                    if cursor.description
                    else []
                )
            elapsed = time.perf_counter() - started
            self._instruments.observe("execute", elapsed, rows=len(rows))
            span.set_attribute("rows", len(rows))
        return Result(columns, rows)

    def sql_for(self, query: Union[str, ast.Node]) -> str:
        """The dialect-lowered SQL text :meth:`execute` would run (debugging)."""
        if isinstance(query, str):
            query = parse(query)
        return to_sqlite_sql(query)

    def close(self) -> None:
        """Close every connection this backend opened (idempotent).

        Adopted connections are left to their owner.  Threads that try
        to use the backend after close get a typed
        :class:`BackendUnavailable` instead of a half-closed handle.
        """
        with self._conn_lock:
            self._closed = True
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()
        if self._owns_connection and self._shared_conn is not None:
            self._shared_conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqliteBackend({self.name!r})"


def _decode(value: Any, data_type: DataType) -> Any:
    if value is None:
        return None
    if data_type is DataType.BOOLEAN and isinstance(value, int):
        return bool(value)
    if data_type is DataType.DATE and isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError:
            return value
    if data_type is DataType.FLOAT and isinstance(value, int):
        return float(value)
    return value
