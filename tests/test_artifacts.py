"""Tests for repro.artifacts — persistent translation-context artifacts.

Three contracts under test:

* **round trip** — a context attached from an artifact translates every
  workload byte-identically to a freshly-built one (the hypothesis
  property sweeps query subsets and k), and a ``data_version`` bump
  correctly *misses* the stale artifact instead of serving stale memos;
* **robustness** — truncated, corrupted, version-skewed and mis-keyed
  files raise typed :class:`ArtifactError` subclasses carrying an
  ``artifact``-stage diagnostic, and :func:`load_or_build_context`
  falls back to a fresh build — never a wrong answer, never a failed
  query;
* **fleet** — the supervisor publishes one artifact per shard and every
  worker (including post-crash replacements) attaches it, reported in
  the ready frame and the supervisor snapshot.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactKeyMismatch,
    ArtifactReader,
    ArtifactStore,
    ArtifactVersionSkew,
    artifact_key,
    build_artifact,
    ensure_artifact,
    load_context,
    load_or_build_context,
    register_metrics,
)
from repro.artifacts.format import MAGIC, config_digest, encode, sign
from repro.core.composer import COMPOSE_PARTS
from repro.core.config import DEFAULT_CONFIG
from repro.core.context import TranslationContext
from repro.core.rescache import schema_fingerprint
from repro.core.translator import SchemaFreeTranslator
from repro.datasets import make_course_database, make_movie_database
from repro.obs import MetricsRegistry, RingBufferExporter, Tracer
from repro.workloads import (
    COURSE_QUERIES,
    SOPHISTICATED_QUERIES,
    TEXTBOOK_QUERIES,
)

TOP_K = 3

MOVIE_QUERIES = [q.sf_sql or q.gold_sql for q in TEXTBOOK_QUERIES]
SOPHISTICATED_SQL = [q.sf_sql or q.gold_sql for q in SOPHISTICATED_QUERIES]
COURSE_SQL = [q.sf_sql or q.gold_sql for q in COURSE_QUERIES]

WORKLOADS = {
    "movies": (make_movie_database, MOVIE_QUERIES + SOPHISTICATED_SQL),
    "courses": (make_course_database, COURSE_SQL),
}


def translate_all(database, queries, context=None):
    translator = SchemaFreeTranslator(
        database, DEFAULT_CONFIG, context=context
    )
    return [
        [(t.sql, t.weight) for t in translator.translate(q, top_k=TOP_K)]
        for q in queries
    ]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_artifact(request, tmp_path_factory):
    """(name, factory, queries, path, fresh results) per workload — the
    artifact is built once per module, warmed on the full workload."""
    name = request.param
    factory, queries = WORKLOADS[name]
    store = ArtifactStore(str(tmp_path_factory.mktemp(f"store-{name}")))
    path = build_artifact(
        factory(), store, warmup=queries, warmup_top_k=TOP_K
    )
    fresh = translate_all(factory(), queries)
    return name, factory, queries, path, fresh


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


class TestStore:
    def test_put_get_roundtrip_and_touch(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = store.put("k1", b"payload")
        assert store.get("k1") == path
        assert open(path, "rb").read() == b"payload"
        assert store.get("missing") is None

    def test_put_is_atomic_no_temp_left_behind(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("k1", b"x" * 1024)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]
        assert leftovers == []

    def test_gc_evicts_lru_under_budget(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=2500)
        for index in range(4):
            path = store.put(f"k{index}", bytes(1000))
            os.utime(path, (index, index))  # deterministic LRU order
        evicted = store.gc()
        assert sorted(e.key for e in evicted) == ["k0", "k1"]
        assert sorted(e.key for e in store.list()) == ["k2", "k3"]

    def test_build_spares_its_own_artifact(self, tmp_path):
        """A budget smaller than one image evicts every older artifact
        but never the one the build just published."""
        store = ArtifactStore(str(tmp_path), max_bytes=1000)
        stale = store.put("stale", bytes(500))
        os.utime(stale, (0, 0))
        path = build_artifact(make_movie_database(), store)
        assert os.path.exists(path)
        assert [entry.path for entry in store.list()] == [path]
        context, error = load_or_build_context(make_movie_database(), path)
        assert error is None
        assert context.stats.neighbor_builds == 0

    def test_key_depends_on_all_components(self):
        base = artifact_key("fp", 1, DEFAULT_CONFIG)
        assert artifact_key("fp2", 1, DEFAULT_CONFIG) != base
        assert artifact_key("fp", 2, DEFAULT_CONFIG) != base

    def test_config_digest_ignores_cache_budgets(self):
        import dataclasses

        resized = dataclasses.replace(DEFAULT_CONFIG, result_cache_size=9)
        assert config_digest(resized) == config_digest(DEFAULT_CONFIG)
        other = dataclasses.replace(DEFAULT_CONFIG, max_expansions=7)
        assert config_digest(other) != config_digest(DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_loaded_context_translates_byte_identically(
        self, workload_artifact
    ):
        _, factory, queries, path, fresh = workload_artifact
        database = factory()
        context = load_context(path, database)
        assert context.stats.neighbor_builds == 0  # attached, not rebuilt
        assert translate_all(database, queries, context) == fresh

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_query_subset_and_k_matches_fresh(
        self, workload_artifact, data
    ):
        """Property: for any serving order/subset and any k, an
        artifact-attached context answers exactly like a fresh one."""
        _, factory, queries, path, _ = workload_artifact
        subset = data.draw(
            st.lists(
                st.sampled_from(queries), min_size=1, max_size=4, unique=True
            )
        )
        k = data.draw(st.integers(min_value=1, max_value=4))
        database = factory()
        context = load_context(path, database)
        loaded_translator = SchemaFreeTranslator(
            database, DEFAULT_CONFIG, context=context
        )
        fresh_translator = SchemaFreeTranslator(factory(), DEFAULT_CONFIG)
        for query in subset:
            assert [
                t.sql for t in loaded_translator.translate(query, top_k=k)
            ] == [t.sql for t in fresh_translator.translate(query, top_k=k)]

    def test_compose_parts_are_never_persisted(self, tmp_path):
        # a warmed context's memoized networks carry their compose
        # parts; its artifact is byte-identical to one of the same memos
        # without them, and no loaded network has any
        database = make_course_database()
        context = TranslationContext(database, DEFAULT_CONFIG)
        translate_all(database, COURSE_SQL, context=context)
        schema_state, memos = context.export_state()
        networks = [
            network
            for _, networks_ in memos.networks.values()
            for network in networks_
        ]
        assert networks
        assert all(COMPOSE_PARTS in network.__dict__ for network in networks)
        image = encode(
            schema_state, memos, database.data_version, DEFAULT_CONFIG
        )
        for network in networks:
            del network.__dict__[COMPOSE_PARTS]
        assert image == encode(
            schema_state, memos, database.data_version, DEFAULT_CONFIG
        )
        path = tmp_path / "courses.rpra"
        path.write_bytes(image)
        _, loaded = ArtifactReader(str(path)).state(database.catalog)
        loaded_networks = [
            network
            for _, networks_ in loaded.networks.values()
            for network in networks_
        ]
        assert len(loaded_networks) == len(networks)
        assert not any(
            COMPOSE_PARTS in network.__dict__ for network in loaded_networks
        )

    def test_data_version_bump_misses_artifact(self, tmp_path):
        """After a write, the old artifact is mis-keyed (typed miss →
        fresh build), and a rebuilt artifact serves the new data."""
        database = make_movie_database()
        store = ArtifactStore(str(tmp_path))
        path = ensure_artifact(database, store, warmup=MOVIE_QUERIES)
        database.insert(
            "movie",
            {"movie_id": 99990, "title": "New", "release_year": 2025},
        )
        with pytest.raises(ArtifactKeyMismatch) as excinfo:
            load_context(path, database)
        assert "data_version" in str(excinfo.value)
        context, error = load_or_build_context(database, path)
        assert isinstance(error, ArtifactKeyMismatch)
        assert translate_all(
            database, MOVIE_QUERIES, context
        ) == translate_all(make_movie_database(), MOVIE_QUERIES)
        # the bumped backend publishes under a different key
        rebuilt = ensure_artifact(database, store)
        assert rebuilt != path
        assert len(store.list()) == 2

    def test_samples_load_lazily(self, workload_artifact):
        """An attached context answers column samples from the file's
        state: no backend scan, one cache hit."""
        _, factory, _, path, _ = workload_artifact
        database = factory()
        context = load_context(path, database)
        relation = context.relations[0]
        context.column_sample(relation.name, relation.attributes[0].name)
        assert context.stats.sample_builds == 0
        assert context.stats.sample_hits == 1

    def test_ensure_artifact_hits_published_file(self, tmp_path):
        database = make_movie_database()
        store = ArtifactStore(str(tmp_path))
        first = ensure_artifact(database, store)
        assert ensure_artifact(make_movie_database(), store) == first
        assert len(store.list()) == 1

    def test_ensure_artifact_rebuilds_corrupt_published_file(self, tmp_path):
        """A published file that no longer verifies is a labelled miss
        and is republished, not handed out again."""
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path))
        path = ensure_artifact(make_movie_database(), store)
        with open(path, "r+b") as handle:
            handle.write(b"\0\0\0\0")  # clobber the magic
        with pytest.raises(ArtifactCorrupt, match="bad magic"):
            ArtifactReader(path)
        database = make_movie_database()
        assert ensure_artifact(database, store, metrics=metrics) == path
        load_context(path, database)  # verifies again
        assert ensure_artifact(database, store, metrics=metrics) == path
        snapshot = metrics.snapshot()
        assert snapshot["repro_artifact_misses_total"]["values"] == {
            "reason=ArtifactCorrupt": 1
        }
        assert snapshot["repro_artifact_builds_total"]["values"] == {"": 1}
        assert snapshot["repro_artifact_hits_total"]["values"] == {"": 1}
        assert len(store.list()) == 1


# ---------------------------------------------------------------------------
# robustness: every failure is typed, diagnosed, and survivable
# ---------------------------------------------------------------------------


#: bytes before the body: magic, format version, checksum
PRELUDE_SIZE = len(sign(b""))


def split_body(image: bytes) -> tuple[bytes, bytes]:
    """(key pickle, state pickle) of one artifact image."""
    stream = io.BytesIO(image)
    stream.seek(PRELUDE_SIZE)
    pickle.load(stream)
    cut = stream.tell()
    return image[PRELUDE_SIZE:cut], image[cut:]


def assert_artifact_diagnostic(error: ArtifactError) -> None:
    assert error.diagnostic is not None
    assert error.diagnostic.stage == "artifact"
    assert "recovery" in error.diagnostic.detail


class TestRobustness:
    def test_truncated_file(self, workload_artifact, tmp_path):
        _, factory, _, path, _ = workload_artifact
        clipped = str(tmp_path / "clipped.rpra")
        with open(path, "rb") as source:
            data = source.read()
        with open(clipped, "wb") as target:
            target.write(data[: len(data) // 2])
        with pytest.raises(ArtifactCorrupt) as excinfo:
            load_context(clipped, factory())
        assert_artifact_diagnostic(excinfo.value)

    def test_flipped_payload_byte_fails_checksum(
        self, workload_artifact, tmp_path
    ):
        _, factory, _, path, _ = workload_artifact
        mutated = str(tmp_path / "mutated.rpra")
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF
        open(mutated, "wb").write(bytes(data))
        with pytest.raises(ArtifactCorrupt) as excinfo:
            load_context(mutated, factory())
        assert "checksum" in str(excinfo.value)
        assert_artifact_diagnostic(excinfo.value)

    def test_version_skew(self, workload_artifact, tmp_path):
        _, factory, _, path, _ = workload_artifact
        skewed = str(tmp_path / "skewed.rpra")
        # a future format, and the sectioned layout of format version 1
        for version in (999, 1):
            data = bytearray(open(path, "rb").read())
            struct.pack_into("<H", data, len(MAGIC), version)
            open(skewed, "wb").write(bytes(data))
            with pytest.raises(ArtifactVersionSkew) as excinfo:
                load_context(skewed, factory())
            assert f"format version {version}" in str(excinfo.value)
            assert_artifact_diagnostic(excinfo.value)

    def test_bad_magic(self, workload_artifact, tmp_path):
        _, factory, _, path, _ = workload_artifact
        alien = str(tmp_path / "alien.rpra")
        data = bytearray(open(path, "rb").read())
        data[:4] = b"NOPE"
        open(alien, "wb").write(bytes(data))
        with pytest.raises(ArtifactCorrupt):
            load_context(alien, factory())

    def test_wrong_database_is_key_mismatch(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = build_artifact(make_movie_database(), store)
        with pytest.raises(ArtifactKeyMismatch) as excinfo:
            load_context(path, make_course_database())
        assert "schema fingerprint" in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactCorrupt):
            load_context(str(tmp_path / "ghost.rpra"), make_movie_database())

    def test_fallback_never_fails_the_query(
        self, workload_artifact, tmp_path
    ):
        """Every corruption mode lands on a working fresh context."""
        _, factory, queries, path, fresh = workload_artifact
        data = bytearray(open(path, "rb").read())
        broken = []
        for label, mutate in (
            ("truncated", lambda d: d[:40]),
            ("flipped", lambda d: d[:-5] + bytes([d[-5] ^ 1]) + d[-4:]),
            ("empty", lambda d: b""),
            ("resigned-cut", lambda d: sign(split_body(d)[0])),
        ):
            target = str(tmp_path / f"{label}.rpra")
            open(target, "wb").write(bytes(mutate(bytes(data))))
            broken.append(target)
        for target in broken:
            database = factory()
            context, error = load_or_build_context(database, target)
            assert isinstance(error, ArtifactError)
            assert translate_all(database, queries[:2], context) == fresh[:2]


# ---------------------------------------------------------------------------
# re-signed bodies: the checksum matches, so decoding must catch the fault
# ---------------------------------------------------------------------------


class TestResignedBodies:
    @pytest.fixture
    def movie_image(self, tmp_path):
        path = build_artifact(
            make_movie_database(), ArtifactStore(str(tmp_path / "store"))
        )
        return open(path, "rb").read()

    def load_resigned(self, tmp_path, body: bytes) -> ArtifactCorrupt:
        target = str(tmp_path / "resigned.rpra")
        open(target, "wb").write(sign(body))
        with pytest.raises(ArtifactCorrupt) as excinfo:
            load_context(target, make_movie_database())
        assert_artifact_diagnostic(excinfo.value)
        return excinfo.value

    def test_sign_matches_encoder(self, movie_image):
        key, state = split_body(movie_image)
        assert sign(key + state) == movie_image
        assert movie_image[PRELUDE_SIZE - 32 : PRELUDE_SIZE] == (
            hashlib.sha256(key + state).digest()
        )

    def test_body_cut_after_key(self, movie_image, tmp_path):
        key, _ = split_body(movie_image)
        error = self.load_resigned(tmp_path, key)
        assert "undecodable state" in error.reason

    def test_state_of_another_catalog(self, movie_image, tmp_path):
        key, _ = split_body(movie_image)
        courses = make_course_database()
        _, foreign = split_body(
            encode(
                *TranslationContext(courses).export_state(),
                courses.data_version,
                DEFAULT_CONFIG,
            )
        )
        error = self.load_resigned(tmp_path, key + foreign)
        assert "unknown relation" in error.reason

    def test_state_of_wrong_type(self, movie_image, tmp_path):
        key, _ = split_body(movie_image)
        error = self.load_resigned(
            tmp_path, key + pickle.dumps(["not", "a", "state"])
        )
        assert "state decoded to list" in error.reason


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_build_and_load_trace_and_count(self, tmp_path):
        ring = RingBufferExporter()
        tracer = Tracer(exporters=[ring])
        metrics = MetricsRegistry()
        database = make_movie_database()
        store = ArtifactStore(str(tmp_path))
        path = ensure_artifact(
            database, store, tracer=tracer, metrics=metrics
        )
        load_context(
            path, make_movie_database(), tracer=tracer, metrics=metrics
        )
        names = [span.name for span in ring.spans()]
        assert "artifact.build" in names
        assert "artifact.load" in names
        assert "artifact.verify" in names
        snapshot = metrics.snapshot()
        assert snapshot["repro_artifact_builds_total"]["values"]
        assert snapshot["repro_artifact_loads_total"]["values"]
        assert snapshot["repro_artifact_load_seconds"]["values"]

    def test_miss_reasons_are_labelled(self, tmp_path):
        metrics = MetricsRegistry()
        register_metrics(metrics)
        database = make_movie_database()
        load_or_build_context(
            database, str(tmp_path / "ghost.rpra"), metrics=metrics
        )
        values = metrics.snapshot()["repro_artifact_misses_total"]["values"]
        assert any("ArtifactCorrupt" in str(labels) for labels in values)


# ---------------------------------------------------------------------------
# service / CLI / fleet integration
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_service_attaches_artifact_and_reports(self, tmp_path):
        from repro.service import QueryService, ServiceConfig

        database = make_movie_database()
        store = ArtifactStore(str(tmp_path))
        path = ensure_artifact(database, store, warmup=MOVIE_QUERIES[:3])
        with QueryService(
            {"default": make_movie_database()},
            ServiceConfig(workers=1, artifacts={"default": path}),
        ) as service:
            info = service.snapshot()["artifacts"]["default"]
            assert info["loaded"] and info["error"] is None
            response = service.serve_inline(MOVIE_QUERIES[0])
            assert response.ok

    def test_service_falls_back_on_bad_artifact(self, tmp_path):
        from repro.service import QueryService, ServiceConfig

        bad = str(tmp_path / "bad.rpra")
        open(bad, "wb").write(b"garbage")
        with QueryService(
            {"default": make_movie_database()},
            ServiceConfig(workers=1, artifacts={"default": bad}),
        ) as service:
            info = service.snapshot()["artifacts"]["default"]
            assert not info["loaded"]
            assert "truncated" in info["error"]
            assert service.serve_inline(MOVIE_QUERIES[0]).ok

    def test_import_precompute_context_cli(self, tmp_path, capsys):
        import sqlite3

        from repro.cli import main

        sqlite_file = str(tmp_path / "tiny.sqlite")
        connection = sqlite3.connect(sqlite_file)
        connection.executescript(
            """
            CREATE TABLE person (
                person_id INTEGER PRIMARY KEY, name TEXT
            );
            INSERT INTO person VALUES (1, 'Ada'), (2, 'Grace');
            """
        )
        connection.commit()
        connection.close()
        exit_code = main(
            [
                "import",
                sqlite_file,
                "--precompute-context",
                "--artifact-dir",
                str(tmp_path / "store"),
                "--execute",
                "SELECT name? WHERE name? = 'Ada'",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "context artifact ready" in out
        assert ArtifactStore(str(tmp_path / "store")).list()

    def test_artifacts_cli_build_list_gc(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "store")
        assert main(["artifacts", "build", "--artifact-dir", directory]) == 0
        built_path = capsys.readouterr().out.strip().splitlines()[-1]
        assert os.path.exists(built_path)
        assert main(["artifacts", "list", "--artifact-dir", directory]) == 0
        listing = capsys.readouterr().out
        assert ArtifactReader(built_path).schema_fingerprint[:12] in listing
        assert (
            main(
                [
                    "artifacts",
                    "gc",
                    "--artifact-dir",
                    directory,
                    "--max-bytes",
                    "0",
                ]
            )
            == 0
        )
        assert "evicted 1" in capsys.readouterr().out
        assert not ArtifactStore(directory).list()

    def test_supervisor_shares_one_artifact_across_workers(self, tmp_path):
        from repro.server import DatabaseSpec, Supervisor, SupervisorConfig

        supervisor = Supervisor(
            {"movies": DatabaseSpec(kind="dataset", target="movies")},
            SupervisorConfig(
                workers_per_shard=2,
                auto_watchdog=False,
                artifact_dir=str(tmp_path),
            ),
        )
        with supervisor:
            snapshot = supervisor.snapshot()
            shard = snapshot["shards"]["movies"]
            assert shard["artifact"] and shard["artifact"].endswith(".rpra")
            assert len(ArtifactStore(str(tmp_path)).list()) == 1
            workers = shard["workers"]
            assert len(workers) == 2
            assert all(w["artifacts"] == ["movies"] for w in workers)
            response = supervisor.submit(
                "SELECT title? WHERE actor?.name? = 'Tom Hanks'",
                database="movies",
            ).result(timeout=60)
            assert response.ok
