"""Tests of the benchmark's own parts.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import collections
import gc
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import judge as judging  # noqa: E402
import measure  # noqa: E402
import tracer as tracing  # noqa: E402
import variants  # noqa: E402
import workloads  # noqa: E402
from repro import SchemaFreeTranslator  # noqa: E402
from repro.backends import MemoryBackend, SqliteBackend  # noqa: E402
from repro.datasets import make_course_database  # noqa: E402
from repro.engine.io import export_to_sqlite  # noqa: E402
from repro.sqlkit import parse  # noqa: E402
from repro.workloads import COURSE_QUERIES  # noqa: E402


@pytest.fixture(scope="module")
def database():
    return make_course_database()


@pytest.fixture(scope="module")
def space(database):
    return variants.VariantSpace(database, COURSE_QUERIES)


# ----------------------------------------------------------------------
# variant generator
# ----------------------------------------------------------------------


def test_every_variant_parses_and_its_gold_sql_executes(space, database, tmp_path):
    """On the memory engine and on the SQLite copy the judge uses."""
    export_to_sqlite(make_course_database(), str(tmp_path / "c.sqlite")).close()
    sqlite = SqliteBackend(str(tmp_path / "c.sqlite"))
    assert len(space.keys) == 2892
    for key in space.keys:
        variant = space.variant(key)
        parse(variant.sf_sql)
        gold = parse(variant.gold_sql)
        assert sorted(database.execute(gold).rows) == sorted(sqlite.execute(gold).rows)
    sqlite.close()


def test_original_values_reproduce_the_shipped_queries(space):
    by_qid = {query.qid: query for query in COURSE_QUERIES}
    assert len(space.originals) == len(COURSE_QUERIES)
    for key in space.originals:
        variant = space.variant(key)
        assert variant.sf_sql == by_qid[key[0]].sf_sql
        assert parse(variant.gold_sql) == parse(by_qid[key[0]].gold_sql)


def test_substitution_is_the_same_in_gold_and_sf_sql(space):
    variant = space.variant(("C04", ("Algorithms", "Fall 2012")))
    for text in (variant.gold_sql, variant.sf_sql):
        assert "t.name = 'Fall 2012'" in text
        assert "c.title = 'Algorithms'" in text


def test_shuffle_is_seeded(space):
    first = variants.shuffled_keys(space, random.Random(7))
    assert first == variants.shuffled_keys(space, random.Random(7))
    assert first != variants.shuffled_keys(space, random.Random(8))
    rest = variants.shuffled_keys(space, random.Random(7), exclude=space.originals)
    assert len(rest) == len(set(rest)) == len(space.keys) - len(space.originals)


def test_cover_holds_every_literal_of_the_rest(space):
    cover, rest = variants.covering_split(variants.shuffled_keys(space, random.Random(3)))
    assert set(cover).isdisjoint(rest)
    seen = {(qid, i, v) for qid, values in cover for i, v in enumerate(values)}
    for qid, values in rest:
        assert all((qid, i, v) in seen for i, v in enumerate(values))


def test_zipf_draws_are_seeded_and_skewed():
    draws = variants.zipf_draws(random.Random(1), 1000, 20000, 1.1)
    assert draws == variants.zipf_draws(random.Random(1), 1000, 20000, 1.1)
    counts = collections.Counter(draws)
    assert counts[0] > counts[1] > counts[9] > 0
    assert max(draws) < 1000


def test_writes_insert_cleanly_and_change_the_data(database, tmp_path):
    writes = variants.make_writes(database, random.Random(2), 16)
    assert [table for table, _ in writes[:8]] == list(variants.WRITE_TABLES)
    connection = export_to_sqlite(make_course_database(), str(tmp_path / "c.sqlite"))
    before = connection.execute("SELECT count(*) FROM comment").fetchone()[0]
    for table, row in writes:
        connection.execute(variants.insert_sql(database, table), row)
    connection.commit()
    assert connection.execute("SELECT count(*) FROM comment").fetchone()[0] == before + 2
    ids = [row[0] for row in connection.execute("SELECT comment_id FROM comment")]
    assert len(ids) == len(set(ids))
    connection.close()


# ----------------------------------------------------------------------
# judge
# ----------------------------------------------------------------------


def test_judge_compares_results_not_text(database):
    judge = judging.Judge(database.execute)
    gold = COURSE_QUERIES[0].gold_sql
    assert judge.correct(gold, gold)
    reordered = (
        "SELECT s.name FROM program p, student s "
        "WHERE p.name = 'BS in Computer Science' AND s.program_id = p.program_id"
    )
    assert judge.correct(gold, reordered)
    assert not judge.correct(gold, "SELECT s.name FROM student s")
    assert not judge.correct(gold, "SELECT nope FROM student")


def test_judge_keeps_row_multiplicity_and_order(database):
    judge = judging.Judge(database.execute)
    gold = "SELECT name FROM department ORDER BY name"
    assert judge.correct(gold, "SELECT name FROM department ORDER BY name")
    assert not judge.correct(gold, "SELECT name FROM department ORDER BY name DESC")
    assert not judge.correct(
        "SELECT DISTINCT s.admit_year FROM student s", "SELECT s.admit_year FROM student s"
    )


def test_judge_rejects_a_broken_gold_query(database):
    with pytest.raises(judging.JudgeError):
        judging.Judge(database.execute).correct("SELECT nope FROM student", "SELECT 1")


def test_failed_reads_are_errors_and_not_correct(space, database):
    judge = judging.Judge(database.execute)
    variant = space.variant(sorted(space.originals)[0])
    reads = [
        judging.Read(variant, 0.001, True, variant.gold_sql),
        judging.Read(variant, 0.001, False, None),
        judging.Read(variant, 0.001, True, "SELECT 1"),
        judging.Read(variant, 0.001, True, None),
    ]
    verdict = judging.judge_reads(reads, lambda epoch: judge)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (4, 2, 1)
    assert verdict.error_rate == 0.5 and verdict.top1_correct == 0.25


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class _Owner:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    @property
    def version(self):
        return 5


def test_self_time_subtracts_children_and_install_restores():
    originals = dict(_Owner.__dict__)
    spans = tracing.Tracer()
    spans.install([(_Owner, "outer", "a"), (_Owner, "inner", "b"), (_Owner, "version", "c")])
    try:
        owner = _Owner()
        assert spans.wrap("read", owner.outer)() == 2
        assert owner.version == 5
    finally:
        spans.uninstall()
    assert all(_Owner.__dict__[k] is v for k, v in originals.items())
    names = [span[0] for span in spans.spans]
    assert names == ["read", "a", "b", "c"]
    read, outer, inner, _ = spans.spans
    assert outer[3] == 0 and inner[3] == 1
    totals, counts = spans.self_times()
    assert totals["a"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert sum(totals[n] for n in ("read", "a", "b")) == pytest.approx(read[2] - read[1])
    assert counts == {"read": 1, "a": 1, "b": 1, "c": 1}


def test_layers_sum_to_the_traced_read_time():
    spans = tracing.Tracer()
    backend = MemoryBackend(make_course_database())
    translator = SchemaFreeTranslator(backend)
    for query in COURSE_QUERIES[:8]:
        translator.translate(query.sf_sql, top_k=3)
    spans.install(tracing.entry_points((MemoryBackend,)))
    try:
        read = spans.wrap("read", translator.translate)
        for index, query in enumerate(COURSE_QUERIES[:8]):
            spans.request = index
            assert read(query.sf_sql, top_k=3)
    finally:
        spans.uninstall()
    metrics = tracing.layer_metrics(spans, 8)
    reads = [s for s in spans.spans if s[0] == "read"]
    mean = 1000.0 * sum(end - start for _, start, end, _, _ in reads) / 8
    layers = sum(v for k, v in metrics.items() if k.endswith("_ms"))
    assert layers == pytest.approx(mean)
    assert metrics["core.map.calls"] == 1.0 and metrics["core.map_ms"] > 0
    assert {s[4] for s in spans.spans} == set(range(8))
    assert spans.orphans("read") == 0


def test_spans_outside_a_read_are_orphans():
    spans = tracing.Tracer()
    spans.install([(_Owner, "outer", "a"), (_Owner, "inner", "b")])
    try:
        owner = _Owner()
        spans.wrap("read", owner.outer)()
        owner.inner()  # outside any read
        spans.request += 1
        spans.wrap("read", owner.outer)()
    finally:
        spans.uninstall()
    assert spans.orphans("read") == 1
    assert spans.root_seconds("read") == pytest.approx(
        sum(end - start for name, start, end, _, _ in spans.spans if name == "read")
    )


# ----------------------------------------------------------------------
# measurement and the steadiness guard
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile([3.0], 99) == 3.0


def _phase(seconds, refs, gap=0.0):
    """A phase of reads taking *seconds* each, back to back with *gap*
    before each read's slot."""
    reads, starts, ends, now = [], [], [], 0.0
    for took in seconds:
        now += gap
        starts.append(now)
        now += took
        ends.append(now)
        reads.append(judging.Read(None, took, True))
    return measure.Phase(reads, starts, ends, refs)


def test_normalization_uses_the_reference_rounds_near_each_read():
    nominal = measure.NOMINAL
    # 100 reads of 50 ms; one round at the start, one at 1x and one
    # at 3x nominal 0.5 s in, and a slow one at the end
    phase = _phase([0.05] * 100, [(0.0, nominal), (0.5, 3 * nominal), (5.0, 2 * nominal)])
    factors = phase.factors()
    assert factors[0] == pytest.approx(0.5)  # the first two rounds
    assert factors[99] == pytest.approx(0.5)  # only the last round
    assert factors[70] == pytest.approx(0.5)  # none within 1 s: the nearest
    assert factors[30] == pytest.approx(1 / 3)  # the middle round only
    assert phase.normalized()[0] == pytest.approx(0.025)


def test_block_rates_count_the_writes_inside_a_block_only():
    nominal = measure.NOMINAL
    phase = _phase([0.001] * 100, [(0.0, nominal), (0.2, 2 * nominal)], gap=0.001)
    # a block spans 50 slots of 2 ms, less the gap before the first one,
    # and every read is within a second of both rounds
    assert phase.block_rates() == pytest.approx([1.5 * 50 / 0.099] * 2)


def test_latency_pools_the_phases():
    nominal = measure.NOMINAL
    slow = _phase([0.002 * (i + 1) for i in range(100)], [(0.0, 2 * nominal)])
    fast = _phase([0.001 * (i + 1) for i in range(100)], [(0.0, nominal)])
    summary = measure.latency_summary([slow, fast])
    # the slow host's reads normalize to the fast host's
    assert summary["latency_p50_ms"] == pytest.approx(50.0)
    assert summary["latency_p99_ms"] == pytest.approx(99.0)
    assert summary["raw_p99_ms"] == pytest.approx(196.0)


def test_reference_round_leaves_the_collector_as_it_was():
    assert measure.reference() > 0
    gc.disable()
    try:
        measure.reference()
        assert not gc.isenabled()
    finally:
        gc.enable()
    measure.reference()
    assert gc.isenabled()


def test_guard_flags_a_percentile_on_a_class_edge():
    guard = measure.Guard()
    guard.off_edges({"hit": 810, "miss": 190}, ["hit", "miss"])
    assert guard.failures == []
    guard.off_edges({"hit": 975, "miss": 25}, ["hit", "miss"])
    assert len(guard.failures) == 1 and "p99" in guard.failures[0]
    guard = measure.Guard()
    guard.off_edges({"hit": 1000}, ["hit", "miss"])
    assert guard.failures == []


def test_guard_flags_counts_that_differ_between_runs():
    guard = measure.Guard()
    guard.same("hits", [3, 3, 3])
    assert guard.failures == []
    guard.same("hits", [3, 4])
    assert guard.failures


def test_peak_rss_reads_this_process():
    assert measure.peak_rss_mb() > 1.0


# ----------------------------------------------------------------------
# process cleanup
# ----------------------------------------------------------------------


def test_wait_group_outlasts_an_orphaned_grandchild():
    """A server's resource tracker outlives the server; closing the
    server must wait for it too."""
    child = subprocess.Popen(
        ["sh", "-c", "sleep 0.5 & echo $!"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    orphan = int(child.stdout.readline())
    child.wait()
    workloads.wait_group(child.pid)
    child.stdout.close()
    assert not Path(f"/proc/{orphan}").exists()
