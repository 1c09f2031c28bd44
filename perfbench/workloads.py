"""The three closed-loop workloads over the courses database.

Every workload has one client issuing one request at a time, top-k 3,
no deadlines and no budgets, and a fixed number of reads derived from
``--seconds`` (never a fixed duration), so everything that is not a time
repeats exactly from run to run.  See README.md for why each exists.
"""

from __future__ import annotations

import dataclasses
import gc
import http.client
import json
import math
import os
import random
import re
import signal
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro import SchemaFreeTranslator
from repro.backends import MemoryBackend, SqliteBackend
from repro.cli import DEFAULT_CACHE_SIZE
from repro.core.rescache import clear_fingerprint_memo
from repro.core.similarity import clear_string_caches
from repro.datasets import make_course_database
from repro.engine import Database
from repro.engine.io import export_to_sqlite
from repro.errors import ReproError
from repro.sqlkit import render
from repro.workloads import COURSE_QUERIES

import judge as judging
import measure
import tracer as tracing
import variants

ROOT = Path(__file__).resolve().parent.parent
TOP_K = 3
#: an end-to-end run is this many cycles of (set-up, timed slice), so
#: the set-up is measured several times
CYCLES = 3
#: no run has fewer timed reads: p99 keeps ten samples beyond it
MIN_READS = 1000
DATABASE = "courses"
clock = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """One run's figures: ``metrics`` maps name -> (value, unit, samples)."""

    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: list


@dataclasses.dataclass
class Answer:
    """What serving one read gave.  ``sql`` is the top-1 SQL text, or a
    query tree that is rendered only after the timed phase."""

    ok: bool
    sql: object
    klass: str
    #: worker-reported seconds (served reads)
    elapsed: float = 0.0
    #: MTJN expansions (in-process reads)
    expanded: int = 0


def closed_loop(
    serve: Callable,
    requests: list,
    before_read: Optional[Callable[[int], tuple]] = None,
    tracer: Optional[tracing.Tracer] = None,
) -> measure.Phase:
    """One client, one read at a time: ``serve(request)`` returns an
    :class:`Answer`, and the latency is that call alone.

    ``before_read(i)`` runs before read *i* (the writes of writes-mixed)
    and returns the data epoch the read sees.  Reference rounds run
    between reads (see :data:`measure.REF_EVERY`).
    """
    if tracer is not None:
        serve = tracer.wrap("read", serve)
    reads, starts, ends, refs, answers = [], [], [], [], []
    epoch = None
    paused = 0.0  # reference seconds so far: the phase clock stops for them

    def sample() -> None:
        nonlocal paused
        at = clock() - paused
        seconds = measure.reference()
        paused += seconds
        refs.append((at, seconds))

    gc.collect()
    sample()
    for index, request in enumerate(requests):
        if clock() - paused - refs[-1][0] >= measure.REF_EVERY:
            sample()
        starts.append(clock() - paused)
        if before_read is not None:
            epoch = before_read(index)
        if tracer is not None:
            tracer.request += 1
        began = clock()
        answer = serve(request)
        took = clock() - began
        ends.append(began + took - paused)
        reads.append(judging.Read(request, took, answer.ok, klass=answer.klass, epoch=epoch))
        answers.append(answer)
    sample()
    for read, answer in zip(reads, answers):
        sql = answer.sql
        read.top1 = sql if sql is None or isinstance(sql, str) else render(sql)
    counters = {
        "elapsed": [answer.elapsed for answer in answers],
        "mtjn_expanded": sum(answer.expanded for answer in answers),
    }
    return measure.Phase(reads, starts, ends, refs, counters)


def _fresh_process_caches() -> None:
    """Drop the process-global memos, so every set-up round and every
    pass starts as cold as a new process."""
    clear_string_caches()
    clear_fingerprint_memo()
    gc.collect()


def _memo_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _context_metrics(delta: dict) -> dict:
    """Per-layer counters from a :class:`ContextStats` delta."""
    out = {
        "core.rescache.hit_ratio": (
            _ratio(delta["result_hits"], delta["result_misses"]), "share"
        ),
        "core.rescache.lookups": (delta["result_hits"] + delta["result_misses"], "count"),
        "core.context.invalidations": (delta["invalidations"], "count"),
    }
    for memo in ("tree_sim", "condition", "network"):
        hits, misses = delta[f"{memo}_hits"], delta[f"{memo}_misses"]
        out[f"core.context.{memo}_hit_ratio"] = (_ratio(hits, misses), "share")
        out[f"core.context.{memo}_lookups"] = (hits + misses, "count")
    return out


def _class_counts(reads) -> dict:
    counts: dict = {}
    for read in reads:
        counts[read.klass] = counts.get(read.klass, 0) + 1
    return counts


def _slice_reads(seconds: int, rate: int) -> int:
    """Timed reads per cycle: ``seconds * rate`` (at least
    :data:`MIN_READS`) over the cycles, rounded up to whole blocks."""
    reads = max(seconds * rate, MIN_READS)
    return math.ceil(reads / CYCLES / measure.BLOCK) * measure.BLOCK


# ----------------------------------------------------------------------
# what serves the reads: a translator, repro serve, a supervisor, a service
# ----------------------------------------------------------------------


class _Translating:
    """A translator over one backend, plus what it must release."""

    def __init__(self, backend, writer=None) -> None:
        self.translator = SchemaFreeTranslator(backend)
        self.backend = backend
        self.writer = writer

    def serve(self, request) -> Answer:
        try:
            translations = self.translator.translate(request.sf_sql, top_k=TOP_K)
        except ReproError:
            translations = []
        stats = self.translator.last_translation_stats
        if stats.memo.get("network_misses", 0):
            klass = "network-miss"  # a join-network search ran
        elif stats.memo.get("tree_sim_misses", 0) or stats.memo.get("condition_misses", 0):
            klass = "map-miss"  # similarities were computed afresh
        else:
            klass = "memo-hit"
        return Answer(
            bool(translations),
            translations[0].query if translations else None,
            klass,
            expanded=stats.generator.get("expanded", 0),
        )

    def memo(self) -> dict:
        return self.translator.context.stats.as_dict()

    def peak_rss(self) -> float:
        return measure.peak_rss_mb()

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()


def wait_group(pgid: int, timeout: float = 30.0) -> None:
    """Wait until no process of group *pgid* is left, reaping those
    this process adopted; SIGKILL the group after *timeout* seconds.
    A server's resource tracker outlives the server by up to a second or
    two, and a run must not end (or time its next cycle) while it lives."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"process group {pgid} survived SIGKILL")
            os.killpg(pgid, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + 10.0
        time.sleep(0.01)


#: the CPUs this process may use when it starts
CPUS = frozenset(os.sched_getaffinity(0))


def _set_affinity(pids, cpus) -> None:
    """Give every thread of the processes *pids* the CPU set *cpus*."""
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:
                pass


def _on_one_cpu(state):
    """Pin this process and every process it started (a server and
    its workers) to one CPU until *state* closes; returns *state*.

    The client, the front end and the worker take turns and never run
    at once.  On one CPU each hand-off is a local switch; across two it
    waits for an idle vCPU to wake, which a busy host delays by
    milliseconds: serve-zipf's p99 moved 30% between runs that way.
    Set-up before this call (spawn, artifact build, ``/readyz``) keeps
    every CPU.
    """
    me = os.getpid()
    _set_affinity([me] + measure.descendants(me), {min(CPUS)})
    close = state.close

    def release() -> None:
        try:
            close()
        finally:
            _set_affinity([me], CPUS)

    state.close = release
    return state


class _Server:
    """One ``repro serve`` process and its stderr reader."""

    def __init__(self, artifact_dir: Path, tmpdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(tmpdir)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", DATABASE, "--port", "0",
                "--top-k", str(TOP_K), "--artifact-dir", str(artifact_dir),
            ],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            # its own group, so close() can wait for every process the
            # server starts (workers, multiprocessing resource tracker)
            start_new_session=True,
        )
        self.port = None
        self.lines: list[str] = []
        self._reader = None
        for line in self.process.stderr:
            self.lines.append(line)
            found = re.search(r"listening on \('[^']*', (\d+)\)", line)
            if found:
                self.port = int(found.group(1))
                break
        if self.port is None:
            self.close()
            raise RuntimeError("repro serve exited:\n" + "".join(self.lines))
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        try:
            deadline = time.monotonic() + 60.0
            while self._request("GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never became ready")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self.lines.append(line)

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def serve(self, request) -> Answer:
        body = json.dumps({"query": request.sf_sql, "database": DATABASE, "top_k": TOP_K})
        try:
            status, raw = self._request("POST", "/query", body.encode("utf-8"))
            doc = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError):
            return Answer(False, None, "miss")
        ok = status == 200 and bool(doc.get("ok")) and doc.get("sql") is not None
        return Answer(
            ok, doc.get("sql"), "hit" if doc.get("cached") else "miss",
            elapsed=float(doc.get("elapsed", 0.0)),
        )

    def memo(self) -> dict:
        return {}

    def peak_rss(self) -> float:
        """The server process and its workers."""
        return measure.peak_rss_mb(self.process.pid, tree=True)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        wait_group(self.process.pid)
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.process.stderr.close()


class _Supervised:
    """``Supervisor.submit().result()`` in this process, configured as
    ``repro serve`` configures it."""

    def __init__(self, artifact_dir: Path) -> None:
        from repro.server import DatabaseSpec, Supervisor, SupervisorConfig

        self.supervisor = Supervisor(
            {DATABASE: DatabaseSpec(kind="dataset", target=DATABASE)},
            SupervisorConfig(
                top_k=TOP_K, cache_size=DEFAULT_CACHE_SIZE, artifact_dir=str(artifact_dir)
            ),
        )
        self.supervisor.start()

    def serve(self, request) -> Answer:
        response = self.supervisor.submit(request.sf_sql, database=DATABASE).result()
        return Answer(
            response.ok, response.sql, "hit" if response.cached else "miss",
            elapsed=response.elapsed,
        )

    def memo(self) -> dict:
        return {}

    def close(self) -> None:
        self.supervisor.close()


class _Inline:
    """``QueryService.serve_inline`` in this process, built the way a
    serving worker builds it: the ``repro serve`` result-cache size and
    an artifact-attached context."""

    def __init__(self, artifact_dir: Path) -> None:
        from repro.artifacts import ArtifactStore, ensure_artifact
        from repro.core.config import DEFAULT_CONFIG
        from repro.server.worker import DatabaseSpec, build_backend
        from repro.service import QueryService, ServiceConfig

        config = dataclasses.replace(DEFAULT_CONFIG, result_cache_size=DEFAULT_CACHE_SIZE)
        backend = build_backend(DatabaseSpec(kind="dataset", target=DATABASE))
        artifact = ensure_artifact(backend, ArtifactStore(str(artifact_dir)), config)
        self.service = QueryService(
            {DATABASE: backend},
            ServiceConfig(
                workers=1, queue_limit=0, top_k=TOP_K, translator=config,
                artifacts={DATABASE: artifact},
            ),
        )

    def serve(self, request) -> Answer:
        response = self.service.serve_inline(request.sf_sql, database=DATABASE)
        expanded = 0
        if response.translations:
            expanded = response.translations[0].stats.generator.get("expanded", 0)
        return Answer(
            response.ok, response.sql, "hit" if response.cached else "miss",
            expanded=expanded,
        )

    def memo(self) -> dict:
        return self.service.snapshot()["memo"][DATABASE]

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------


def _export(workdir: Path, tag: str) -> str:
    """A fresh SQLite copy of the courses database."""
    path = str(workdir / f"courses-{tag}.sqlite")
    export_to_sqlite(make_course_database(), path).close()
    return path


def _static_judge(workdir: Path):
    """One judge for data that never changes.  It runs on a SQLite copy:
    the same verdicts as the memory engine in half the time."""
    backend = SqliteBackend(_export(workdir, "judge"))
    judge = judging.Judge(backend.execute)
    for_epoch = lambda epoch: judge  # noqa: E731
    for_epoch.close = backend.close
    return for_epoch


class TranslateNovel:
    """Library ``translate`` over the memory backend, result cache off;
    every timed read is a variant the translator serving it has never
    seen."""

    name = "translate-novel"
    #: normalized timed reads per second of ``--seconds`` (the measured
    #: median rate)
    rate = 270
    backend_classes = (MemoryBackend,)
    cover_seed = "translate-novel-cover"
    #: request classes, fast to slow, by the memos a read missed
    classes = ["memo-hit", "map-miss", "network-miss"]

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def inputs(self, seed: int, seconds: int):
        """Warm-up: the shipped queries and a cover of every literal
        value; timed: distinct variants outside both, in seeded order.

        The cover is the same for every seed, so the ~2,150 variants
        left after it are too; the seed orders them, and the run reads
        as many of them as ``--seconds`` asks for, at most all but a
        part block.  Each slice is disjoint from the others.
        """
        space = variants.VariantSpace(make_course_database(), COURSE_QUERIES)
        cover, rest = variants.covering_split(
            variants.shuffled_keys(space, random.Random(self.cover_seed), exclude=space.originals)
        )
        random.Random(seed).shuffle(rest)
        warm = list(COURSE_QUERIES) + [space.variant(key) for key in cover]
        most = len(rest) // CYCLES // measure.BLOCK * measure.BLOCK
        size = min(_slice_reads(seconds, self.rate), most)
        return warm, [
            [space.variant(key) for key in rest[k * size : (k + 1) * size]] for k in range(CYCLES)
        ]

    def build(self, cycle: int):
        _fresh_process_caches()
        return _Translating(MemoryBackend(make_course_database()))

    def before_read(self, state, cycle: int):
        return None

    def judge_for(self):
        return _static_judge(self.workdir)


class WritesMixed(TranslateNovel):
    """``translate`` over SQLite while a second connection commits one
    insert every :data:`PERIOD` reads."""

    name = "writes-mixed"
    rate = 36
    backend_classes = (SqliteBackend,)
    #: reads between two commits
    PERIOD = 25

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self._writes: list = []
        self._database = make_course_database()

    def inputs(self, seed: int, seconds: int):
        """Warm-up: the shipped queries (the first write drops whatever
        more a warm-up would memoize); timed: as translate-novel, and
        one write per :data:`PERIOD` reads of each slice."""
        _, slices = super().inputs(seed, seconds)
        per_slice = len(slices[0]) // self.PERIOD
        writes = variants.make_writes(
            self._database, random.Random(f"writes-{seed}"), per_slice * CYCLES
        )
        self._writes = [writes[k * per_slice : (k + 1) * per_slice] for k in range(CYCLES)]
        return list(COURSE_QUERIES), slices

    def build(self, cycle: int):
        _fresh_process_caches()
        path = _export(self.workdir, f"round{cycle}")
        return _Translating(SqliteBackend(path), sqlite3.connect(path))

    def _write(self, connection, cycle: int, index: int) -> None:
        table, row = self._writes[cycle][index]
        connection.execute(variants.insert_sql(self._database, table), row)
        connection.commit()

    def before_read(self, state, cycle: int):
        """Commits the cycle's write ``g`` before read ``g * PERIOD``; a
        read's epoch is (cycle, writes seen)."""

        def before(index: int) -> tuple:
            if index % self.PERIOD == 0:
                self._write(state.writer, cycle, index // self.PERIOD)
            return cycle, index // self.PERIOD + 1

        return before

    def judge_for(self):
        """Replays each slice's writes in order on a fresh export, so
        every read is judged on the data it saw."""
        current: dict = {}

        def release() -> None:
            if current:
                current["writer"].close()
                current["backend"].close()
                current.clear()

        def for_epoch(epoch: tuple):
            cycle, seen = epoch
            if current.get("cycle") != cycle:
                release()
                path = _export(self.workdir, f"judge{cycle}")
                current.update(
                    cycle=cycle, applied=0, judge=None,
                    backend=SqliteBackend(path), writer=sqlite3.connect(path),
                )
            while current["applied"] < seen:
                self._write(current["writer"], cycle, current["applied"])
                current["applied"] += 1
                current["judge"] = None
            if current["judge"] is None:
                current["judge"] = judging.Judge(current["backend"].execute)
            return current["judge"]

        for_epoch.close = release
        return for_epoch


class ServeZipf:
    """``repro serve --dataset courses`` with one worker, the default
    256-entry result cache and a fresh artifact directory; reads drawn
    zipf(1.1) from 1,000 distinct variants."""

    name = "serve-zipf"
    rate = 260
    pool_size = 1000
    pool_seed = "serve-zipf-pool"
    zipf_s = 1.1
    warm_reads = 600
    classes = ["hit", "miss"]

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"artifacts-{self._dirs}"
        path.mkdir()
        return path

    def inputs(self, seed: int, seconds: int):
        """Warm-up: a cover of the pool's literal values, then zipf draws
        until the result cache is in steady state; timed: zipf draws.

        The pool and its rank order are the same for every seed; the
        seed draws the request sequence.  With a seeded pool the few
        variants at the head of the zipf ranks, which carry half of all
        reads, would move ``top1_correct`` by a quarter between seeds.
        """
        space = variants.VariantSpace(make_course_database(), COURSE_QUERIES)
        keys = variants.shuffled_keys(space, random.Random(self.pool_seed))
        keys = keys[: self.pool_size]
        pool = [space.variant(key) for key in keys]
        cover, _ = variants.covering_split(keys)
        size = _slice_reads(seconds, self.rate)
        draws = variants.zipf_draws(
            random.Random(seed), self.pool_size, self.warm_reads + CYCLES * size, self.zipf_s
        )
        warm = [space.variant(key) for key in cover]
        warm += [pool[i] for i in draws[: self.warm_reads]]
        timed = [pool[i] for i in draws[self.warm_reads :]]
        return warm, [timed[k * size : (k + 1) * size] for k in range(CYCLES)]

    def build(self, cycle: int):
        return _on_one_cpu(_Server(self.fresh_dir(), self.workdir))

    def before_read(self, state, cycle: int):
        return None

    def judge_for(self):
        return _static_judge(self.workdir)


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------


def _set_up(build: Callable, warm: list):
    """Build what serves the reads and warm it up.  Returns the state,
    the set-up's raw seconds (reference rounds excluded), the warm-up's
    normalization factor, and its record (request classes and memo
    counters)."""
    began = clock()
    state = build()
    try:
        warmed = closed_loop(state.serve, warm)
    except BaseException:
        state.close()
        raise
    took = clock() - began - warmed.reference_seconds()
    record = ([read.klass for read in warmed.reads], state.memo())
    return state, took, measure.speed([s for _, s in warmed.refs]), record


def _judge(workload, reads):
    for_epoch = workload.judge_for()
    try:
        return judging.judge_reads(reads, for_epoch)
    finally:
        close = getattr(for_epoch, "close", None)
        if close is not None:
            close()


def _same_answers(guard, phases) -> None:
    """Every read of one variant on unchanged data must get the same
    top-1, and every pass of one trace the same answers and classes."""
    for phase in phases:
        seen: dict = {}
        for read in phase.reads:
            if read.epoch is None and seen.setdefault(read.variant, read.top1) != read.top1:
                guard.failures.append(f"unstable top-1 for {read.variant.sf_sql}")
                break
    guard.same("top-1 answers", [[r.top1 for r in p.reads] for p in phases])
    guard.same("request classes", [[r.klass for r in p.reads] for p in phases])


def _verdict_notes(guard, workload, reads, verdict) -> tuple[list, bool]:
    counts = _class_counts(reads)
    guard.off_edges(counts, workload.classes)
    notes = [f"request classes: {counts}"]
    notes.append(
        f"error_rate {verdict.error_rate:.6f} ({verdict.failed} of "
        f"{verdict.attempted} reads failed)"
    )
    notes += [f"guard: {failure}" for failure in guard.failures]
    return notes, not guard.failures and verdict.failed == 0


def run_end_to_end(workload, seed: int, seconds: int, started: float) -> Outcome:
    """:data:`CYCLES` cycles of (set-up, timed slice); ``setup_s`` is the
    fixed part before the first cycle (imports, inputs) plus the median
    set-up round, i.e. process start to first timed read."""
    guard = measure.Guard()
    warm, slices = workload.inputs(seed, seconds)
    fixed = clock() - started
    setups, factors, records, phases, rss = [], [], [], [], []
    for cycle, part in enumerate(slices):
        state, took, factor, record = _set_up(lambda: workload.build(cycle), warm)
        try:
            before_read = workload.before_read(state, cycle)
            phases.append(closed_loop(state.serve, part, before_read))
            rss.append(state.peak_rss())
        finally:
            state.close()
        setups.append(took * factor)
        factors.append(factor)
        records.append(record)
    guard.same("warm-up classes and memo counters", records)
    reads = [read for phase in phases for read in phase.reads]
    _same_answers(guard, [measure.Phase(reads, [], [], [])])
    verdict = _judge(workload, reads)
    notes, correct = _verdict_notes(guard, workload, reads, verdict)
    summary = measure.latency_summary(phases)
    n = len(reads)
    blocks = n // measure.BLOCK
    metrics = {
        "latency_p50_ms": (summary["latency_p50_ms"], "ms", n),
        "latency_p99_ms": (summary["latency_p99_ms"], "ms", n),
        "throughput_qps": (summary["throughput_qps"], "reads/s", blocks),
        "top1_correct": (verdict.top1_correct, "share", n),
        "success_rate": (verdict.success_rate, "share", n),
        "setup_s": (fixed * factors[0] + statistics.median(setups), "s", CYCLES),
        "peak_rss_mb": (max(rss), "MB", CYCLES),
    }
    notes.append(
        f"raw (not normalized): p50 {summary['raw_p50_ms']:.3f} ms, p99 "
        f"{summary['raw_p99_ms']:.3f} ms, {summary['raw_qps']:.1f} reads/s; reference "
        f"round median {summary['reference_ms']:.3f} ms over {summary['references']} rounds"
    )
    notes.append(
        f"set-up rounds {[round(s, 3) for s in setups]} s (normalized) after "
        f"{fixed:.3f} s (raw) of imports and inputs"
    )
    return Outcome(metrics, verdict.attempted, verdict.failed, correct, notes)


def _unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "count"


def _mean_ms(values) -> float:
    return 1000.0 * statistics.fmean(values)


def _per_layer(spans: tracing.Tracer, traced: list, untraced: list) -> dict:
    """Per-read layer metrics from the traced passes, normalized by the
    reference rounds of those passes.

    ``trace_overhead`` compares each read's normalized time in the
    traced passes with the same read's in the untraced passes run
    alternately with them, and takes the median over reads.
    """
    reads = sum(len(phase.reads) for phase in traced)
    factor = measure.speed([s for phase in traced for _, s in phase.refs])
    metrics = {
        name: (value * factor if name.endswith("_ms") else value, _unit(name))
        for name, value in tracing.layer_metrics(spans, reads).items()
    }
    counters = traced[0].counters
    metrics.update(_context_metrics(counters["memo"]))
    metrics["core.mtjn.expanded"] = (counters["mtjn_expanded"] / len(traced[0].reads), "count")
    traced_mean = factor * 1000.0 * spans.root_seconds("read") / reads
    with_trace = [sum(times) for times in zip(*(p.normalized() for p in traced))]
    without = [sum(times) for times in zip(*(p.normalized() for p in untraced))]
    metrics["traced_latency_ms"] = (traced_mean, "ms")
    metrics["trace_overhead"] = (
        statistics.median(a / b for a, b in zip(with_trace, without)) - 1.0, "ratio"
    )
    metrics["server.http_ms"] = (0.0, "ms")
    metrics["server.supervisor_ms"] = (0.0, "ms")
    return metrics


def _dump(spans: tracing.Tracer, name: str, seed: int) -> str:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-{seed}.jsonl"
    spans.dump(str(path))
    return str(path.relative_to(ROOT))


def _pass(build: Callable, warm, timed, spans=None, points=(), before_read=None):
    """One pass over *timed* from a fresh set-up, traced when *spans*
    is given; the phase carries the memo delta of its timed reads."""
    state, _, _, _ = _set_up(build, warm)
    try:
        before = state.memo()
        if spans is not None:
            spans.install(points)
        try:
            phase = closed_loop(
                state.serve, timed, before_read and before_read(state), spans
            )
        finally:
            if spans is not None:
                spans.uninstall()
        phase.counters["memo"] = _memo_delta(before, state.memo())
    finally:
        state.close()
    return phase


def run_traced(workload, seed: int, seconds: int) -> Outcome:
    """Per-layer metrics: the first slice's requests, replayed untraced
    and traced alternately (untraced, traced, untraced, traced), each
    pass from a fresh set-up, so host drift hits both sides alike.

    serve-zipf first runs the HTTP pass and an in-process
    ``Supervisor.submit`` replay; its alternating passes are in-process
    ``QueryService.serve_inline`` replays.
    """
    guard = measure.Guard()
    warm, slices = workload.inputs(seed, seconds)
    timed = slices[0]
    spans = tracing.Tracer()
    passes = []
    if isinstance(workload, ServeZipf):
        judged = _pass(lambda: workload.build(0), warm, timed)
        submit = _pass(lambda: _on_one_cpu(_Supervised(workload.fresh_dir())), warm, timed)
        points = tracing.entry_points((Database,))

        def inline():
            _fresh_process_caches()
            return _on_one_cpu(_Inline(workload.fresh_dir()))

        for traced in (False, True, False, True):
            passes.append(_pass(inline, warm, timed, spans if traced else None, points))
        metrics = _per_layer(spans, passes[1::2], passes[0::2])
        rtt = _mean_ms(judged.normalized())
        submitted = _mean_ms(submit.normalized())
        worker = _mean_ms(
            e * f for e, f in zip(submit.counters["elapsed"], submit.factors())
        )
        metrics["server.http_ms"] = (rtt - submitted, "ms")
        metrics["server.supervisor_ms"] = (submitted - worker, "ms")
        # the chain: HTTP round trip with the worker's untraced time
        # replaced by the traced in-process replay of the same requests
        metrics["traced_latency_ms"] = (rtt - worker + metrics["traced_latency_ms"][0], "ms")
        phases = [judged, submit] + passes
    else:
        points = tracing.entry_points(workload.backend_classes)
        for traced in (False, True, False, True):
            passes.append(
                _pass(
                    lambda: workload.build(len(passes)), warm, timed,
                    spans if traced else None, points,
                    lambda state: workload.before_read(state, 0),
                )
            )
        metrics = _per_layer(spans, passes[1::2], passes[0::2])
        judged = passes[0]
        phases = passes
    guard.same("memo counters", [phase.counters for phase in passes])
    orphans = spans.orphans("read")
    if orphans:
        guard.failures.append(f"{orphans} spans lie outside any timed read")
    _same_answers(guard, phases)
    verdict = _judge(workload, judged.reads)
    notes, correct = _verdict_notes(guard, workload, judged.reads, verdict)
    notes.append(f"spans: {_dump(spans, workload.name, seed)}")
    n = len(timed)
    return Outcome(
        {name: (value, unit, n) for name, (value, unit) in metrics.items()},
        verdict.attempted, verdict.failed, correct, notes,
    )


def make(name: str, workdir: Path):
    if name == "serve-zipf":
        return ServeZipf(workdir)
    if name == "translate-novel":
        return TranslateNovel(workdir)
    if name == "writes-mixed":
        return WritesMixed(workdir)
    raise ValueError(f"unknown workload {name!r}")


def workdir() -> tempfile.TemporaryDirectory:
    """Scratch space inside the checkout (the benchmark writes nowhere
    else)."""
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=str(base))
