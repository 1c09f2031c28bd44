"""Cold-vs-warm translation benchmark for the shared TranslationContext.

Measures the translation hot path on the shipped workloads twice:

* **cold** — one fresh :class:`~repro.core.translator.SchemaFreeTranslator`
  per query with the process-global string-similarity caches cleared
  first, simulating a fresh process per query (the pre-context behavior);
* **warm** — a single translator whose :class:`TranslationContext` was
  warmed by one full prior pass over the workload, batch-translated via
  ``translate_many``.

Every warm translation is checked byte-for-byte against its cold
counterpart — the context memoizes, it must never change outcomes.
Results (per-workload timings, speedups, and the warm pass's memo
counters) are written to ``BENCH_translate.json``.  The warm pass's
stage shares back three ratchets: ``--max-network-share`` (memoized MTJN
search), ``--max-map-share`` (the per-fingerprint mapping memo) and
``--max-compose-share`` (one compose call per block).

The warm pass is also re-run with structured tracing *enabled* (a real
:class:`~repro.obs.Tracer` exporting into a ring buffer) to measure the
observability layer's overhead: ``traced_seconds`` /
``tracing_overhead`` land in the report, and the disabled path (the
default ``NULL_TRACER``) is compared against the committed baseline
``BENCH_translate.json`` — pass ``--max-regression 0.05`` to fail the
run when the tracing-disabled warm path regressed more than 5%.

A final warm pass pits a bare ``SqliteBackend`` against a fault-free
``ResilientBackend(SqliteBackend)`` on the same exported image: the
armor's translations must match byte-for-byte and
``--max-resilient-overhead 0.02`` fails the run when the wrapper costs
more than 2% on the happy path.

A **repeated-workload** pass measures the translation result cache
(docs/CACHING.md): every workload is expanded into a 50%-repeat mix
(each query once verbatim, once trivially rewritten) and served twice
by a shared translator with the cache off and on.  The cached steady
state must be at least ``--min-cache-speedup`` times faster, every
repeat — including the rewritten ones — must hit via canonical
fingerprints, and the cached translations are checked byte-for-byte
against the fresh ones.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_translate.py
    PYTHONPATH=src python benchmarks/bench_translate.py \
        --workloads textbook --output /tmp/bench.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from typing import Callable

from repro import Database, SchemaFreeTranslator
from repro.core.similarity import clear_string_caches
from repro.datasets import make_course_database, make_movie_database
from repro.obs import RingBufferExporter, Tracer
from repro.workloads import (
    COURSE_QUERIES,
    SOPHISTICATED_QUERIES,
    TEXTBOOK_QUERIES,
    WorkloadQuery,
)

#: workload name -> (database factory, query list)
WORKLOADS: dict[str, tuple[Callable[[], Database], list[WorkloadQuery]]] = {
    "textbook": (make_movie_database, TEXTBOOK_QUERIES),
    "sophisticated": (make_movie_database, SOPHISTICATED_QUERIES),
    "courses48": (make_course_database, COURSE_QUERIES),
}

TOP_K = 3


def queries_of(workload: list[WorkloadQuery]) -> list[str]:
    return [q.sf_sql or q.gold_sql for q in workload]


def check_generator_invariant(stats: dict) -> None:
    """Frontier accounting must be conservation-exact: every network
    pushed onto a search frontier is later expanded, pruned stale at pop
    time, or abandoned in the queue when the search ends.  A drift here
    means a counter is being double- or under-charged and the search
    telemetry can't be trusted."""
    generator = stats.get("generator") or {}
    if not generator:
        return
    pushed = generator.get("pushed", 0)
    accounted = (
        generator.get("expanded", 0)
        + generator.get("pruned", 0)
        + generator.get("leftover", 0)
    )
    if pushed != accounted:
        raise AssertionError(
            f"generator frontier accounting drifted: pushed={pushed} != "
            f"expanded + pruned + leftover = {accounted} ({generator})"
        )


def run_cold(
    database: Database, queries: list[str]
) -> tuple[float, list, dict]:
    """One fresh translator per query, string caches cleared each time.

    Cold translators see an empty network memo, so this pass is the one
    that exercises the full MTJN search — its aggregated generator
    counters (returned alongside the timings) are where the frontier
    invariant is meaningful per query.
    """
    results = []
    elapsed = 0.0
    generator_totals: dict[str, int] = {}
    for query in queries:
        clear_string_caches()
        translator = SchemaFreeTranslator(database)
        started = time.perf_counter()
        results.append(translator.translate(query, top_k=TOP_K))
        elapsed += time.perf_counter() - started
        stats = translator.last_translation_stats
        if stats is not None:
            as_dict = stats.as_dict()
            check_generator_invariant(as_dict)
            for key, value in as_dict.get("generator", {}).items():
                generator_totals[key] = generator_totals.get(key, 0) + value
    return elapsed, results, generator_totals


def run_warm(database: Database, queries: list[str]) -> tuple[float, list, dict]:
    """One shared translator; timed after a full warming pass.

    Median-of-5: this number is compared *across runs* by the
    ``--max-regression`` baseline gate, so it needs to be robust both
    to scheduler hiccups (which a single sample isn't) and to
    lucky-fast windows (which a min-of-N converges to) — the median is
    the one statistic stable against both tails.  Ratio gates measured
    *within* one run pair their own samples instead
    (``run_warm_resilient``, ``run_artifact_cold``).
    """
    translator = SchemaFreeTranslator(database)
    translator.translate_many(queries, top_k=TOP_K)  # warm the context
    times: list[float] = []
    results: list = []
    as_dict: dict = {}
    for _ in range(5):
        gc.collect()  # keep earlier passes' garbage out of the timing
        started = time.perf_counter()
        results = translator.translate_many(queries, top_k=TOP_K)
        times.append(time.perf_counter() - started)
        stats = translator.last_translation_stats
        as_dict = stats.as_dict() if stats is not None else {}
    check_generator_invariant(as_dict)
    return sorted(times)[len(times) // 2], results, as_dict


def run_warm_traced(
    database: Database, queries: list[str]
) -> tuple[float, list]:
    """The warm pass again, with tracing enabled into a ring buffer."""
    tracer = Tracer(exporters=[RingBufferExporter(capacity=4096)])
    translator = SchemaFreeTranslator(database, tracer=tracer)
    translator.translate_many(queries, top_k=TOP_K)  # warm the context
    started = time.perf_counter()
    results = translator.translate_many(queries, top_k=TOP_K)
    elapsed = time.perf_counter() - started
    return elapsed, results


def run_warm_reflected(
    database: Database, queries: list[str]
) -> tuple[float, list]:
    """The warm pass over a *reflected* SQLite catalog.

    The dataset is exported to an in-memory SQLite database and wrapped
    in :class:`~repro.backends.SqliteBackend`; the translator then sees
    only reflected metadata and backend-sampled statistics.  Timings
    show what catalog reflection + SELECT-based sampling cost relative
    to the native in-memory backend, and the results are checked
    byte-for-byte against the warm pass — reflection must not change a
    single translation.
    """
    from repro.backends import SqliteBackend
    from repro.engine.io import export_to_sqlite

    backend = SqliteBackend(export_to_sqlite(database, ":memory:"))
    translator = SchemaFreeTranslator(backend)
    translator.translate_many(queries, top_k=TOP_K)  # warm the context
    started = time.perf_counter()
    results = translator.translate_many(queries, top_k=TOP_K)
    elapsed = time.perf_counter() - started
    backend.close()
    return elapsed, results


def run_warm_resilient(
    database: Database, queries: list[str], repeats: int = 10
) -> tuple[float, float, list]:
    """The reflected warm pass with and without the resilience armor.

    Both stacks sit on the same exported SQLite image; the armored one
    wraps its backend in :class:`~repro.backends.ResilientBackend` with
    no faults anywhere in sight.  Timings are best-of-*repeats* with
    the stacks alternating back-to-back so noise hits both equally —
    the fault-free armor must be cheap enough to leave on in
    production, and its translations must match the bare backend
    byte-for-byte.  Per-workload ratios still carry a few percent of
    scheduler noise; the overhead gate therefore compares the *sums*
    across every benchmarked workload (see ``main``).
    """
    from repro.backends import ResilientBackend, SqliteBackend
    from repro.engine.io import export_to_sqlite

    bare = SqliteBackend(export_to_sqlite(database, ":memory:"))
    armored = ResilientBackend(
        SqliteBackend(export_to_sqlite(database, ":memory:"))
    )
    t_bare = SchemaFreeTranslator(bare)
    t_armored = SchemaFreeTranslator(armored)
    t_bare.translate_many(queries, top_k=TOP_K)  # warm both contexts
    t_armored.translate_many(queries, top_k=TOP_K)
    bare_seconds = armored_seconds = float("inf")
    results: list = []
    for _ in range(repeats):
        started = time.perf_counter()
        t_bare.translate_many(queries, top_k=TOP_K)
        bare_seconds = min(bare_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        results = t_armored.translate_many(queries, top_k=TOP_K)
        armored_seconds = min(armored_seconds, time.perf_counter() - started)
    bare.close()
    armored.close()
    return bare_seconds, armored_seconds, results


def run_artifact_cold(
    factory: Callable[[], Database], queries: list[str]
) -> tuple[float, float, list, float]:
    """Cold start through a :mod:`repro.artifacts` file.

    A builder process's context is warmed on the workload and published
    as an artifact; then a *fresh* backend (built again from the
    factory, process-level string caches cleared — the stand-in for a
    brand-new worker process) attaches the artifact and serves the
    workload once, timed.  Returns (attach seconds, serving seconds,
    results, warm reference seconds); the gate compares attach + serve
    against the warm reference — this is the ratio that makes
    per-request process fan-out viable.

    Attach + serve is measured five times (each trial a fresh backend
    with the string caches cleared, so every trial is honestly cold)
    and the fastest trial reported.  The denominator is measured here
    too, not taken from the earlier warm pass: each artifact trial is
    bracketed by a warm pass over a separately warmed stack, so the
    ratio is a paired comparison inside one time window — the
    ``run_warm_resilient`` trick — and a drifting machine skews both
    sides equally instead of just one.
    """
    import tempfile

    from repro.artifacts import ArtifactStore, build_artifact, load_context

    builder = factory()
    with tempfile.TemporaryDirectory() as directory:
        store = ArtifactStore(directory)
        path = build_artifact(
            builder, store, warmup=queries, warmup_top_k=TOP_K
        )
        warm_database = factory()
        warm_translator = SchemaFreeTranslator(warm_database)
        warm_translator.translate_many(queries, top_k=TOP_K)  # warm it
        warm_seconds = float("inf")
        best: tuple[float, float, list] | None = None
        for _ in range(5):
            database = factory()
            clear_string_caches()
            # earlier passes left a heap's worth of garbage; collect
            # outside the timed region so its pauses don't land inside
            # a tens-of-milliseconds measurement
            gc.collect()
            started = time.perf_counter()
            context = load_context(path, database)
            load_seconds = time.perf_counter() - started
            translator = SchemaFreeTranslator(database, context=context)
            started = time.perf_counter()
            results = translator.translate_many(queries, top_k=TOP_K)
            serve_seconds = time.perf_counter() - started
            if best is not None:
                check_identical(best[2], results)  # trials must agree
            if best is None or load_seconds + serve_seconds < (
                best[0] + best[1]
            ):
                best = (load_seconds, serve_seconds, results)
            # warm bracket second: the artifact serve just repopulated
            # the process-global string caches, so this measures a
            # genuinely hot stack, not one paying cache rebuild
            gc.collect()
            started = time.perf_counter()
            warm_translator.translate_many(queries, top_k=TOP_K)
            warm_seconds = min(warm_seconds, time.perf_counter() - started)
    return best + (warm_seconds,)


def repeat_mix(queries: list[str]) -> list[str]:
    """A 50%-repeat workload: each query once verbatim and once
    trivially rewritten (whitespace + trailing semicolon), interleaved.
    The rewritten form canonicalizes to the same fingerprint, so a
    result cache must serve the repeat without retranslating."""
    mix: list[str] = []
    for query in queries:
        mix.append(query)
        mix.append(f"  {query} ;")
    return mix


def run_repeated(
    database: Database, queries: list[str]
) -> tuple[float, float, list, list, dict]:
    """The 50%-repeat mix through a shared translator, cache off vs on.

    Both stacks get one warming pass over the mix (context memos hot in
    both; the cached stack's result cache populated) and are then timed
    over the same mix — the steady state of a server seeing repetitive
    traffic.  Returns (uncached seconds, cached seconds, uncached
    results, cached results, cached-pass stats)."""
    import dataclasses

    from repro.core.config import DEFAULT_CONFIG

    mix = repeat_mix(queries)
    plain = SchemaFreeTranslator(database)
    plain.translate_many(mix, top_k=TOP_K)  # warm the context
    started = time.perf_counter()
    fresh_results = plain.translate_many(mix, top_k=TOP_K)
    uncached_seconds = time.perf_counter() - started

    config = dataclasses.replace(
        DEFAULT_CONFIG, result_cache_size=len(mix) + 16
    )
    caching = SchemaFreeTranslator(database, config)
    caching.translate_many(mix, top_k=TOP_K)  # warm context + cache
    started = time.perf_counter()
    cached_results = caching.translate_many(mix, top_k=TOP_K)
    cached_seconds = time.perf_counter() - started
    stats = caching.last_translation_stats
    as_dict = stats.as_dict() if stats is not None else {}
    return (
        uncached_seconds,
        cached_seconds,
        fresh_results,
        cached_results,
        as_dict,
    )


def check_identical(cold: list, warm: list) -> None:
    """The context memoizes — it must never change a single byte."""
    for query_cold, query_warm in zip(cold, warm):
        cold_sql = [t.sql for t in query_cold]
        warm_sql = [t.sql for t in query_warm]
        if cold_sql != warm_sql:
            raise AssertionError(
                f"warm translation diverged from cold:\n"
                f"  cold: {cold_sql}\n  warm: {warm_sql}"
            )


def bench_workload(name: str) -> dict:
    factory, workload = WORKLOADS[name]
    database = factory()
    queries = queries_of(workload)
    cold_seconds, cold_results, cold_generator = run_cold(database, queries)
    warm_seconds, warm_results, warm_stats = run_warm(database, queries)
    check_identical(cold_results, warm_results)
    traced_seconds, traced_results = run_warm_traced(database, queries)
    check_identical(warm_results, traced_results)
    reflected_seconds, reflected_results = run_warm_reflected(
        database, queries
    )
    check_identical(warm_results, reflected_results)
    bare_seconds, resilient_seconds, resilient_results = run_warm_resilient(
        database, queries
    )
    check_identical(warm_results, resilient_results)
    (
        artifact_load_seconds,
        artifact_serve_seconds,
        artifact_results,
        artifact_warm_seconds,
    ) = run_artifact_cold(factory, queries)
    check_identical(warm_results, artifact_results)
    artifact_cold_seconds = artifact_load_seconds + artifact_serve_seconds
    artifact_cold_ratio = (
        artifact_cold_seconds / artifact_warm_seconds
        if artifact_warm_seconds > 0
        else float("inf")
    )
    (
        uncached_seconds,
        cached_seconds,
        fresh_results,
        cached_results,
        cached_stats,
    ) = run_repeated(database, queries)
    check_identical(fresh_results, cached_results)
    cache_memo = cached_stats.get("memo", {})
    cache_lookups = cache_memo.get("result_hits", 0) + cache_memo.get(
        "result_misses", 0
    )
    cache_hit_rate = (
        cache_memo.get("result_hits", 0) / cache_lookups
        if cache_lookups
        else 0.0
    )
    cache_speedup = (
        uncached_seconds / cached_seconds
        if cached_seconds > 0
        else float("inf")
    )
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    overhead = (
        traced_seconds / warm_seconds - 1.0 if warm_seconds > 0 else 0.0
    )
    resilient_overhead = (
        resilient_seconds / bare_seconds - 1.0 if bare_seconds > 0 else 0.0
    )
    row = {
        "queries": len(queries),
        "top_k": TOP_K,
        "cold_generator": cold_generator,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "traced_seconds": round(traced_seconds, 4),
        "tracing_overhead": round(overhead, 4),
        "reflected_seconds": round(reflected_seconds, 4),
        "resilient_bare_seconds": round(bare_seconds, 4),
        "resilient_seconds": round(resilient_seconds, 4),
        "resilient_overhead": round(resilient_overhead, 4),
        "speedup": round(speedup, 2),
        "artifact_load_seconds": round(artifact_load_seconds, 4),
        "artifact_cold_seconds": round(artifact_cold_seconds, 4),
        "artifact_warm_seconds": round(artifact_warm_seconds, 4),
        "artifact_cold_ratio": round(artifact_cold_ratio, 2),
        "repeated_uncached_seconds": round(uncached_seconds, 4),
        "repeated_cached_seconds": round(cached_seconds, 4),
        "cache_speedup": round(cache_speedup, 2),
        "cache_hit_rate": round(cache_hit_rate, 4),
        "identical": True,
        "warm_stats": warm_stats,
    }
    print(
        f"{name:>14}: {len(queries):>2} queries  "
        f"cold {cold_seconds:7.3f}s  warm {warm_seconds:7.3f}s  "
        f"traced {traced_seconds:7.3f}s ({overhead:+6.1%})  "
        f"sqlite-reflected {reflected_seconds:7.3f}s  "
        f"resilient {resilient_seconds:7.3f}s ({resilient_overhead:+6.1%})  "
        f"speedup {speedup:5.2f}x  "
        f"artifact-cold {artifact_cold_seconds:7.3f}s "
        f"({artifact_cold_ratio:.2f}x warm)  "
        f"result-cache {cache_speedup:5.2f}x "
        f"({cache_hit_rate:.0%} hits on the repeat mix)"
    )
    return row


def check_regression(
    report: dict, baseline_path: str, max_regression: float
) -> list[str]:
    """Compare tracing-disabled warm timings against the committed
    baseline; returns one message per workload that regressed more
    than ``max_regression`` (fraction, e.g. 0.05)."""
    if not os.path.exists(baseline_path):
        print(f"no baseline at {baseline_path}; skipping regression check")
        return []
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for name, row in report.items():
        base = baseline.get(name, {}).get("warm_seconds")
        if not base:
            continue
        regression = row["warm_seconds"] / base - 1.0
        print(
            f"{name:>14}: warm path {regression:+6.1%} vs baseline "
            f"({base:.3f}s -> {row['warm_seconds']:.3f}s)"
        )
        if regression > max_regression:
            failures.append(
                f"{name}: tracing-disabled warm path regressed "
                f"{regression:.1%} (> {max_regression:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(WORKLOADS),
        default=["textbook", "sophisticated", "courses48"],
        help="workloads to benchmark (default: all)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_translate.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_translate.json",
        help="baseline report to compare warm timings against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the tracing-disabled warm path is this much "
        "slower than the baseline (e.g. 0.05 for 5%%)",
    )
    parser.add_argument(
        "--max-resilient-overhead",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the fault-free ResilientBackend warm path is "
        "this much slower than the bare SQLite backend (e.g. 0.02 "
        "for 2%%)",
    )
    parser.add_argument(
        "--max-artifact-cold-ratio",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail when cold translation through a repro.artifacts file "
        "(attach + one workload pass on a fresh backend) exceeds this "
        "multiple of the warm pass on any workload (e.g. 1.5 — the "
        "ratchet holding artifact-based cold start eliminated)",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail when the translation result cache speeds the "
        "repeated-workload pass (50%% repeat mix, steady state) up by "
        "less than this factor on any workload (e.g. 5.0 for 5x)",
    )
    parser.add_argument(
        "--max-network-share",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the network stage takes more than this share of "
        "warm translation time on any benchmarked workload (e.g. 0.5 "
        "for 50%% — the ratchet holding the memoized MTJN search fast)",
    )
    parser.add_argument(
        "--max-map-share",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the map stage takes more than this share of warm "
        "translation time on any benchmarked workload (e.g. 0.15 — the "
        "ratchet holding a warm tree at one mapping-memo probe)",
    )
    parser.add_argument(
        "--max-compose-share",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail when the compose stage takes more than this share of "
        "warm translation time on any benchmarked workload (e.g. 0.45 — "
        "the ratchet holding a block's top-k networks at one shared "
        "name rewrite)",
    )
    args = parser.parse_args(argv)

    report = {name: bench_workload(name) for name in args.workloads}
    failures = []
    if args.max_regression is not None:
        failures = check_regression(
            report, args.baseline, args.max_regression
        )
    if args.max_resilient_overhead is not None:
        # aggregate across workloads: per-workload ratios carry a few
        # percent of scheduler noise that the sum averages away
        total_bare = sum(r["resilient_bare_seconds"] for r in report.values())
        total_armored = sum(r["resilient_seconds"] for r in report.values())
        aggregate = total_armored / total_bare - 1.0 if total_bare > 0 else 0.0
        print(
            f"fault-free ResilientBackend overhead (aggregate): "
            f"{aggregate:+.1%}"
        )
        if aggregate > args.max_resilient_overhead:
            failures.append(
                f"fault-free ResilientBackend overhead {aggregate:.1%} "
                f"(> {args.max_resilient_overhead:.0%} aggregated over "
                f"{', '.join(report)})"
            )
    if args.max_artifact_cold_ratio is not None:
        for name, row in report.items():
            print(
                f"{name:>14}: artifact-cold ratio "
                f"{row['artifact_cold_ratio']:.2f}x warm"
            )
            if row["artifact_cold_ratio"] > args.max_artifact_cold_ratio:
                failures.append(
                    f"{name}: artifact-loaded cold translation is "
                    f"{row['artifact_cold_ratio']:.2f}x warm "
                    f"(> {args.max_artifact_cold_ratio:.1f}x)"
                )
    if args.min_cache_speedup is not None:
        for name, row in report.items():
            if row["cache_speedup"] < args.min_cache_speedup:
                failures.append(
                    f"{name}: result cache sped the repeated workload up "
                    f"only {row['cache_speedup']:.2f}x "
                    f"(< {args.min_cache_speedup:.1f}x)"
                )
            if row["cache_hit_rate"] < 0.999:
                failures.append(
                    f"{name}: repeat mix hit rate "
                    f"{row['cache_hit_rate']:.1%} — rewritten repeats "
                    "must hit via canonicalization"
                )
    for stage, cap in (
        ("network", args.max_network_share),
        ("map", args.max_map_share),
        ("compose", args.max_compose_share),
    ):
        if cap is None:
            continue
        for name, row in report.items():
            stats = row.get("warm_stats") or {}
            total = stats.get("total_seconds", 0.0)
            seconds = stats.get("stages", {}).get(stage, 0.0)
            share = seconds / total if total > 0 else 0.0
            print(f"{name:>14}: {stage} stage {share:.1%} of warm time")
            if share > cap:
                failures.append(
                    f"{name}: {stage} stage is {share:.0%} of warm "
                    f"translation time (> {cap:.0%})"
                )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
