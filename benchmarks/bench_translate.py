"""Paired ratio gates for the warm translator, result cache and artifacts.

Each gate compares two passes timed inside one process, so host speed
cancels out of the ratio it bounds:

* ``--max-map-share`` / ``--max-network-share`` /
  ``--max-compose-share`` — a stage's share of a warm
  ``translate_many`` pass (a shared context warmed by full prior
  passes): the mapping memo, the memoized MTJN search and one compose
  call per block keep their stages small;
* ``--min-cache-speedup`` — a 50%-repeat mix (each query verbatim, then
  padded with blanks and a semicolon) served by a warmed translator with
  the result cache off and on; every cached-pass lookup must also hit
  (docs/CACHING.md);
* ``--max-artifact-cold-ratio`` — a fresh backend with cleared string
  caches attaches a warmed :mod:`repro.artifacts` file and serves the
  workload once, against a warm pass timed right after it
  (docs/ARTIFACTS.md).

That these paths answer exactly like the warm translator is checked in
tier-1 by ``tests/test_workload_parity.py``; this script only times
them.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_translate.py
    PYTHONPATH=src python benchmarks/bench_translate.py \
        --workloads textbook --max-artifact-cold-ratio 1.5
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import tempfile
import time
from typing import Callable

from repro import Database, SchemaFreeTranslator
from repro.artifacts import ArtifactStore, build_artifact, load_context
from repro.core.config import DEFAULT_CONFIG
from repro.core.similarity import clear_string_caches
from repro.datasets import make_course_database, make_movie_database
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

#: the stages with a share ratchet
STAGES = ("map", "network", "compose")


def warm_shares(database: Database, queries: list[str]) -> dict[str, float]:
    """Each gated stage's share of the last of five warm passes."""
    translator = SchemaFreeTranslator(database)
    translator.translate_many(queries, top_k=TOP_K)  # warm the context
    for _ in range(5):
        gc.collect()  # keep earlier passes' garbage out of the timing
        translator.translate_many(queries, top_k=TOP_K)
    stats = translator.last_translation_stats.as_dict()
    total = stats["total_seconds"]
    return {
        stage: stats["stages"].get(stage, 0.0) / total if total > 0 else 0.0
        for stage in STAGES
    }


def cache_speedup(
    database: Database, queries: list[str]
) -> tuple[float, float]:
    """(uncached / cached seconds, cached-pass hit rate) on the repeat
    mix, each stack timed after one warming pass over it."""
    mix = [form for query in queries for form in (query, f"  {query} ;")]
    seconds = []
    for cache in (0, len(mix) + 16):
        config = dataclasses.replace(DEFAULT_CONFIG, result_cache_size=cache)
        translator = SchemaFreeTranslator(database, config)
        translator.translate_many(mix, top_k=TOP_K)  # warm context + cache
        started = time.perf_counter()
        translator.translate_many(mix, top_k=TOP_K)
        seconds.append(time.perf_counter() - started)
    memo = translator.last_translation_stats.as_dict().get("memo", {})
    lookups = memo.get("result_hits", 0) + memo.get("result_misses", 0)
    hit_rate = memo.get("result_hits", 0) / lookups if lookups else 0.0
    uncached, cached = seconds
    return (uncached / cached if cached > 0 else float("inf")), hit_rate


def artifact_cold_ratio(
    factory: Callable[[], Database], queries: list[str]
) -> float:
    """(attach + one pass) on a fresh backend over a warm pass.

    Five trials, each a fresh backend with the string caches cleared,
    so every trial is honestly cold; each is followed by a warm pass
    over a separately warmed stack, which repopulated string caches
    leave genuinely hot.  The fastest of each side is compared, so a
    drifting machine skews both sides alike.
    """
    with tempfile.TemporaryDirectory() as directory:
        path = build_artifact(
            factory(), ArtifactStore(directory), warmup=queries,
            warmup_top_k=TOP_K,
        )
        warm = SchemaFreeTranslator(factory())
        warm.translate_many(queries, top_k=TOP_K)  # warm it
        cold_seconds = warm_seconds = float("inf")
        for _ in range(5):
            database = factory()
            clear_string_caches()
            gc.collect()  # keep earlier passes' garbage out of the timing
            started = time.perf_counter()
            context = load_context(path, database)
            attach = time.perf_counter() - started
            translator = SchemaFreeTranslator(database, context=context)
            started = time.perf_counter()
            translator.translate_many(queries, top_k=TOP_K)
            serve = time.perf_counter() - started
            cold_seconds = min(cold_seconds, attach + serve)
            gc.collect()
            started = time.perf_counter()
            warm.translate_many(queries, top_k=TOP_K)
            warm_seconds = min(warm_seconds, time.perf_counter() - started)
    return cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(WORKLOADS),
        default=["textbook", "sophisticated", "courses48"],
        help="workloads to benchmark (default: all)",
    )
    for stage, example in (("map", 0.15), ("network", 0.5), ("compose", 0.45)):
        parser.add_argument(
            f"--max-{stage}-share",
            type=float,
            default=None,
            metavar="FRACTION",
            help=f"fail when the {stage} stage takes more than this share "
            f"of the warm pass on any workload (e.g. {example})",
        )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail when the result cache speeds the repeat mix up by less "
        "than this factor, or misses a lookup, on any workload (e.g. 5.0)",
    )
    parser.add_argument(
        "--max-artifact-cold-ratio",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail when attaching an artifact and serving the workload "
        "once exceeds this multiple of a warm pass on any workload "
        "(e.g. 1.5)",
    )
    args = parser.parse_args(argv)

    failures = []
    for name in args.workloads:
        factory, workload = WORKLOADS[name]
        queries = [q.sf_sql or q.gold_sql for q in workload]
        database = factory()
        shares = warm_shares(database, queries)
        speedup, hit_rate = cache_speedup(database, queries)
        ratio = artifact_cold_ratio(factory, queries)
        print(
            f"{name:>14}: {len(queries):>2} queries  "
            + "  ".join(f"{stage} {shares[stage]:5.1%}" for stage in STAGES)
            + f"  result-cache {speedup:5.2f}x ({hit_rate:.0%} hits)"
            f"  artifact-cold {ratio:.2f}x warm"
        )
        for stage in STAGES:
            cap = getattr(args, f"max_{stage}_share")
            if cap is not None and shares[stage] > cap:
                failures.append(
                    f"{name}: {stage} stage is {shares[stage]:.0%} of warm "
                    f"translation time (> {cap:.0%})"
                )
        if args.min_cache_speedup is not None:
            if speedup < args.min_cache_speedup:
                failures.append(
                    f"{name}: result cache sped the repeat mix up only "
                    f"{speedup:.2f}x (< {args.min_cache_speedup:.1f}x)"
                )
            if hit_rate < 0.999:
                failures.append(
                    f"{name}: repeat mix hit rate {hit_rate:.1%}; padded "
                    "repeats must hit via canonicalization"
                )
        cap = args.max_artifact_cold_ratio
        if cap is not None and ratio > cap:
            failures.append(
                f"{name}: artifact-loaded cold translation is "
                f"{ratio:.2f}x warm (> {cap:.1f}x)"
            )
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
