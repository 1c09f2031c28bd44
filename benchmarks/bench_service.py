"""Throughput benchmark for the query service, in-process and pooled.

Runs the shipped workloads through :class:`repro.service.QueryService`,
one :meth:`~repro.service.QueryService.serve_inline` call after another
on this thread —

* **serial** — the result cache off, so the service machinery
  (admission, budgets, retries) and the full translator run per query;
* **cached** — the translation result cache on (docs/CACHING.md): the
  repeats of the workload must hit (``--min-cache-hit-rate``; CI pins
  0.25);
* **processes** (``--processes N``, optional) — the same workload
  through the supervised multi-process pool
  (:class:`repro.server.Supervisor`), measuring what crash isolation
  costs when nothing crashes.  Timing starts *after* the workers are
  built and ready — process spawn is a deployment cost, frame
  round-trips are the serving cost this pass measures.

Every cached and process-pool response is checked byte-for-byte against
its serial counterpart — caching and process isolation change
throughput, never results.  ``--max-process-overhead F`` turns the
fault-free process-pool overhead into a gate: exit nonzero when
``(process - serial) / serial`` exceeds ``F`` (CI pins 0.10), best of
three cold passes each.  The JSON report (per-workload timings plus the
full service snapshot: aggregate stats, context memo counters) is
written to ``SERVICE_stats.json``; CI uploads it as an artifact next to
``BENCH_translate.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py \
        --repeat 4 --output /tmp/service.json
    PYTHONPATH=src python benchmarks/bench_service.py \
        --processes 1 --max-process-overhead 0.10
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from typing import Callable

from repro import Database
from repro.core.config import DEFAULT_CONFIG
from repro.service import QueryService, ServiceConfig
from repro.workloads import (
    COURSE_QUERIES,
    SOPHISTICATED_QUERIES,
    TEXTBOOK_QUERIES,
    WorkloadQuery,
)
from repro.datasets import make_course_database, make_movie_database

#: workload name -> (database factory, query list)
WORKLOADS: dict[str, tuple[Callable[[], Database], list[WorkloadQuery]]] = {
    "textbook": (make_movie_database, TEXTBOOK_QUERIES),
    "sophisticated": (make_movie_database, SOPHISTICATED_QUERIES),
    "courses48": (make_course_database, COURSE_QUERIES),
}

#: cold passes per side when gating; the minimum is the gated number
GATE_RUNS = 3

#: workload name -> the dataset its worker processes rebuild
DATASET_OF = {
    "textbook": "movies",
    "sophisticated": "movies",
    "courses48": "courses",
}


def queries_of(workload: list[WorkloadQuery], repeat: int) -> list[str]:
    return [q.sf_sql or q.gold_sql for q in workload] * repeat


def run_service(
    database: Database, queries: list[str], cache: int = 0
) -> tuple[float, list, dict]:
    """Serve *queries* in order on a fresh service, on this thread."""
    config = ServiceConfig(
        translator=dataclasses.replace(DEFAULT_CONFIG, result_cache_size=cache)
    )
    with QueryService(database, config) as service:
        started = time.perf_counter()
        responses = [service.serve_inline(query) for query in queries]
        elapsed = time.perf_counter() - started
        snapshot = service.snapshot()
    return elapsed, responses, snapshot


def cache_hit_rate(snapshot: dict) -> float:
    """Result-cache hit rate aggregated over the snapshot's databases."""
    hits = misses = 0
    for memo in snapshot.get("memo", {}).values():
        hits += memo.get("result_hits", 0)
        misses += memo.get("result_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def run_processes(
    name: str, queries: list[str], processes: int
) -> tuple[float, list]:
    """The workload through the supervised process pool, timed after
    the workers are built and ready."""
    from repro.server import DatabaseSpec, Supervisor, SupervisorConfig

    shard = DATASET_OF[name]
    supervisor = Supervisor(
        {shard: DatabaseSpec(kind="dataset", target=shard)},
        SupervisorConfig(
            workers_per_shard=processes, queue_limit=len(queries)
        ),
    )
    with supervisor:
        started = time.perf_counter()
        responses = supervisor.run(queries, database=shard)
        elapsed = time.perf_counter() - started
    return elapsed, responses


def check_identical(serial: list, other: list, label: str) -> None:
    """Neither caching nor process isolation may change a byte."""
    for a, b in zip(serial, other):
        if a.sql != b.sql or a.outcome != b.outcome:
            raise AssertionError(
                f"{label} response diverged from serial for "
                f"{a.query!r}:\n  serial: {a.outcome} {a.sql}\n"
                f"  {label}: {b.outcome} {b.sql}"
            )


def bench_workload(name: str, repeat: int, processes: int = 0) -> dict:
    factory, workload = WORKLOADS[name]
    queries = queries_of(workload, repeat)
    serial_seconds, serial_responses, snapshot = run_service(
        factory(), queries
    )
    # the same repeated workload with the translation result cache on:
    # every repeat can hit, so the ideal rate is (repeat-1)/repeat
    cached_seconds, cached_responses, cached_snapshot = run_service(
        factory(), queries, cache=len(queries) + 16
    )
    check_identical(serial_responses, cached_responses, "cached")
    hit_rate = cache_hit_rate(cached_snapshot)
    row = {
        "queries": len(queries),
        "serial_seconds": round(serial_seconds, 4),
        "cached_seconds": round(cached_seconds, 4),
        "cache_hit_rate": round(hit_rate, 4),
        "identical": True,
        "snapshot": snapshot,
    }
    print(
        f"{name:>14}: {len(queries):>3} queries  "
        f"serial {serial_seconds:7.3f}s  "
        f"cached {cached_seconds:7.3f}s ({hit_rate:.0%} hits)"
    )
    if processes > 0:
        # the process pool against the serial in-process service: the
        # delta is what frames and process isolation cost; best-of-N,
        # interleaved, keeps scheduler noise out of the gated number
        best_serial = float("inf")
        proc_seconds = float("inf")
        proc_responses = None
        for _ in range(GATE_RUNS):
            best_serial = min(
                best_serial, run_service(factory(), queries)[0]
            )
            seconds, responses = run_processes(name, queries, processes)
            if proc_responses is None:
                proc_responses = responses
            proc_seconds = min(proc_seconds, seconds)
        check_identical(serial_responses, proc_responses, "process-pool")
        overhead = (
            (proc_seconds - best_serial) / best_serial
            if best_serial > 0
            else 0.0
        )
        row.update(
            processes=processes,
            best_serial_seconds=round(best_serial, 4),
            process_pool_seconds=round(proc_seconds, 4),
            process_overhead=round(overhead, 4),
            process_identical=True,
        )
        print(
            f"{'':>14}  serial {best_serial:7.3f}s  "
            f"x{processes} processes {proc_seconds:7.3f}s  "
            f"overhead {overhead:+7.1%}"
        )
    return row


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
        "--repeat",
        type=int,
        default=2,
        help="times each workload's query list is submitted",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="also run each workload through N supervised worker "
        "processes and report the fault-free overhead vs the serial "
        "in-process service (default: 0 = skip)",
    )
    parser.add_argument(
        "--max-process-overhead",
        type=float,
        default=None,
        metavar="F",
        help="fail (exit 1) if any workload's process-pool overhead "
        "exceeds this fraction (CI pins 0.10)",
    )
    parser.add_argument(
        "--min-cache-hit-rate",
        type=float,
        default=None,
        metavar="F",
        help="fail (exit 1) if the cached pass's result-cache hit rate "
        "falls below this fraction on any workload (with --repeat 2 "
        "the ideal is 0.5; CI pins 0.25)",
    )
    parser.add_argument(
        "--output",
        default="SERVICE_stats.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = {
        name: bench_workload(name, args.repeat, processes=args.processes)
        for name in args.workloads
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    if args.min_cache_hit_rate is not None:
        low = {
            name: row["cache_hit_rate"]
            for name, row in report.items()
            if row["cache_hit_rate"] < args.min_cache_hit_rate
        }
        if low:
            print(
                f"CACHE HIT-RATE GATE FAILED "
                f"(minimum {args.min_cache_hit_rate:.0%}): {low}"
            )
            return 1
        print(
            f"result-cache hit rate above {args.min_cache_hit_rate:.0%} "
            f"for all workloads"
        )
    if args.max_process_overhead is not None and args.processes > 0:
        over = {
            name: row["process_overhead"]
            for name, row in report.items()
            if row.get("process_overhead", 0.0) > args.max_process_overhead
        }
        if over:
            print(
                f"PROCESS-POOL OVERHEAD GATE FAILED "
                f"(limit {args.max_process_overhead:.0%}): {over}"
            )
            return 1
        print(
            f"process-pool overhead within {args.max_process_overhead:.0%} "
            f"for all workloads"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
