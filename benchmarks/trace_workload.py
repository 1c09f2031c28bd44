"""Run a workload through the query service with observability on.

This is the CI "observability" job's driver: it serves one of the
shipped workloads, query by query, through :meth:`repro.service.
QueryService.serve_inline` with a real tracer (JSONL exporter) and a
metrics registry attached, then writes both artifacts:

* ``TRACE_<workload>.jsonl`` — one finished span per line (validated
  against the span schema by ``scripts/check_trace.py``);
* ``METRICS_<workload>.json`` — the registry's JSON snapshot (same
  script validates names and shapes).

Run from the repository root::

    PYTHONPATH=src python benchmarks/trace_workload.py
    PYTHONPATH=src python benchmarks/trace_workload.py \
        --workload courses48 --deadline 1.0
"""

from __future__ import annotations

import argparse
import json
from typing import Callable

from repro import Database
from repro.datasets import make_course_database, make_movie_database
from repro.obs import JsonlExporter, MetricsRegistry, Tracer
from repro.service import QueryService, ServiceConfig
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="textbook",
        help="workload to run (default: textbook)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="per-request deadline in seconds (default: 2.0)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="span JSONL path (default: TRACE_<workload>.jsonl)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="metrics JSON path (default: METRICS_<workload>.json)",
    )
    args = parser.parse_args(argv)
    trace_path = args.trace_out or f"TRACE_{args.workload}.jsonl"
    metrics_path = args.metrics_out or f"METRICS_{args.workload}.json"

    factory, workload = WORKLOADS[args.workload]
    database = factory()
    queries = [q.sf_sql or q.gold_sql for q in workload]

    metrics = MetricsRegistry()
    with JsonlExporter(trace_path) as jsonl:
        tracer = Tracer(exporters=[jsonl])
        config = ServiceConfig(deadline=args.deadline)
        with QueryService(
            database, config, tracer=tracer, metrics=metrics
        ) as service:
            responses = [service.serve_inline(query) for query in queries]

    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump(metrics.snapshot(), handle, indent=2)
        handle.write("\n")

    outcomes: dict[str, int] = {}
    for response in responses:
        outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
    summary = "  ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    print(f"{args.workload}: {len(responses)} requests  {summary}")
    print(f"wrote {trace_path} and {metrics_path}")
    failed = outcomes.get("failed", 0) + outcomes.get("shed", 0)
    if failed:
        print(f"{failed} request(s) failed or were shed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
