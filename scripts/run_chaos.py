"""CI entry point for the fault-tolerance chaos harness.

Three phases, one report (``CHAOS_report.json``):

* **matrix** — every (backend operation x fault kind) cell is injected
  into a :class:`~repro.testing.FaultyBackend` and driven through the
  path that ships: ``QueryService(FaultyBackend(...),
  ServiceConfig(deadline=...), faults=injector)`` serving one request on
  the injector's virtual clock.  Every cell must end typed — an answer,
  or a failed response whose error ``exit_code_for`` maps to an exit
  code, never an exception out of the service — and its outcome must
  not depend on the retry jitter seed.  Seeded multi-fault schedules
  then serve a few requests each under the same rules;
* **evolution** — each workload replays across the standard schema
  mutations (rename table/column, split, merge, drop FK) and the report
  carries a per-mutation-class translation-stability score.  Stability
  below 1.0 is a measurement, not a failure; a query with no verdict is;
* **artifacts** — a published translation-context artifact is mutated
  every way a disk can betray it (truncations at several depths, seeded
  byte flips, a future format version, and re-signed bodies whose
  checksum matches but whose state does not decode) and each mutant must
  surface as a typed :class:`~repro.artifacts.ArtifactError` whose fallback
  context translates the workload byte-identically to a fresh build —
  a wrong answer or an unhandled exception fails the phase.

Run from the repository root::

    PYTHONPATH=src python scripts/run_chaos.py
    PYTHONPATH=src python scripts/run_chaos.py --phases matrix
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import Database
from repro.backends import MemoryBackend
from repro.cli import exit_code_for
from repro.core import SchemaFreeTranslator
from repro.datasets import make_course_database, make_movie_database
from repro.service import QueryService, RetryPolicy, ServiceConfig
from repro.testing import (
    BACKEND_OPS,
    EvolutionHarness,
    FaultInjector,
    FaultyBackend,
    VirtualClock,
    standard_mutations,
)
from repro.testing.faults import _KINDS_BY_OP
from repro.workloads import (
    COURSE_QUERIES,
    SOPHISTICATED_QUERIES,
    TEXTBOOK_QUERIES,
    WorkloadQuery,
)

WORKLOADS: dict[str, tuple[Callable[[], Database], list[WorkloadQuery]]] = {
    "textbook": (make_movie_database, TEXTBOOK_QUERIES),
    "sophisticated": (make_movie_database, SOPHISTICATED_QUERIES),
    "courses48": (make_course_database, COURSE_QUERIES),
}

JITTER_SEEDS = (0, 17, 4242)
SCHEDULE_SEEDS = range(8)

#: per-request deadline, in virtual seconds: a hang (an hour) spends it
DEADLINE = 5.0
HANG_SECONDS = 3600.0
CELL_QUERY = "SELECT title? WHERE year? > 1995"
SCHEDULE_QUERIES = (
    CELL_QUERY,
    "SELECT name? WHERE title? = 'Titanic'",
    CELL_QUERY,
)


# ---------------------------------------------------------------------------
# phase 1: the fault matrix, served
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeededRetry(RetryPolicy):
    """The default retry policy with its jitter keyed by *seed* as well
    as the request id, so one cell replays under several schedules."""

    seed: int = 0

    def backoff(self, request_id: int, attempt: int) -> float:
        return super().backoff(request_id + self.seed, attempt)


def _served_stack(database: Database, seed: int):
    """A QueryService over a FaultyBackend, both on one purely virtual
    clock (no wall time passes, and none leaks into a deadline)."""
    injector = FaultInjector(clock=VirtualClock(origin=None))
    backend = FaultyBackend(MemoryBackend(database), injector)
    service = QueryService(
        backend,
        ServiceConfig(deadline=DEADLINE, retry=SeededRetry(seed=seed)),
        faults=injector,
    )
    backend.reset()  # fault triggers count visits from the first request
    return service, backend


def _serve(service: QueryService, query: str) -> tuple:
    """One request's typed outcome: ``(verdict, exit code, retries)``."""
    try:
        response = service.serve_inline(query)
    except Exception as exc:  # the matrix exists to catch exactly this — recorded so the run survives
        return f"unhandled:{type(exc).__name__}", exit_code_for(exc), 0
    if not response.ok:
        verdict = f"failed:{type(response.error).__name__}"
        return verdict, exit_code_for(response.error), response.retries
    if response.retries:
        return "retried", 0, response.retries
    return ("degraded" if response.degraded else "ok"), 0, 0


def run_cell(database: Database, op: str, kind: str, seed: int) -> tuple:
    """Inject one fault kind at one operation on every visit after the
    service is built, and serve one request."""
    service, backend = _served_stack(database, seed)
    if kind == "error":
        backend.inject_error(op, repeat=True)
    elif kind == "hang":
        backend.inject_hang(op, seconds=HANG_SECONDS, repeat=True)
    elif kind == "torn":
        backend.inject_torn(op, repeat=True)
    with service:
        outcome = _serve(service, CELL_QUERY)
    if not backend.log:  # the served path never made the faulted call
        outcome = ("unreached",) + outcome[1:]
    return outcome


def run_schedule(database: Database, seed: int, jitter: int) -> list:
    """Serve :data:`SCHEDULE_QUERIES` under one seeded fault schedule."""
    service, backend = _served_stack(database, jitter)
    backend.schedule_from_seed(seed, hang_seconds=HANG_SECONDS)
    with service:
        return [
            list(_serve(service, query)[:2])
            for query in SCHEDULE_QUERIES
        ]


def _typed(verdict: str) -> bool:
    return not verdict.startswith("unhandled")


def run_matrix() -> dict:
    database = make_movie_database()
    cells = {}
    ok = True
    for op in BACKEND_OPS:
        for kind in _KINDS_BY_OP[op]:
            outcomes = {
                run_cell(database, op, kind, seed) for seed in JITTER_SEEDS
            }
            verdict, code, retries = next(iter(outcomes))
            stable = len(outcomes) == 1
            cell_ok = stable and all(_typed(o[0]) for o in outcomes)
            ok = ok and cell_ok
            cells[f"{op}/{kind}"] = {
                "verdict": verdict,
                "exit_code": code,
                "retries": retries,
                "seed_stable": stable,
                "ok": cell_ok,
            }
            flag = "ok" if cell_ok else "FAIL"
            print(f"matrix {op:>8}/{kind:<5} {verdict:<30} {flag}")
    schedules = {}
    for seed in SCHEDULE_SEEDS:
        runs = [run_schedule(database, seed, jitter) for jitter in JITTER_SEEDS]
        stable = all(run == runs[0] for run in runs)
        typed = all(_typed(verdict) for run in runs for verdict, _ in run)
        ok = ok and stable and typed
        schedules[str(seed)] = {
            "outcomes": runs[0],
            "seed_stable": stable,
            "ok": stable and typed,
        }
        verdicts = ", ".join(verdict for verdict, _ in runs[0])
        flag = "ok" if stable and typed else "FAIL"
        print(f"matrix schedule seed={seed}: {verdicts}  {flag}")
    return {"ok": ok, "cells": cells, "schedules": schedules}


# ---------------------------------------------------------------------------
# phase 2: schema-evolution sweep
# ---------------------------------------------------------------------------


def run_evolution() -> dict:
    entries = {}
    ok = True
    for name, (factory, queries) in WORKLOADS.items():
        database = factory()
        harness = EvolutionHarness(database, queries)
        report = harness.run(standard_mutations(database.catalog))
        ok = ok and report.ok
        entries[name] = report.as_dict()
        scores = ", ".join(
            f"{kind}={score}" for kind, score in report.by_class().items()
        )
        print(f"evolution {name:>12}: {scores}")
    return {"ok": ok, "workloads": entries}


def run_artifacts(artifact_dir: Path) -> dict:
    """Phase 3: artifact corruption never changes an answer.

    Every mutant of a published artifact must either load (the pristine
    copy) or surface as a typed :class:`ArtifactError` whose fallback
    context translates byte-identically to a fresh build."""
    import io
    import pickle
    import random
    import struct

    from repro.artifacts import (
        ArtifactError,
        ArtifactStore,
        build_artifact,
        load_or_build_context,
    )
    from repro.artifacts.format import sign

    factory, workload = WORKLOADS["textbook"]
    queries = [q.sf_sql or q.gold_sql for q in workload][:6]
    store = ArtifactStore(str(artifact_dir))
    path = build_artifact(factory(), store, warmup=queries)
    image = Path(path).read_bytes()
    baseline = [
        SchemaFreeTranslator(factory()).translate_best(query).sql
        for query in queries
    ]

    mutants: dict[str, bytes] = {"pristine": image}
    for fraction in (0.0, 0.05, 0.3, 0.7, 0.98):
        mutants[f"truncate-{fraction}"] = image[: int(len(image) * fraction)]
    rng = random.Random(0xA27)  # seeded: the same flips every run
    for position in sorted(rng.sample(range(len(image)), 12)):
        flipped = bytearray(image)
        flipped[position] ^= 0x55
        mutants[f"flip-{position}"] = bytes(flipped)
    skewed = bytearray(image)
    struct.pack_into("<H", skewed, 8, 0xFFFF)  # a future format version
    mutants["version-skew"] = bytes(skewed)
    # re-signed bodies: the checksum matches, so decoding must catch them
    prelude = len(sign(b""))

    def split(data: bytes) -> tuple[bytes, bytes]:
        stream = io.BytesIO(data)
        stream.seek(prelude)
        pickle.load(stream)  # the key tuple
        return data[prelude : stream.tell()], data[stream.tell() :]

    key, _ = split(image)
    foreign_store = ArtifactStore(str(artifact_dir / "foreign"))
    _, foreign = split(
        Path(build_artifact(make_course_database(), foreign_store)).read_bytes()
    )
    mutants["resigned-cut"] = sign(key)
    mutants["resigned-foreign"] = sign(key + foreign)
    mutants["resigned-type"] = sign(key + pickle.dumps(["not", "a", "state"]))

    entries = {}
    ok = True
    for label, data in mutants.items():
        target = artifact_dir / f"mutant-{label}.rpra"
        target.write_bytes(data)
        database = factory()
        try:
            context, error = load_or_build_context(database, str(target))
            translator = SchemaFreeTranslator(database, context=context)
            answers = [
                translator.translate_best(query).sql for query in queries
            ]
        except Exception as exc:  # an unhandled mutant is the failure being hunted — recorded so the run survives
            entries[label] = {"verdict": f"unhandled:{type(exc).__name__}"}
            ok = False
            print(f"artifacts {label:>16}: UNHANDLED {type(exc).__name__}")
            continue
        identical = answers == baseline
        verdict = (
            "loaded"
            if error is None
            else f"fallback:{type(error).__name__}"
        )
        if label == "pristine" and error is not None:
            ok = False  # the untouched file must load
        if error is not None and not isinstance(error, ArtifactError):
            ok = False  # fallback must be *typed*
        if not identical:
            ok = False
            verdict += ":WRONG-ANSWER"
        entries[label] = {"verdict": verdict, "identical": identical}
        flag = "ok" if identical else "FAIL"
        print(f"artifacts {label:>16}: {verdict:<28} {flag}")
    return {"ok": ok, "mutants": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--phases",
        nargs="+",
        choices=["matrix", "evolution", "artifacts"],
        default=["matrix", "evolution", "artifacts"],
        help="phases to run (default: all)",
    )
    parser.add_argument(
        "--output",
        default="CHAOS_report.json",
        help="where to write the JSON chaos report",
    )
    args = parser.parse_args(argv)

    report: dict = {}
    if "matrix" in args.phases:
        report["matrix"] = run_matrix()
    if "evolution" in args.phases:
        report["evolution"] = run_evolution()
    if "artifacts" in args.phases:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-art-") as tmp:
            report["artifacts"] = run_artifacts(Path(tmp))

    ok = all(phase["ok"] for phase in report.values())
    payload = {"ok": ok, **report}
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    if not ok:
        print("CHAOS FAILURE: a phase reported a violation (see report)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
