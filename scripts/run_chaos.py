"""CI entry point for the fault-tolerance chaos harness.

Four phases, one report (``CHAOS_report.json``):

* **parity** — with no faults injected, ``ResilientBackend(SqliteBackend)``
  must translate every workload query to *byte-identical* SQL as the bare
  backend (the armor may cost nothing when nothing fails);
* **matrix** — every (backend operation x fault kind) cell is injected
  into a Resilient/Faulty stack on a virtual clock and driven; every cell
  must end in a typed outcome (ok / retried / degraded / backend-error —
  never an unhandled crash) and the verdict must not depend on the retry
  jitter seed.  Seeded multi-fault schedules then run whole translations
  end-to-end under the same rule;
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
    PYTHONPATH=src python scripts/run_chaos.py --phases parity matrix
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable

from repro import Database
from repro.backends import MemoryBackend, ResilientBackend, SqliteBackend
from repro.backends.errors import BackendError
from repro.cli import exit_code_for
from repro.core import SchemaFreeTranslator
from repro.datasets import make_course_database, make_movie_database
from repro.engine.io import export_to_sqlite
from repro.errors import ReproError
from repro.testing import (
    BACKEND_OPS,
    EvolutionHarness,
    FaultInjector,
    FaultyBackend,
    standard_mutations,
    workload_pairs,
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


# ---------------------------------------------------------------------------
# phase 1: fault-free parity
# ---------------------------------------------------------------------------


def run_parity(sqlite_dir: Path) -> dict:
    """Byte-identical SQL from the armored and bare backends."""
    entries = {}
    total = mismatches = 0
    for name, (factory, queries) in WORKLOADS.items():
        database = factory()
        path = sqlite_dir / f"{name}.sqlite"
        export_to_sqlite(database, path).close()
        bare = SqliteBackend(path)
        armored = ResilientBackend(SqliteBackend(path))
        t_bare = SchemaFreeTranslator(bare)
        t_armored = SchemaFreeTranslator(armored)
        pairs = workload_pairs(queries)
        divergent = []
        for qid, sql in pairs:
            total += 1
            try:
                sql_bare = t_bare.translate_best(sql).sql
            except ReproError as exc:
                sql_bare = f"<{type(exc).__name__}>"
            try:
                sql_armored = t_armored.translate_best(sql).sql
            except ReproError as exc:
                sql_armored = f"<{type(exc).__name__}>"
            if sql_bare != sql_armored:
                mismatches += 1
                divergent.append(
                    {"qid": qid, "bare": sql_bare, "resilient": sql_armored}
                )
        entries[name] = {
            "pairs": len(pairs),
            "divergent": divergent,
            "degraded": armored.health.degraded,
        }
        status = "ok" if not divergent else "DIVERGE"
        print(f"parity {name:>14}: {len(pairs):>2} pairs  {status}")
    return {"ok": mismatches == 0, "total": total, "workloads": entries}


# ---------------------------------------------------------------------------
# phase 2: the fault matrix
# ---------------------------------------------------------------------------


def _drive(backend: ResilientBackend, op: str):
    if op == "reflect":
        return backend.catalog
    if op == "sample":
        return backend.column_values("movie", "title")
    if op == "execute":
        return backend.execute("SELECT title FROM movie")
    if op == "count":
        return backend.count("movie")
    if op == "version":
        return backend.data_version
    raise AssertionError(f"unknown op {op}")


def _run_cell(database: Database, op: str, kind: str, request_id: int):
    injector = FaultInjector()
    faulty = FaultyBackend(MemoryBackend(database), injector)
    armored = ResilientBackend(
        faulty,
        clock=injector.clock,
        sleep=injector.advance,
        request_id=request_id,
    )
    if kind == "error":
        faulty.inject_error(op, repeat=True)
    elif kind == "hang":
        faulty.inject_hang(op, seconds=3600.0, repeat=True)
    elif kind == "torn":
        faulty.inject_torn(op, repeat=True)
    elif kind == "partial-reflect":
        faulty.inject_partial_reflect(drop=1)
    try:
        _drive(armored, op)
    except BackendError as exc:
        return "backend-error", exit_code_for(exc)
    except Exception as exc:  # the matrix exists to catch exactly this — recorded so the run survives
        return f"unhandled:{type(exc).__name__}", exit_code_for(exc)
    if armored.health.degraded:
        return "degraded", 0
    if armored.health.retries:
        return "retried", 0
    return "ok", 0


def run_matrix() -> dict:
    database = make_movie_database()
    cells = {}
    ok = True
    for op in BACKEND_OPS:
        for kind in _KINDS_BY_OP[op]:
            outcomes = {
                _run_cell(database, op, kind, seed) for seed in JITTER_SEEDS
            }
            verdict, code = next(iter(outcomes))
            typed = not verdict.startswith("unhandled")
            stable = len(outcomes) == 1
            cell_ok = typed and stable
            ok = ok and cell_ok
            cells[f"{op}/{kind}"] = {
                "verdict": verdict,
                "exit_code": code,
                "seed_stable": stable,
                "ok": cell_ok,
            }
            flag = "ok" if cell_ok else "FAIL"
            print(f"matrix {op:>8}/{kind:<16} {verdict:<14} {flag}")
    schedules = {}
    for seed in SCHEDULE_SEEDS:
        injector = FaultInjector()
        faulty = FaultyBackend(MemoryBackend(database), injector)
        faulty.schedule_from_seed(seed)
        armored = ResilientBackend(
            faulty, clock=injector.clock, sleep=injector.advance
        )
        try:
            translator = SchemaFreeTranslator(armored)
            result = translator.translate_best(
                "SELECT title? WHERE year? > 1995"
            )
            armored.execute(result.query)
            outcome = "degraded" if armored.health.degraded else "ok"
            code = 0
        except ReproError as exc:
            outcome = f"typed-error:{type(exc).__name__}"
            code = exit_code_for(exc)
        except Exception as exc:  # an unhandled schedule is the failure being hunted — recorded so the run survives
            outcome = f"unhandled:{type(exc).__name__}"
            code = -1
            ok = False
        schedules[str(seed)] = {"outcome": outcome, "exit_code": code}
        print(f"matrix schedule seed={seed}: {outcome}")
    return {"ok": ok, "cells": cells, "schedules": schedules}


# ---------------------------------------------------------------------------
# phase 3: schema-evolution sweep
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
    """Phase 4: artifact corruption never changes an answer.

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
        choices=["parity", "matrix", "evolution", "artifacts"],
        default=["parity", "matrix", "evolution", "artifacts"],
        help="phases to run (default: all)",
    )
    parser.add_argument(
        "--output",
        default="CHAOS_report.json",
        help="where to write the JSON chaos report",
    )
    args = parser.parse_args(argv)

    report: dict = {}
    if "parity" in args.phases:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            report["parity"] = run_parity(Path(tmp))
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
