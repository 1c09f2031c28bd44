"""CI entry point for the serving-layer chaos harness.

Six phases, one report (``SERVER_report.json``), all driven against
*real* worker processes supervised on a deterministic virtual clock
(``auto_watchdog=False`` + manual ticks, so timeout and backoff
decisions never race wall time):

* **parity** — the full 95-query workload served through the
  supervised process pool must produce *byte-identical* SQL (and
  identical typed-error classes) to the in-process
  :class:`~repro.service.QueryService` baseline — process isolation
  may cost nothing when nothing fails;
* **cached** — the workload served twice so the second pass hits the
  workers' translation result cache (docs/CACHING.md): cached answers
  must stay byte-identical, the supervisor's ``repro_cache_*`` mirror
  counters must move, and after a ``kill -9`` the replacement worker
  must start with a *cold* cache — fresh translations, never a stale
  cached answer — while remaining byte-identical;
* **crash** — a worker is ``kill -9``-ed mid-request: the in-flight
  request must fail with a typed
  :class:`~repro.server.errors.WorkerCrashed` mapping to CLI exit
  code 8, the worker must restart within its backoff budget, and the
  full workload must then rerun byte-identically on the replacement;
* **hang** — a busy-hung worker (wedged mid-request) must be killed by
  the watchdog at the request timeout with a typed
  :class:`~repro.server.errors.WorkerTimeout`, and a deaf idle worker
  (answers nothing) must be killed via the heartbeat path;
* **drain** — a drain started while requests are queued and in flight
  must complete every admitted request (zero loss), refuse new work
  with a typed :class:`~repro.server.errors.ServerDraining`, and
  produce a final snapshot;
* **artifact** — with an artifact directory configured, the supervisor
  must publish exactly one translation-context artifact per shard
  (docs/ARTIFACTS.md) that *every* worker attaches — including the
  replacement spawned after a ``kill -9``, which must report the shared
  artifact in its ready frame and serve the workload byte-identically.

Run from the repository root::

    PYTHONPATH=src python scripts/run_server_chaos.py
    PYTHONPATH=src python scripts/run_server_chaos.py --phases parity crash
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from repro.cli import DATASETS, EXIT_WORKER, exit_code_for
from repro.server import (
    DatabaseSpec,
    ServerDraining,
    Supervisor,
    SupervisorConfig,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.service import QueryService, ServiceConfig
from repro.testing import VirtualClock, workload_pairs
from repro.workloads import (
    COURSE_QUERIES,
    SOPHISTICATED_QUERIES,
    TEXTBOOK_QUERIES,
)

#: workload name -> (shard/dataset name, workload queries)
WORKLOADS = {
    "textbook": ("movies", TEXTBOOK_QUERIES),
    "sophisticated": ("movies", SOPHISTICATED_QUERIES),
    "courses48": ("courses", COURSE_QUERIES),
}

SHARDS = {
    "movies": DatabaseSpec(kind="dataset", target="movies"),
    "courses": DatabaseSpec(kind="dataset", target="courses"),
}


def all_pairs() -> list[tuple[str, str, str]]:
    """Flatten the workloads to (qid, shard, sf_sql) triples."""
    triples = []
    for name, (shard, queries) in WORKLOADS.items():
        for qid, sf_sql in workload_pairs(queries):
            triples.append((f"{name}:{qid}", shard, sf_sql))
    return triples


def make_supervisor(metrics=None, **overrides):
    defaults = dict(
        workers_per_shard=1,
        chaos_hooks=True,
        auto_watchdog=False,
        queue_limit=256,
        restart_backoff_base=0.05,
        restart_backoff_cap=0.2,
        request_timeout=5.0,
        heartbeat_interval=1.0,
        heartbeat_timeout=5.0,
    )
    defaults.update(overrides)
    clock = VirtualClock(origin=None)
    supervisor = Supervisor(
        SHARDS, SupervisorConfig(**defaults), clock=clock, metrics=metrics
    )
    return supervisor, clock


def serve_workload(supervisor) -> list[tuple[str, str, str]]:
    """Every workload pair through the supervisor: (qid, sql, error)."""
    results = []
    for qid, shard, sf_sql in all_pairs():
        response = supervisor.submit(sf_sql, database=shard).result(
            timeout=120
        )
        results.append(
            (
                qid,
                response.sql or "",
                type(response.error).__name__ if response.error else "",
            )
        )
    return results


def wait_ready(supervisor, shard, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if supervisor.readiness()["shards"][shard]["workers"]["live"] >= 1:
            return True
        time.sleep(0.02)
    return False


def wait_pongs(supervisor, shard, timeout=60.0) -> bool:
    """Wait, in real time, until no worker of *shard* still owes a
    heartbeat pong.  The virtual clock jumps in no real time, so without
    this a healthy worker's pong races the next tick's heartbeat
    timeout, and a busy host loses the race."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = supervisor.snapshot()["shards"][shard]["workers"]
        if not any(worker["awaiting_pong"] for worker in workers):
            return True
        time.sleep(0.02)
    return False


def tick_and_settle(supervisor) -> None:
    """One watchdog pass, then a real-time wait for the idle courses
    worker to answer any ping it sent.  Whether that pong lands before
    the next pass decides whether the next pass pings again, so without
    the wait the report's ping count depends on thread scheduling."""
    supervisor.tick()
    wait_pongs(supervisor, "courses")


def restart_and_wait(supervisor, clock, shard) -> bool:
    clock.advance(1.0)
    tick_and_settle(supervisor)
    return wait_ready(supervisor, shard)


# ---------------------------------------------------------------------------
# phase 1: fault-free parity against the in-process baseline
# ---------------------------------------------------------------------------


def run_parity() -> dict:
    baseline: dict[str, tuple[str, str]] = {}
    for name, (shard, queries) in WORKLOADS.items():
        with QueryService(
            DATASETS[shard](), ServiceConfig(workers=1)
        ) as service:
            for qid, sf_sql in workload_pairs(queries):
                response = service.serve_inline(sf_sql)
                baseline[f"{name}:{qid}"] = (
                    response.sql or "",
                    type(response.error).__name__ if response.error else "",
                )
    supervisor, _ = make_supervisor()
    with supervisor:
        served = serve_workload(supervisor)
        snapshot = supervisor.snapshot()
    mismatches = [
        {"qid": qid, "served": [sql, err], "baseline": list(baseline[qid])}
        for qid, sql, err in served
        if (sql, err) != baseline[qid]
    ]
    ok = not mismatches and snapshot["stats"]["crashed"] == 0
    print(
        f"parity: {len(served)} queries, {len(mismatches)} mismatches "
        f"vs in-process baseline"
    )
    return {
        "ok": ok,
        "queries": len(served),
        "mismatches": mismatches,
        "stats": snapshot["stats"],
    }


# ---------------------------------------------------------------------------
# phase 1b: cached parity across a worker kill/restart
# ---------------------------------------------------------------------------


def run_cached() -> dict:
    """The translation result cache (docs/CACHING.md) under crash
    chaos: repeats must be served from the cache byte-identically, and
    a killed worker's replacement must start cold — correct bytes,
    never a stale cached answer."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    checks: dict[str, bool] = {}
    probe_query = "SELECT title? WHERE director_name? = 'James Cameron'"
    supervisor, clock = make_supervisor(metrics=registry)
    with supervisor:
        before = serve_workload(supervisor)
        second = serve_workload(supervisor)
        checks["repeat_pass_byte_identical"] = second == before
        first = supervisor.submit(probe_query, database="movies").result(
            timeout=60
        )
        repeat = supervisor.submit(probe_query, database="movies").result(
            timeout=60
        )
        checks["repeat_marked_cached"] = repeat.cached
        checks["cached_bytes_identical"] = repeat.sql == first.sql
        hits_before_kill = registry.counter(
            "repro_cache_hits_total"
        ).value(shard="movies")
        checks["supervisor_counts_hits"] = hits_before_kill > 0

        victim = supervisor.worker_pids("movies")[0]
        inflight = supervisor.submit("%sleep:30", database="movies")
        os.kill(victim, signal.SIGKILL)
        inflight.result(timeout=60)
        checks["restarted_within_budget"] = restart_and_wait(
            supervisor, clock, "movies"
        )
        # the replacement rebuilt its shard from the spec: its cache is
        # cold, so the first post-restart answer must be a fresh
        # translation (cached would mean stale state survived the kill)
        post = supervisor.submit(probe_query, database="movies").result(
            timeout=60
        )
        checks["replacement_starts_cold"] = not post.cached
        checks["replacement_bytes_identical"] = post.sql == first.sql
        after = serve_workload(supervisor)
        checks["byte_identical_after_restart"] = after == before
        stats = supervisor.snapshot()["stats"]
    cache_stats = {
        "hits": registry.counter("repro_cache_hits_total").value(
            shard="movies"
        )
        + registry.counter("repro_cache_hits_total").value(shard="courses"),
        "misses": registry.counter("repro_cache_misses_total").value(
            shard="movies"
        )
        + registry.counter("repro_cache_misses_total").value(
            shard="courses"
        ),
    }
    ok = all(checks.values())
    print(f"cached: {json.dumps(checks)}")
    return {"ok": ok, "checks": checks, "cache": cache_stats, "stats": stats}


# ---------------------------------------------------------------------------
# phase 2: kill -9 mid-request
# ---------------------------------------------------------------------------


def run_crash() -> dict:
    supervisor, clock = make_supervisor()
    checks: dict[str, bool] = {}
    with supervisor:
        before = serve_workload(supervisor)
        victim = supervisor.worker_pids("movies")[0]
        inflight = supervisor.submit("%sleep:30", database="movies")
        os.kill(victim, signal.SIGKILL)
        failed = inflight.result(timeout=60)
        checks["typed_worker_crashed"] = isinstance(
            failed.error, WorkerCrashed
        )
        checks["exit_code_8"] = exit_code_for(failed.error) == EXIT_WORKER
        checks["crash_event_recorded"] = (
            "crash",
            "movies",
            victim,
        ) in supervisor.events
        checks["restart_scheduled_with_backoff"] = any(
            e[0] == "restart-scheduled" and e[3] <= 0.2
            for e in supervisor.events
        )
        checks["restarted_within_budget"] = restart_and_wait(
            supervisor, clock, "movies"
        )
        checks["new_pid"] = supervisor.worker_pids("movies")[0] != victim
        after = serve_workload(supervisor)
        checks["byte_identical_after_restart"] = after == before
        stats = supervisor.snapshot()["stats"]
    ok = all(checks.values())
    print(f"crash: {json.dumps(checks)}")
    return {"ok": ok, "checks": checks, "stats": stats}


# ---------------------------------------------------------------------------
# phase 3: hung and deaf workers under the watchdog
# ---------------------------------------------------------------------------


def run_hang() -> dict:
    checks: dict[str, bool] = {}
    supervisor, clock = make_supervisor(request_timeout=5.0)
    with supervisor:
        wedged = supervisor.submit("%hang", database="movies")
        clock.advance(4.9)
        tick_and_settle(supervisor)
        checks["not_killed_inside_timeout"] = not wedged.done()
        clock.advance(0.2)
        tick_and_settle(supervisor)
        failed = wedged.result(timeout=60)
        checks["typed_worker_timeout"] = isinstance(
            failed.error, WorkerTimeout
        )
        checks["hang_exit_code_8"] = exit_code_for(failed.error) == EXIT_WORKER
        checks["hang_restart"] = restart_and_wait(supervisor, clock, "movies")

        # deaf: answers its request, then never reads another frame —
        # only the idle heartbeat path can catch it
        deaf_ok = supervisor.submit("%deaf", database="movies").result(
            timeout=60
        )
        checks["deaf_request_served"] = deaf_ok.ok
        clock.advance(1.1)
        supervisor.tick()  # ping goes out, into a deaf ear
        # the idle courses worker was pinged too; let it answer
        checks["healthy_worker_ponged"] = wait_pongs(supervisor, "courses")
        clock.advance(5.1)
        # no pong inside heartbeat_timeout: killed
        tick_and_settle(supervisor)
        checks["deaf_killed_by_heartbeat"] = supervisor.stats.timed_out == 2
        checks["deaf_restart"] = restart_and_wait(supervisor, clock, "movies")
        served = supervisor.submit(
            "SELECT name? WHERE director_name? = 'James Cameron'",
            database="movies",
        ).result(timeout=60)
        checks["serves_after_recoveries"] = served.ok
        stats = supervisor.snapshot()["stats"]
    ok = all(checks.values())
    print(f"hang: {json.dumps(checks)}")
    return {"ok": ok, "checks": checks, "stats": stats}


# ---------------------------------------------------------------------------
# phase 4: graceful drain under load
# ---------------------------------------------------------------------------


def run_drain() -> dict:
    checks: dict[str, bool] = {}
    supervisor, _ = make_supervisor(queue_limit=256)
    snapshot: dict = {}
    with supervisor:
        admitted = [supervisor.submit("%sleep:0.3", database="movies")]
        admitted += [
            supervisor.submit(sf_sql, database=shard)
            for _, shard, sf_sql in all_pairs()[:20]
        ]
        drainer = threading.Thread(
            target=lambda: snapshot.update(supervisor.drain())
        )
        drainer.start()
        while not supervisor.draining:
            time.sleep(0.005)
        refused = supervisor.submit(
            "SELECT name?", database="movies"
        ).result(timeout=10)
        checks["refusal_typed"] = isinstance(refused.error, ServerDraining)
        drainer.join(timeout=120)
        checks["drain_finished"] = not drainer.is_alive()
        resolved = [f.result(timeout=1) for f in admitted]
        checks["zero_admitted_lost"] = all(
            r.ok or not isinstance(r.error, (WorkerCrashed, WorkerTimeout))
            for r in resolved
        )
        checks["all_admitted_served"] = all(r.ok for r in resolved)
        checks["final_snapshot"] = "drain_seconds" in snapshot
        checks["refused_counted"] = snapshot["stats"]["refused"] == 1
    ok = all(checks.values())
    print(f"drain: {json.dumps(checks)}")
    return {"ok": ok, "checks": checks, "stats": snapshot.get("stats", {})}


def run_artifact() -> dict:
    """Phase 6: one artifact build serves the whole worker fleet.

    The supervisor publishes (or finds) one artifact per shard before
    spawning workers; every worker — first generation and the
    replacement after a ``kill -9`` alike — must attach it (reported in
    its ready frame and the snapshot) and serve byte-identically."""
    import tempfile

    from repro.artifacts import ArtifactStore

    checks: dict[str, bool] = {}
    with tempfile.TemporaryDirectory(prefix="repro-server-art-") as tmp:
        supervisor, clock = make_supervisor(
            workers_per_shard=2, artifact_dir=tmp
        )
        with supervisor:
            checks["one_artifact_per_shard"] = len(
                ArtifactStore(tmp).list()
            ) == len(SHARDS)
            checks["no_build_failures"] = not [
                event
                for event in supervisor.events
                if event[0] == "artifact-failed"
            ]
            snapshot = supervisor.snapshot()
            checks["every_worker_attached"] = all(
                worker["artifacts"] == [name]
                for name, shard in snapshot["shards"].items()
                for worker in shard["workers"]
            )
            before = serve_workload(supervisor)
            victim = supervisor.worker_pids("movies")[0]
            os.kill(victim, signal.SIGKILL)
            # tick until the death is noticed AND a second-generation
            # worker reports ready — only then is the fleet whole again
            deadline = time.monotonic() + 60.0
            replacements: list[dict] = []
            while time.monotonic() < deadline:
                clock.advance(0.5)
                supervisor.tick()
                workers = supervisor.snapshot()["shards"]["movies"][
                    "workers"
                ]
                replacements = [
                    worker
                    for worker in workers
                    if worker["generation"] > 0
                    and worker["state"] == "ready"
                ]
                if replacements:
                    break
                time.sleep(0.02)
            checks["restarted_within_budget"] = bool(replacements)
            checks["replacement_starts_from_artifact"] = bool(
                replacements
            ) and all(
                worker["artifacts"] == ["movies"] for worker in replacements
            )
            after = serve_workload(supervisor)
            checks["byte_identical_after_restart"] = after == before
    ok = all(checks.values())
    print(f"artifact: {json.dumps(checks)}")
    return {"ok": ok, "checks": checks}


PHASES = {
    "parity": run_parity,
    "cached": run_cached,
    "crash": run_crash,
    "hang": run_hang,
    "drain": run_drain,
    "artifact": run_artifact,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--phases",
        nargs="+",
        choices=sorted(PHASES),
        default=sorted(PHASES),
        help="which phases to run (default: all)",
    )
    parser.add_argument(
        "--out",
        default="SERVER_report.json",
        help="where to write the JSON server-chaos report",
    )
    args = parser.parse_args(argv)

    report: dict = {}
    for name in sorted(args.phases):
        report[name] = PHASES[name]()
    ok = all(phase["ok"] for phase in report.values())
    payload = {"ok": ok, **report}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"server chaos report written to {args.out}")
    if not ok:
        print("SERVER CHAOS FAILURE: a phase reported a violation")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
