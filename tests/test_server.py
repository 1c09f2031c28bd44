"""Tests for the supervised multi-process serving layer.

The chaos scenarios (kill -9 mid-request, hung worker, deaf worker,
restart-budget exhaustion) are deterministic: the supervisor runs with
``auto_watchdog=False`` on a pure-virtual clock, so every timeout and
backoff decision happens exactly when the test advances the clock and
calls :meth:`Supervisor.tick` — no sleeps racing wall time.  The worker
processes themselves are real (``spawn``), as is the ``kill -9``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.cli import (
    DATASETS,
    EXIT_BACKEND,
    EXIT_TRANSLATION,
    EXIT_WORKER,
    exit_code_for,
)
from repro.errors import Diagnostic, ReproError
from repro.obs import MetricsRegistry
from repro.server import (
    DatabaseSpec,
    FrameError,
    ServerDraining,
    Supervisor,
    SupervisorConfig,
    WorkerCrashed,
    WorkerTimeout,
    decode_error,
    decode_frame,
    encode_error,
    encode_frame,
)
from repro.server.http import (
    HttpProtocol,
    ServerApp,
    _status_for,
    start_http_server,
)
from repro.service import ServiceConfig, ServiceOverloaded
from repro.service import QueryService
from repro.testing import FaultInjector, VirtualClock

CAMERON = "SELECT name? WHERE director_name? = 'James Cameron'"
HANKS = "SELECT title? WHERE actor?.name? = 'Tom Hanks'"
WORKLOAD = [CAMERON, HANKS, CAMERON]

MOVIES = DatabaseSpec(kind="dataset", target="movies")


def make_supervisor(databases=None, clock=None, **overrides):
    """A deterministic supervisor: manual watchdog, virtual clock."""
    defaults = dict(
        workers_per_shard=1,
        chaos_hooks=True,
        auto_watchdog=False,
        restart_backoff_base=0.05,
        restart_backoff_cap=0.2,
        request_timeout=5.0,
        heartbeat_interval=1.0,
        heartbeat_timeout=5.0,
    )
    defaults.update(overrides)
    clock = clock or VirtualClock(origin=None)
    supervisor = Supervisor(
        databases or {"movies": MOVIES},
        SupervisorConfig(**defaults),
        clock=clock,
    )
    return supervisor, clock


def wait_ready(supervisor, shard="movies", timeout=60.0):
    """Real-time wait for the shard to have a live ready worker."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = supervisor.readiness()["shards"][shard]
        if state["workers"]["live"] >= 1:
            return
        time.sleep(0.02)
    raise AssertionError(f"shard {shard} never became ready again")


def restart_and_wait(supervisor, clock, shard="movies"):
    """Advance past the backoff, spawn the replacement, await ready."""
    clock.advance(1.0)
    supervisor.tick()
    wait_ready(supervisor, shard)


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


class TestFrames:
    def test_roundtrip(self):
        frame = {"op": "query", "id": 7, "query": CAMERON, "top_k": 2}
        assert decode_frame(encode_frame(frame)) == frame

    def test_truncated_frame_fails_typed(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00")

    def test_length_mismatch_fails_typed(self):
        data = bytearray(encode_frame({"op": "ping"}))
        data[3] += 1  # lie about the length
        with pytest.raises(FrameError):
            decode_frame(bytes(data))

    def test_oversized_length_prefix_fails_before_allocating(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xff\xff\xff\xff" + b"x" * 8)

    def test_non_object_payload_fails_typed(self):
        body = json.dumps([1, 2]).encode()
        data = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError):
            decode_frame(data)

    def test_missing_op_fails_typed(self):
        body = json.dumps({"id": 1}).encode()
        data = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError):
            decode_frame(data)


class TestErrorWire:
    def test_typed_error_roundtrips_with_diagnostic(self):
        error = WorkerCrashed(
            "worker died",
            diagnostic=Diagnostic(
                stage="backend",
                message="boom",
                detail={"pid": 123},
            ),
        )
        decoded = decode_error(encode_error(error))
        assert isinstance(decoded, WorkerCrashed)
        assert str(decoded) == "worker died"
        assert decoded.diagnostic.stage == "backend"
        assert decoded.diagnostic.detail["pid"] == 123

    def test_unknown_type_falls_back_to_repro_error(self):
        decoded = decode_error({"type": "NoSuchError", "message": "m"})
        assert type(decoded) is ReproError
        assert str(decoded) == "m"

    def test_none_stays_none(self):
        assert decode_error(None) is None


# ---------------------------------------------------------------------------
# virtual clock sharing (satellite: one timeline across components)
# ---------------------------------------------------------------------------


class TestVirtualClockSharing:
    def test_injector_advances_are_visible_to_other_components(self):
        clock = VirtualClock(origin=None)
        injector = FaultInjector(clock=clock)
        assert clock.now() == 0.0
        injector.advance(2.5)
        assert clock.now() == 2.5
        clock.advance(0.5)
        assert injector.clock() == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(origin=None).advance(-1.0)

    def test_supervisor_accepts_shared_clock(self):
        clock = VirtualClock(origin=None)
        supervisor, _ = make_supervisor(clock=clock)
        assert supervisor.clock is clock.now or supervisor.clock() == 0.0


# ---------------------------------------------------------------------------
# exit codes and http status mapping
# ---------------------------------------------------------------------------


class TestFailureMapping:
    def test_worker_errors_exit_8(self):
        assert exit_code_for(WorkerCrashed("x")) == EXIT_WORKER == 8
        assert exit_code_for(WorkerTimeout("x")) == EXIT_WORKER

    def test_worker_errors_outrank_generic_translation(self):
        assert exit_code_for(ReproError("x")) == EXIT_TRANSLATION
        assert exit_code_for(WorkerCrashed("x")) != EXIT_TRANSLATION
        assert exit_code_for(WorkerCrashed("x")) != EXIT_BACKEND

    def test_http_status_mapping(self):
        assert _status_for(None) == 200
        assert _status_for(ServerDraining("d")) == 503
        assert _status_for(ServiceOverloaded("s")) == 429
        assert _status_for(WorkerCrashed("c")) == 500
        assert _status_for(WorkerTimeout("t")) == 500
        assert _status_for(ReproError("r")) == 400
        assert _status_for(RuntimeError("x")) == 500


class TestDatabaseSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DatabaseSpec(kind="oracle", target="x")

    def test_unknown_dataset_rejected_at_build(self):
        from repro.server import build_backend

        with pytest.raises(ValueError):
            build_backend(DatabaseSpec(kind="dataset", target="nope"))


# ---------------------------------------------------------------------------
# the supervisor, end to end (real worker processes)
# ---------------------------------------------------------------------------


class TestSupervisorServing:
    def test_serves_and_matches_in_process_baseline(self):
        supervisor, _ = make_supervisor()
        with supervisor:
            responses = supervisor.run(WORKLOAD, database="movies")
            snapshot = supervisor.snapshot()
        with QueryService(
            DATASETS["movies"](), ServiceConfig(workers=1)
        ) as service:
            baseline = [service.serve_inline(q) for q in WORKLOAD]
        assert [r.sql for r in responses] == [b.sql for b in baseline]
        assert all(r.worker_pid is not None for r in responses)
        assert snapshot["stats"]["submitted"] == len(WORKLOAD)
        assert not snapshot["readiness"]["shards"]["movies"]["down"]

    def test_unknown_database_raises_key_error(self):
        supervisor, _ = make_supervisor()
        with supervisor:
            with pytest.raises(KeyError):
                supervisor.submit(CAMERON, database="nope")

    def test_queue_overflow_sheds_typed(self):
        supervisor, _ = make_supervisor(queue_limit=0)
        with supervisor:
            blocker = supervisor.submit("%sleep:0.4", database="movies")
            shed = supervisor.submit(CAMERON, database="movies").result(
                timeout=30
            )
            assert isinstance(shed.error, ServiceOverloaded)
            assert shed.shed and shed.outcome == "shed"
            assert blocker.result(timeout=30).ok


class TestCrashIsolation:
    def test_kill9_mid_request_typed_failure_restart_byte_identical(self):
        supervisor, clock = make_supervisor()
        with supervisor:
            before = supervisor.run(WORKLOAD, database="movies")
            victim = supervisor.worker_pids("movies")[0]
            future = supervisor.submit("%sleep:30", database="movies")
            os.kill(victim, signal.SIGKILL)  # the actual kill -9
            failed = future.result(timeout=30)
            assert not failed.ok
            assert isinstance(failed.error, WorkerCrashed)
            assert failed.error.diagnostic.detail["shard"] == "movies"
            assert exit_code_for(failed.error) == EXIT_WORKER
            assert ("crash", "movies", victim) in supervisor.events
            # the restart obeys the backoff budget and the replacement
            # serves the same workload byte-identically
            restart_and_wait(supervisor, clock)
            assert supervisor.stats.restarts == 1
            replacement = supervisor.worker_pids("movies")[0]
            assert replacement != victim
            after = supervisor.run(WORKLOAD, database="movies")
        assert [r.sql for r in after] == [r.sql for r in before]
        assert all(r.ok for r in after)

    def test_crash_directive_is_indistinguishable_from_real_crash(self):
        supervisor, clock = make_supervisor()
        with supervisor:
            response = supervisor.submit("%crash", database="movies").result(
                timeout=30
            )
            assert isinstance(response.error, WorkerCrashed)
            assert supervisor.stats.crashed == 1
            restart_and_wait(supervisor, clock)
            assert supervisor.run([CAMERON], database="movies")[0].ok

    def test_crash_in_one_shard_leaves_other_serving(self):
        supervisor, clock = make_supervisor(
            databases={
                "movies": MOVIES,
                "courses": DatabaseSpec(kind="dataset", target="courses"),
            }
        )
        with supervisor:
            crash = supervisor.submit("%crash", database="movies").result(
                timeout=30
            )
            assert isinstance(crash.error, WorkerCrashed)
            readiness = supervisor.readiness()
            assert readiness["shards"]["courses"]["ready"]
            assert not readiness["shards"]["movies"]["ready"]
            ok = supervisor.submit(
                "SELECT title? WHERE dept_name? = 'CS'", database="courses"
            ).result(timeout=30)
            assert ok.error is None or not isinstance(
                ok.error, WorkerCrashed
            )


class TestWatchdog:
    def test_hung_worker_killed_after_request_timeout(self):
        supervisor, clock = make_supervisor(request_timeout=5.0)
        with supervisor:
            future = supervisor.submit("%hang", database="movies")
            clock.advance(4.9)
            supervisor.tick()
            assert not future.done()  # inside the timeout: left alone
            clock.advance(0.2)
            supervisor.tick()
            failed = future.result(timeout=30)
            assert isinstance(failed.error, WorkerTimeout)
            assert "request timeout" in str(failed.error)
            assert supervisor.stats.timed_out == 1
            restart_and_wait(supervisor, clock)
            assert supervisor.run([CAMERON], database="movies")[0].ok

    def test_deaf_idle_worker_killed_by_heartbeat(self):
        supervisor, clock = make_supervisor(
            heartbeat_interval=1.0, heartbeat_timeout=5.0
        )
        with supervisor:
            assert supervisor.submit("%deaf", database="movies").result(
                timeout=30
            ).ok
            clock.advance(1.1)
            supervisor.tick()  # sends the ping the deaf worker ignores
            assert supervisor.stats.pings == 1
            clock.advance(5.1)
            supervisor.tick()  # no pong inside the timeout: killed
            assert supervisor.stats.timed_out == 1
            assert any(e[0] == "timeout" for e in supervisor.events)
            restart_and_wait(supervisor, clock)
            assert supervisor.run([CAMERON], database="movies")[0].ok

    def test_healthy_idle_worker_answers_pings_and_survives(self):
        supervisor, clock = make_supervisor()
        with supervisor:
            assert supervisor.run([CAMERON], database="movies")[0].ok
            for _ in range(3):
                clock.advance(1.1)
                supervisor.tick()
                # real wait for the pong to come back before judging
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    shard = supervisor.snapshot()["shards"]["movies"]
                    if not shard["workers"][0]["awaiting_pong"]:
                        break
                    time.sleep(0.01)
            assert supervisor.stats.pings == 3
            assert supervisor.stats.timed_out == 0
            assert supervisor.run([CAMERON], database="movies")[0].ok


class TestRestartBudget:
    def test_crash_means_restart_not_pin_then_marks_shard_down(self):
        supervisor, clock = make_supervisor(
            max_restarts=2, restart_window=60.0
        )
        with supervisor:
            before = supervisor.run([CAMERON], database="movies")[0]
            assert before.ok and before.rung == "full"
            for expected_restarts in (1, 2):
                crash = supervisor.submit(
                    "%crash", database="movies"
                ).result(timeout=30)
                assert isinstance(crash.error, WorkerCrashed)
                restart_and_wait(supervisor, clock)
                assert supervisor.stats.restarts == expected_restarts
            # two crashes inside the budget cost two restarts, not a
            # cheaper translation: the replacement serves at full
            after = supervisor.run([CAMERON], database="movies")[0]
            assert after.ok
            assert after.rung == "full"
            assert after.sql == before.sql
            # the third crash exceeds max_restarts: the shard goes down
            crash = supervisor.submit("%crash", database="movies").result(
                timeout=30
            )
            assert isinstance(crash.error, WorkerCrashed)
            clock.advance(1.0)
            supervisor.tick()
            assert ("shard-down", "movies") in supervisor.events
            readiness = supervisor.readiness()
            assert readiness["shards"]["movies"]["down"]
            assert not readiness["shards"]["movies"]["ready"]
            # fail-fast: no queueing into a dead shard
            fast = supervisor.submit(CAMERON, database="movies").result(
                timeout=5
            )
            assert isinstance(fast.error, WorkerCrashed)
            assert "down" in str(fast.error)


class TestDrain:
    def test_drain_completes_admitted_work_and_refuses_new(self):
        supervisor, _ = make_supervisor(queue_limit=8)
        with supervisor:
            admitted = [
                supervisor.submit("%sleep:0.3", database="movies")
            ] + [
                supervisor.submit(q, database="movies") for q in WORKLOAD
            ]
            result_box = {}
            drainer = threading.Thread(
                target=lambda: result_box.update(supervisor.drain())
            )
            drainer.start()
            while not supervisor.draining:
                time.sleep(0.005)
            refused = supervisor.submit(CAMERON, database="movies").result(
                timeout=5
            )
            assert isinstance(refused.error, ServerDraining)
            drainer.join(timeout=60)
            assert not drainer.is_alive()
            # zero admitted requests lost: every future resolved, served
            for future in admitted:
                response = future.result(timeout=1)
                assert response.ok, response.error
            assert result_box["drain_seconds"] >= 0.0
            assert result_box["stats"]["refused"] == 1
            assert supervisor.closed
        # close() after drain() is an idempotent no-op
        supervisor.close()

    def test_snapshot_is_json_serialisable(self):
        supervisor, _ = make_supervisor()
        with supervisor:
            supervisor.run([CAMERON], database="movies")
            snapshot = supervisor.drain()
        json.dumps(snapshot)  # must not raise


# ---------------------------------------------------------------------------
# the asyncio HTTP front end
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


class TestHttpApp:
    def test_routes_and_drain_over_real_sockets(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        clock = VirtualClock(origin=None)
        supervisor = Supervisor(
            {"movies": MOVIES},
            SupervisorConfig(
                workers_per_shard=1, chaos_hooks=True, auto_watchdog=False
            ),
            clock=clock,
            metrics=registry,
        )
        supervisor.start()

        async def scenario():
            app = ServerApp(supervisor)
            server = await start_http_server(app, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]

            async def request(method, path, body=None):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                payload = b"" if body is None else json.dumps(body).encode()
                writer.write(
                    (
                        f"{method} {path} HTTP/1.1\r\n"
                        f"Host: t\r\nContent-Length: {len(payload)}\r\n"
                        "\r\n"
                    ).encode()
                    + payload
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, rest = raw.partition(b"\r\n\r\n")
                status = int(head.split()[1])
                return status, rest

            status, _ = await request("GET", "/healthz")
            assert status == 200
            status, body = await request("GET", "/readyz")
            assert status == 200 and json.loads(body)["ready"]
            status, body = await request(
                "POST",
                "/query",
                {"query": CAMERON, "database": "movies"},
            )
            doc = json.loads(body)
            assert status == 200 and doc["outcome"] == "ok"
            assert doc["sql"].startswith("SELECT")
            status, _ = await request("GET", "/metrics")
            assert status == 200
            status, _ = await request("GET", "/nope")
            assert status == 404
            status, _ = await request("POST", "/query", {"no": "query"})
            assert status == 400
            status, _ = await request(
                "POST", "/query", {"query": CAMERON, "database": "nope"}
            )
            assert status == 404

            # graceful drain: readyz flips 503, queries refuse 503,
            # the final snapshot arrives
            app.begin_drain()
            snapshot = await asyncio.wait_for(app.wait_drained(), timeout=60)
            assert snapshot["stats"]["completed"] >= 1
            status, body = await request("GET", "/readyz")
            assert status == 503
            assert json.loads(body)["draining"]
            server.close()
            await server.wait_closed()

        try:
            _run(scenario())
        finally:
            supervisor.close()

    def test_query_returns_500_for_worker_crash(self):
        supervisor, clock = make_supervisor()
        supervisor.start()

        async def scenario():
            app = ServerApp(supervisor)
            status, _, body = await app.dispatch(
                "POST",
                "/query",
                json.dumps(
                    {"query": "%crash", "database": "movies"}
                ).encode(),
            )
            doc = json.loads(body)
            assert status == 500
            assert doc["error_type"] == "WorkerCrashed"

        try:
            _run(scenario())
        finally:
            supervisor.close()


class TestPipelining:
    """Pipelined dispatch and frame coalescing under backlog."""

    def test_concurrent_batch_matches_sequential(self):
        supervisor, _ = make_supervisor(queue_limit=64)
        with supervisor:
            sequential = [
                supervisor.submit(q, database="movies").result(timeout=60)
                for q in WORKLOAD * 4
            ]
            futures = [
                supervisor.submit(q, database="movies")
                for q in WORKLOAD * 4
            ]
            batched = [f.result(timeout=60) for f in futures]
        for a, b in zip(sequential, batched):
            assert (a.sql, a.outcome) == (b.sql, b.outcome)

    def test_crash_fails_every_pipelined_request_typed(self):
        supervisor, clock = make_supervisor(queue_limit=64)
        with supervisor:
            victim = supervisor.worker_pids("movies")[0]
            # first request parks the worker; the rest ride the pipe
            futures = [supervisor.submit("%sleep:30", database="movies")]
            futures += [
                supervisor.submit(CAMERON, database="movies")
                for _ in range(4)
            ]
            os.kill(victim, signal.SIGKILL)
            resolved = [f.result(timeout=60) for f in futures]
            inflight_failures = [
                r for r in resolved
                if isinstance(r.error, WorkerCrashed)
            ]
            # the sleeper died in flight; pipelined riders either died
            # with it or were still queued and served by the restart
            assert inflight_failures
            assert all(
                r.ok or isinstance(r.error, WorkerCrashed)
                for r in resolved
            )
            assert supervisor.stats.crashed == 1

    def test_depth_one_is_strict_lockstep(self):
        supervisor, _ = make_supervisor(queue_limit=64, pipeline_depth=1)
        with supervisor:
            responses = supervisor.run(WORKLOAD * 2, database="movies")
        assert all(r.ok for r in responses)
        baseline, _ = make_supervisor(queue_limit=64)
        with baseline:
            expected = baseline.run(WORKLOAD * 2, database="movies")
        assert [r.sql for r in responses] == [r.sql for r in expected]


# ---------------------------------------------------------------------------
# admission checks, the one-loop front end, and the loop-owned supervisor
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_supervisor():
    """One started supervisor (private loop thread) for read-only tests."""
    supervisor, _ = make_supervisor(queue_limit=64)
    supervisor.start()
    yield supervisor
    supervisor.close()


def _query_body(**fields) -> bytes:
    return json.dumps({"query": CAMERON, "database": "movies", **fields}).encode()


class TestAdmissionChecks:
    """Bad /query input is refused at admission: 400, nothing reaches a
    worker, nothing crashes or restarts."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"deadline": "soon"},
            {"database": ["x"]},
            {"top_k": "abc"},
            {"top_k": -2},
            {"top_k": True},
        ],
        ids=["deadline-str", "database-list", "top_k-str", "top_k-negative",
             "top_k-bool"],
    )
    def test_bad_field_is_400_with_no_crash_or_restart(
        self, shared_supervisor, fields
    ):
        app = ServerApp(shared_supervisor)
        submitted = shared_supervisor.stats.submitted
        status, _, body = _run(
            app.dispatch("POST", "/query", _query_body(**fields))
        )
        assert status == 400
        assert json.loads(body)["error"].startswith("bad request body: ")
        assert shared_supervisor.stats.submitted == submitted
        assert shared_supervisor.stats.crashed == 0
        assert not any(
            e[0].startswith("restart") for e in shared_supervisor.events
        )
        # the worker is untouched and still serves
        assert shared_supervisor.submit(CAMERON, "movies").result(30).ok

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 0},
            {"deadline": 0.0},
            {"deadline": float("inf")},
            {"deadline": float("nan")},
            {"database": 3},
        ],
    )
    def test_library_submit_raises_value_error(self, shared_supervisor, kwargs):
        with pytest.raises(ValueError):
            shared_supervisor.submit(CAMERON, **{"database": "movies", **kwargs})

    def test_good_fields_pass(self, shared_supervisor):
        app = ServerApp(shared_supervisor)
        status, _, body = _run(
            app.dispatch(
                "POST", "/query", _query_body(top_k=2, deadline=30)
            )
        )
        assert status == 200, body


class _FakeTransport(asyncio.Transport):
    """Collects what an HttpProtocol writes; no socket."""

    def __init__(self):
        super().__init__()
        self.data = b""
        self.closed = asyncio.get_running_loop().create_future()

    def write(self, data):
        self.data += data

    def close(self):
        if not self.closed.done():
            self.closed.set_result(None)

    def is_closing(self):
        return self.closed.done()


def _status(raw: bytes) -> int:
    return int(raw.split(b" ", 2)[1])


class TestHttpProtocol:
    def test_request_split_at_every_byte_boundary(self, shared_supervisor):
        app = ServerApp(shared_supervisor)
        body = _query_body()
        raw = (
            b"POST /query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )

        async def feed(pieces) -> bytes:
            transport = _FakeTransport()
            protocol = HttpProtocol(app)
            protocol.connection_made(transport)
            for piece in pieces:
                protocol.data_received(piece)
            await asyncio.wait_for(transport.closed, timeout=30)
            return transport.data

        def answer(raw_response: bytes) -> tuple:
            doc = json.loads(raw_response.partition(b"\r\n\r\n")[2])
            return _status(raw_response), doc["outcome"], doc["sql"]

        async def scenario():
            expected = answer(await feed([raw]))
            assert expected[0] == 200
            splits = [[raw[:i], raw[i:]] for i in range(1, len(raw))]
            # the body alone, one byte at a time, after the whole head
            head = len(raw) - len(body)
            splits.append([raw[:head]] + [bytes([b]) for b in body])
            for pieces in splits:
                assert answer(await feed(pieces)) == expected, pieces

        _run(scenario())

    def _over_socket(self, app, steps):
        """Serve *app* on a real socket; run ``steps(port)``."""

        async def scenario():
            server = await start_http_server(app, host="127.0.0.1", port=0)
            try:
                await steps(server.sockets[0].getsockname()[1])
            finally:
                server.close()
                await server.wait_closed()

        _run(scenario())

    @staticmethod
    async def _exchange(port, data: bytes, close_write=False) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(data)
        await writer.drain()
        if close_write:
            writer.close()
            await writer.wait_closed()
            return b""
        raw = await asyncio.wait_for(reader.read(), timeout=30)
        writer.close()
        return raw

    async def _served(self, port) -> None:
        body = _query_body()
        raw = await self._exchange(
            port,
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body,
        )
        assert _status(raw) == 200

    def test_oversized_content_length_is_413_before_any_body(
        self, shared_supervisor
    ):
        from repro.server.http import MAX_BODY_BYTES

        submitted = shared_supervisor.stats.submitted

        async def steps(port):
            # no body byte is ever sent: the answer cannot have read one
            raw = await self._exchange(
                port,
                b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_BODY_BYTES + 1),
            )
            assert _status(raw) == 413
            assert b"Connection: close" in raw
            await self._served(port)

        self._over_socket(ServerApp(shared_supervisor), steps)
        assert shared_supervisor.stats.submitted == submitted + 1

    def test_client_closing_mid_body_gets_nothing_and_server_goes_on(
        self, shared_supervisor, caplog
    ):
        submitted = shared_supervisor.stats.submitted

        # the bytes that do arrive are a whole query, so a server that
        # served what it had at EOF would admit it
        cut = _query_body()

        async def steps(port):
            await self._exchange(
                port,
                b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (len(cut) + 10)
                + cut,
                close_write=True,
            )
            await asyncio.sleep(0.05)
            await self._served(port)

        with caplog.at_level("DEBUG", logger="asyncio"):
            self._over_socket(ServerApp(shared_supervisor), steps)
        assert not [r for r in caplog.records if r.levelno >= 30]
        # the cut request was never admitted; the next one was
        assert shared_supervisor.stats.submitted == submitted + 1

    def test_malformed_request_line_closes_unanswered(self, shared_supervisor):
        async def steps(port):
            assert await self._exchange(port, b"GARBAGE\r\n\r\n") == b""
            await self._served(port)

        self._over_socket(ServerApp(shared_supervisor), steps)


def _own_threads() -> set:
    return {t for t in threading.enumerate() if t.is_alive()}


TWO_SHARDS = {
    "movies": MOVIES,
    "courses": DatabaseSpec(kind="dataset", target="courses"),
}


class TestOneLoop:
    def test_started_supervisor_runs_at_most_one_thread(self):
        supervisor, _ = make_supervisor(
            databases=TWO_SHARDS, workers_per_shard=2, auto_watchdog=True
        )
        before = _own_threads()
        with supervisor:
            added = _own_threads() - before
            assert len(added) <= 1, added
            assert len(supervisor.worker_pids("movies")) == 2
            assert len(supervisor.worker_pids("courses")) == 2
            assert supervisor.run([CAMERON], database="movies")[0].ok
        assert not (_own_threads() - before)

    def test_supervisor_on_a_running_loop_adds_no_thread(self):
        supervisor, _ = make_supervisor(
            databases=TWO_SHARDS, workers_per_shard=2, auto_watchdog=True
        )

        async def scenario():
            before = _own_threads()
            await supervisor.astart()
            assert _own_threads() == before
            response = await supervisor.asubmit(CAMERON, "movies")
            assert response.ok
            assert _own_threads() == before
            snapshot = await supervisor.adrain()
            assert snapshot["stats"]["completed"] == 1
            assert _own_threads() == before

        _run(scenario())
        assert supervisor.closed

    def test_submit_from_eight_threads_matches_serial(self, shared_supervisor):
        queries = [CAMERON, HANKS] * 4
        serial = [
            shared_supervisor.submit(q, "movies").result(30) for q in queries
        ]
        answers = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def caller(index):
            barrier.wait(timeout=30)
            answers[index] = shared_supervisor.submit(
                queries[index], "movies"
            ).result(30)

        threads = [
            threading.Thread(target=caller, args=(i,))
            for i in range(len(queries))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert [(a.ok, a.sql) for a in answers] == [
            (s.ok, s.sql) for s in serial
        ]
        assert len({a.request_id for a in answers}) == len(queries)

    def test_drain_serves_a_queue_deeper_than_the_pipeline(self):
        supervisor, _ = make_supervisor(pipeline_depth=1, queue_limit=8)
        with supervisor:
            admitted = [supervisor.submit("%sleep:0.2", "movies")] + [
                supervisor.submit(q, "movies") for q in WORKLOAD * 2
            ]
            assert supervisor.readiness()["shards"]["movies"]["queued"] == 6
            snapshot = supervisor.drain()
        assert all(f.result(timeout=1).ok for f in admitted)
        assert snapshot["stats"]["completed"] == len(admitted)

    def test_watchdog_on_the_loop_kills_a_hung_worker(self):
        # the repeating call_later watchdog, on real time
        supervisor = Supervisor(
            {"movies": MOVIES},
            SupervisorConfig(
                chaos_hooks=True, request_timeout=0.3, tick_interval=0.01
            ),
        )
        with supervisor:
            failed = supervisor.submit("%hang", "movies").result(timeout=30)
            assert isinstance(failed.error, WorkerTimeout)
            assert supervisor.stats.timed_out == 1

    def test_serve_runs_supervisor_on_its_loop_and_drains_on_exit(self):
        from repro.server.http import serve

        supervisor, _ = make_supervisor()

        async def scenario():
            task = asyncio.get_running_loop().create_task(
                serve(supervisor, port=0, install_signals=False)
            )
            while not supervisor.readiness()["ready"]:
                await asyncio.sleep(0.02)
            assert threading.get_ident() == supervisor._loop_thread_id
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        _run(scenario())
        # cancelled serving still drains: the workers are gone
        assert supervisor.closed
        assert supervisor.snapshot()["shards"]["movies"]["workers"][0][
            "state"
        ] == "dead"


class TestStartup:
    BROKEN = {"broken": DatabaseSpec(kind="dataset", target="no-such-dataset")}

    def test_worker_dying_before_ready_fails_start_fast(self):
        # the worker's backend build raises, so it exits before "ready":
        # start() raises the typed crash, not a timeout 60 s later
        supervisor, _ = make_supervisor(self.BROKEN, workers_per_shard=2)
        began = time.monotonic()
        with pytest.raises(WorkerCrashed, match=r"worker broken/\d .*before ready"):
            supervisor.start()
        assert time.monotonic() - began < 10.0
        processes = [w.process for w in supervisor._shards["broken"].workers]
        supervisor.close()
        assert supervisor.closed
        assert not any(process.is_alive() for process in processes)

    def test_astart_raises_the_typed_crash(self):
        supervisor, _ = make_supervisor(self.BROKEN)

        async def scenario():
            with pytest.raises(WorkerCrashed):
                await asyncio.wait_for(supervisor.astart(), timeout=10.0)
            await supervisor.adrain()

        _run(scenario())
        assert supervisor.closed


class TestRequestMetrics:
    #: (shard, outcome, elapsed, cached) per finished request
    SEQUENCE = [
        ("movies", "ok", 0.004, False),
        ("movies", "ok", 0.0002, True),
        ("movies", "degraded", 0.03, False),
        ("courses", "ok", 0.0007, True),
        ("movies", "shed", None, None),
        ("courses", "worker-failed", 1.5, None),
        ("movies", "failed", None, None),
        ("movies", "ok", 7.0, True),
    ]
    #: /metrics after SEQUENCE, as rendered when every request looked
    #: its instruments up in the registry
    EXPECTED = """\
# HELP repro_cache_hits_total Translation result cache hits (canonical-fingerprint key)
# TYPE repro_cache_hits_total counter
repro_cache_hits_total{shard="courses"} 1
repro_cache_hits_total{shard="movies"} 2
# HELP repro_cache_misses_total Translation result cache misses
# TYPE repro_cache_misses_total counter
repro_cache_misses_total{shard="movies"} 2
# HELP repro_server_request_seconds Seconds from dispatch to result frame, per request
# TYPE repro_server_request_seconds histogram
repro_server_request_seconds_bucket{le="0.0005"} 1
repro_server_request_seconds_bucket{le="0.001"} 2
repro_server_request_seconds_bucket{le="0.0025"} 2
repro_server_request_seconds_bucket{le="0.005"} 3
repro_server_request_seconds_bucket{le="0.01"} 3
repro_server_request_seconds_bucket{le="0.025"} 3
repro_server_request_seconds_bucket{le="0.05"} 4
repro_server_request_seconds_bucket{le="0.1"} 4
repro_server_request_seconds_bucket{le="0.25"} 4
repro_server_request_seconds_bucket{le="0.5"} 4
repro_server_request_seconds_bucket{le="1"} 4
repro_server_request_seconds_bucket{le="2.5"} 5
repro_server_request_seconds_bucket{le="5"} 5
repro_server_request_seconds_bucket{le="+Inf"} 6
repro_server_request_seconds_sum 8.5349
repro_server_request_seconds_count 6
# HELP repro_server_requests_total Requests finished by the supervisor, by shard and outcome
# TYPE repro_server_requests_total counter
repro_server_requests_total{outcome="degraded",shard="movies"} 1
repro_server_requests_total{outcome="failed",shard="movies"} 1
repro_server_requests_total{outcome="ok",shard="courses"} 1
repro_server_requests_total{outcome="ok",shard="movies"} 3
repro_server_requests_total{outcome="shed",shard="movies"} 1
repro_server_requests_total{outcome="worker-failed",shard="courses"} 1
"""

    @staticmethod
    def counting(registry, monkeypatch) -> list:
        calls: list = []
        register = registry._register

        def counted(*args, **kwargs):
            calls.append(args[1])
            return register(*args, **kwargs)

        monkeypatch.setattr(registry, "_register", counted)
        return calls

    def test_instruments_bound_once_and_rendered_unchanged(
        self, monkeypatch
    ):
        registry = MetricsRegistry()
        supervisor = Supervisor(
            TWO_SHARDS, SupervisorConfig(auto_watchdog=False), metrics=registry
        )
        calls = self.counting(registry, monkeypatch)
        for request in self.SEQUENCE:
            supervisor._count_request(*request)
        assert calls == []
        assert registry.render_text() == self.EXPECTED

    def test_serving_registers_nothing(self, monkeypatch):
        registry = MetricsRegistry()
        supervisor = Supervisor(
            {"movies": MOVIES},
            SupervisorConfig(auto_watchdog=False),
            metrics=registry,
        )
        with supervisor:
            calls = self.counting(registry, monkeypatch)
            responses = supervisor.run(WORKLOAD * 3, database="movies")
            assert calls == []
        assert all(response.ok for response in responses)
        counter = registry.get("repro_server_requests_total")
        assert counter.value(shard="movies", outcome="ok") == len(responses)
