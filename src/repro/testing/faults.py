"""Deterministic fault injection for the translation pipeline.

A :class:`FaultInjector` is handed to ``SchemaFreeTranslator`` (the
``faults`` parameter); the translator calls :meth:`FaultInjector.fire`
at the entry of every pipeline stage (``parse``, ``map``, ``network``,
``compose``).  A registered fault then either

* **delays** — advances the injector's *virtual clock* by a fixed number
  of seconds.  Budgets built with ``clock=injector.clock`` observe the
  jump and hit their deadline deterministically, with no real sleeping,
  so budget-timeout paths are testable in microseconds;
* **errors** — raises a caller-supplied exception (or a default
  :class:`InjectedFault`) out of the stage; or
* **exhausts the budget** — calls ``Budget.exhaust`` on the active
  budget (or raises :class:`BudgetExceeded` directly when the stage runs
  unbudgeted).

Faults trigger on the *n*-th visit to their stage (``trigger``, 1-based)
and by default fire exactly once; ``repeat=True`` keeps firing from the
trigger-th visit onward, which is how tests starve every rung of the
degradation ladder at once.  Everything is counter-based — no wall
clocks or randomness — so injected runs are fully reproducible.

The virtual clock itself is a standalone, shareable
:class:`VirtualClock`: build one, hand it to ``FaultInjector(clock=...)``
*and* to any other clock-injected component (a
:class:`~repro.server.supervisor.Supervisor` heartbeat watchdog, the
query service's retry sleeper) and they all observe the same
timeline — one ``advance()`` moves every deadline, backoff schedule and
heartbeat decision in lockstep.  Before PR 8 the offset lived inside
each injector, so two components built with different injectors silently
drifted; sharing now takes one object instead of threading bound
methods.  ``VirtualClock(origin=None)`` detaches the clock from wall
time entirely (it reads 0.0 until advanced), which is what fully
deterministic watchdog tests want.

The injector is thread-aware: sites are keyed by their stable stage
name and the visit counter, the per-fault fired count, the fired log and
the virtual-clock offset are all updated under one lock.  When several
service workers hit the same site concurrently, exactly one of them
observes the trigger-th visit, so ``should_fire`` schedules (one firing
per once-only fault, total visit counts) stay deterministic even though
*which* worker draws the fault is scheduler-dependent.

The same discipline extends below the translator: :class:`FaultyBackend`
wraps any :class:`~repro.backends.base.Backend` and injects failures at
its five operation sites (``reflect`` / ``sample`` / ``execute`` /
``count`` / ``version``) — typed transient errors, hangs that advance
the shared virtual clock past a request's deadline, and torn (silently
truncated) row batches.  ``schedule_from_seed`` derives a reproducible
multi-fault schedule from one integer, which is how
``scripts/run_chaos.py`` sweeps the fault space deterministically
through :class:`~repro.service.QueryService`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.resilience import Budget, BudgetExceeded
from ..errors import Diagnostic, ReproError

#: Stages the translator announces to the injector, in pipeline order.
STAGES = ("parse", "map", "network", "compose")


class VirtualClock:
    """A monotonic clock whose time can be advanced manually.

    ``origin`` is the underlying time source (default
    ``time.monotonic``); readings are ``origin() + offset`` where the
    offset grows by :meth:`advance`.  With ``origin=None`` the clock is
    *purely* virtual: it reads ``0.0`` until advanced, so every timeout
    and backoff decision built on it is fully deterministic.

    One instance is safely shareable across components and threads —
    the offset is lock-protected — and the instance is itself callable,
    so it drops in anywhere a ``clock: Callable[[], float]`` is
    expected::

        clock = VirtualClock(origin=None)
        injector = FaultInjector(clock=clock)
        supervisor = Supervisor(specs, config, clock=clock)
        clock.advance(10.0)   # both observe the same jump
    """

    def __init__(self, origin=time.monotonic) -> None:
        self._origin = origin
        self._offset = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        base = self._origin() if self._origin is not None else 0.0
        with self._lock:
            return base + self._offset

    __call__ = now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        with self._lock:
            self._offset += seconds

    def reset(self) -> None:
        with self._lock:
            self._offset = 0.0

    @property
    def offset(self) -> float:
        with self._lock:
            return self._offset


class InjectedFault(ReproError):
    """Default exception raised by an ``error`` fault."""


@dataclass
class Fault:
    """One registered fault.

    ``kind`` is ``"delay"``, ``"error"`` or ``"budget"``; ``trigger`` is
    the 1-based stage-visit count on which it fires.
    """

    stage: str
    kind: str
    delay: float = 0.0
    error: Optional[Union[BaseException, type]] = None
    trigger: int = 1
    repeat: bool = False
    fired: int = 0

    def should_fire(self, visit: int) -> bool:
        if self.repeat:
            return visit >= self.trigger
        return visit == self.trigger and self.fired == 0


class FaultInjector:
    """Registry of faults plus the virtual clock they manipulate.

    Pass an existing :class:`VirtualClock` to share one timeline with
    other clock-injected components; by default each injector owns a
    private clock (the pre-PR-8 behaviour).
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self._faults: list[Fault] = []
        #: the shareable timeline behind :meth:`clock`/:meth:`advance`
        self.virtual_clock = clock if clock is not None else VirtualClock()
        self._lock = threading.Lock()
        self.visits: dict[str, int] = {}
        self.log: list[tuple[str, str]] = []  # (stage, kind) of fired faults

    # ------------------------------------------------------------------
    # virtual clock
    # ------------------------------------------------------------------
    def clock(self) -> float:
        """Monotonic clock including injected delays.  Pass as
        ``Budget(..., clock=injector.clock)`` to make delay faults count
        against deadlines deterministically."""
        return self.virtual_clock.now()

    def advance(self, seconds: float) -> None:
        """Advance the virtual clock directly.  Also what the query
        service uses as its backoff "sleep", so retry schedules are
        testable without wall-clock waiting."""
        self.virtual_clock.advance(seconds)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def inject(self, fault: Fault) -> Fault:
        if fault.stage not in STAGES:
            raise ValueError(
                f"unknown stage {fault.stage!r}; expected one of {STAGES}"
            )
        if fault.kind not in ("delay", "error", "budget"):
            raise ValueError(f"unknown fault kind {fault.kind!r}")
        self._faults.append(fault)
        return fault

    def inject_delay(
        self, stage: str, seconds: float, trigger: int = 1, repeat: bool = False
    ) -> Fault:
        return self.inject(
            Fault(stage, "delay", delay=seconds, trigger=trigger, repeat=repeat)
        )

    def inject_error(
        self,
        stage: str,
        error: Optional[Union[BaseException, type]] = None,
        trigger: int = 1,
        repeat: bool = False,
    ) -> Fault:
        return self.inject(
            Fault(stage, "error", error=error, trigger=trigger, repeat=repeat)
        )

    def inject_budget_exhaustion(
        self, stage: str, trigger: int = 1, repeat: bool = False
    ) -> Fault:
        return self.inject(Fault(stage, "budget", trigger=trigger, repeat=repeat))

    def reset(self) -> None:
        with self._lock:
            self._faults.clear()
            self.visits.clear()
            self.log.clear()
        # note: resets the (possibly shared) timeline too — a reset
        # mid-scenario would yank time backwards under other components
        self.virtual_clock.reset()

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def fire(self, stage: str, budget: Optional[Budget] = None) -> None:
        """Called by the translator at each stage entry.

        The visit bump, the should-fire decision, the fired count and
        the log append happen atomically under the injector's lock, so a
        once-only fault fires exactly once no matter how many threads
        race through its site.  Raising (and exhausting budgets) happens
        *outside* the lock — those paths call back into budget locks.
        """
        with self._lock:
            visit = self.visits.get(stage, 0) + 1
            self.visits[stage] = visit
            firing: list[Fault] = []
            for fault in self._faults:
                if fault.stage != stage or not fault.should_fire(visit):
                    continue
                fault.fired += 1
                self.log.append((stage, fault.kind))
                if fault.kind == "delay":
                    self.virtual_clock.advance(fault.delay)
                else:
                    firing.append(fault)
        for fault in firing:
            if fault.kind == "error":
                error = fault.error
                if error is None:
                    error = InjectedFault(
                        f"injected fault in stage {stage!r}",
                        diagnostic=Diagnostic(
                            stage=stage, message="injected fault"
                        ),
                    )
                elif isinstance(error, type):
                    error = error(f"injected fault in stage {stage!r}")
                raise error
            elif fault.kind == "budget":
                if budget is not None:
                    budget.exhaust(stage, "injected budget exhaustion")
                raise BudgetExceeded(
                    f"injected budget exhaustion in stage {stage!r}",
                    diagnostic=Diagnostic(
                        stage=stage, message="injected budget exhaustion"
                    ),
                )


# ---------------------------------------------------------------------------
# backend-layer chaos
# ---------------------------------------------------------------------------

#: Backend operation sites a fault can attach to.
BACKEND_OPS = ("reflect", "sample", "execute", "count", "version")

#: Fault kinds per site (``torn`` needs row batches).
BACKEND_FAULT_KINDS = ("error", "hang", "torn")

_KINDS_BY_OP = {
    "reflect": ("error", "hang"),
    "sample": ("error", "hang", "torn"),
    "execute": ("error", "hang", "torn"),
    "count": ("error", "hang"),
    "version": ("error", "hang"),
}


@dataclass
class BackendFault:
    """One registered backend fault.

    ``op`` is a :data:`BACKEND_OPS` site and ``kind`` one of
    :data:`BACKEND_FAULT_KINDS`; ``trigger``/``repeat`` follow
    :class:`Fault` semantics (1-based visit count, once by default).
    ``seconds`` is how far a ``hang`` advances the virtual clock.
    """

    op: str
    kind: str
    seconds: float = 0.0
    error: Optional[Union[BaseException, type]] = None
    trigger: int = 1
    repeat: bool = False
    fired: int = 0

    def should_fire(self, visit: int) -> bool:
        if self.repeat:
            return visit >= self.trigger
        return visit == self.trigger and self.fired == 0


class FaultyBackend:
    """A Backend wrapper that injects deterministic failures.

    Serve it through :class:`~repro.service.QueryService` built with the
    same :class:`FaultInjector` for chaos testing: hangs advance the
    shared virtual clock (so request deadlines run out with no real
    waiting), ``error`` faults raise :class:`~repro.backends.errors.
    TransientBackendError` by default (so the service's retry path is
    exercised), and ``torn`` faults silently truncate a row batch to its
    first half (what a connection dropped mid-fetch leaves behind).

    Fault accounting mirrors :class:`FaultInjector`: per-op visit
    counters and fired counts update under one lock, and every firing
    appends ``(op, kind)`` to :attr:`log`.
    """

    def __init__(self, inner, injector: Optional[FaultInjector] = None) -> None:
        from ..backends import as_backend

        self._inner = as_backend(inner)
        self.injector = injector if injector is not None else FaultInjector()
        self.kind = f"faulty[{self._inner.kind}]"
        self._faults: list[BackendFault] = []
        self._lock = threading.Lock()
        self.visits: dict[str, int] = {}
        self.log: list[tuple[str, str]] = []

    # -- registration ---------------------------------------------------
    def inject(self, fault: BackendFault) -> BackendFault:
        if fault.op not in BACKEND_OPS:
            raise ValueError(
                f"unknown backend op {fault.op!r}; expected one of {BACKEND_OPS}"
            )
        if fault.kind not in _KINDS_BY_OP[fault.op]:
            raise ValueError(
                f"fault kind {fault.kind!r} not valid for op {fault.op!r}; "
                f"expected one of {_KINDS_BY_OP[fault.op]}"
            )
        with self._lock:
            self._faults.append(fault)
        return fault

    def inject_error(
        self,
        op: str,
        error: Optional[Union[BaseException, type]] = None,
        trigger: int = 1,
        repeat: bool = False,
    ) -> BackendFault:
        return self.inject(
            BackendFault(op, "error", error=error, trigger=trigger, repeat=repeat)
        )

    def inject_hang(
        self, op: str, seconds: float, trigger: int = 1, repeat: bool = False
    ) -> BackendFault:
        return self.inject(
            BackendFault(op, "hang", seconds=seconds, trigger=trigger, repeat=repeat)
        )

    def inject_torn(
        self, op: str, trigger: int = 1, repeat: bool = False
    ) -> BackendFault:
        return self.inject(BackendFault(op, "torn", trigger=trigger, repeat=repeat))

    def schedule_from_seed(
        self, seed: int, faults: int = 3, hang_seconds: float = 120.0
    ) -> list[BackendFault]:
        """Register a reproducible pseudo-random fault schedule.

        ``random.Random(seed)`` draws ``faults`` (op, kind, trigger)
        cells — stdlib ``Random`` is stable across Python versions for a
        fixed seed, so a seed fully names a chaos scenario.  Hangs use
        *hang_seconds*, long enough to blow any request deadline on the
        virtual clock.
        """
        import random

        rng = random.Random(seed)
        registered = []
        for _ in range(faults):
            op = rng.choice(BACKEND_OPS)
            kind = rng.choice(_KINDS_BY_OP[op])
            trigger = rng.randint(1, 3)
            fault = BackendFault(op, kind, trigger=trigger)
            if kind == "hang":
                fault.seconds = hang_seconds
            registered.append(self.inject(fault))
        return registered

    def reset(self) -> None:
        with self._lock:
            self._faults.clear()
            self.visits.clear()
            self.log.clear()

    # -- firing ---------------------------------------------------------
    def _fire(self, op: str) -> list[BackendFault]:
        """Bump the op's visit counter and collect firing faults.

        Hangs advance the shared virtual clock inside the lock (like
        injector delays); error/torn faults are returned for the call
        site to apply, because applying them raises or needs the
        operation's data.
        """
        applying: list[BackendFault] = []
        with self._lock:
            visit = self.visits.get(op, 0) + 1
            self.visits[op] = visit
            for fault in self._faults:
                if fault.op != op or not fault.should_fire(visit):
                    continue
                fault.fired += 1
                self.log.append((op, fault.kind))
                if fault.kind == "hang":
                    self.injector.advance(fault.seconds)
                else:
                    applying.append(fault)
        for fault in applying:
            if fault.kind == "error":
                raise self._materialise_error(op, fault)
        return applying

    @staticmethod
    def _materialise_error(op: str, fault: BackendFault) -> BaseException:
        from ..backends.errors import TransientBackendError

        error = fault.error
        if error is None:
            return TransientBackendError(
                f"injected backend fault in op {op!r}",
                diagnostic=Diagnostic(
                    stage="backend", message="injected backend fault", token=op
                ),
            )
        if isinstance(error, type):
            return error(f"injected backend fault in op {op!r}")
        return error

    @staticmethod
    def _tear(rows: list) -> list:
        """What a torn batch leaves behind: the first half, silently."""
        return rows[: max(0, len(rows) // 2)]

    # -- Backend protocol -----------------------------------------------
    @property
    def catalog(self):
        self._fire("reflect")
        return self._inner.catalog

    @property
    def data_version(self) -> int:
        self._fire("version")
        return self._inner.data_version

    def count(self, relation_name: str) -> int:
        self._fire("count")
        return self._inner.count(relation_name)

    def column_values(self, relation_name: str, attribute_name: str) -> list:
        faults = self._fire("sample")
        values = self._inner.column_values(relation_name, attribute_name)
        for fault in faults:
            if fault.kind == "torn":
                values = self._tear(values)
        return values

    def execute(self, query):
        faults = self._fire("execute")
        result = self._inner.execute(query)
        for fault in faults:
            if fault.kind == "torn":
                from ..engine.executor import Result

                result = Result(result.columns, self._tear(list(result.rows)))
        return result

    def close(self) -> None:
        self._inner.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultyBackend({self._inner!r})"
