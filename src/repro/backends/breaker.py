"""Per-backend circuit breaker over the degradation ladder.

Classic breakers fail fast when a dependency is down.  This one has a
cheaper option: the translator's degradation ladder (``full → greedy``)
means a database whose backend keeps failing can still be served, just
without the expensive top-k search.  The breaker therefore doesn't
reject requests — :class:`~repro.backends.ResilientBackend` reads its
state into ``start_advice``, the translator's start rung:

* **closed** — translation runs at full strength.
  ``failure_threshold`` consecutive terminal backend failures trip the
  breaker.
* **open** — the backend advises ``greedy``: the translator skips the
  full search instead of burning budget on a backend that keeps
  failing.  After ``cooldown`` seconds on the breaker's (injectable)
  clock, one operation is promoted to a **half-open probe**.
* **half-open** — the probe runs while the pin stays.  A clean probe
  closes the breaker; a failed probe re-opens it and restarts the
  cooldown.

All transitions are recorded in ``transitions`` (a ``(from, to,
reason)`` trace) so tests can assert the exact state machine walk, and
everything is lock-protected and clock-injected — no wall-clock sleeps
anywhere.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for one :class:`CircuitBreaker`."""

    #: consecutive terminal failures that trip the breaker
    failure_threshold: int = 3
    #: seconds (on the breaker's clock) before a half-open probe
    cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")


class CircuitBreaker:
    """Failure breaker for one backend."""

    def __init__(
        self,
        config: BreakerConfig = BreakerConfig(),
        clock: Callable[[], float] = time.monotonic,
        name: str = "default",
    ) -> None:
        self.config = config
        self.clock = clock
        self.name = name
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        #: (from_state, to_state, reason) transition trace
        self.transitions: list[tuple[str, str, str]] = []
        #: times the breaker tripped closed→open or half-open→open
        self.trip_count = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, to: str, reason: str) -> None:
        """Record a state change.  Caller holds the lock."""
        before = self._state
        self.transitions.append((before, to, reason))
        if to == OPEN:
            self.trip_count += 1
            self._opened_at = self.clock()
        self._state = to

    # ------------------------------------------------------------------
    def admit(self) -> bool:
        """Admission decision for one backend operation.

        Returns whether the operation is the half-open recovery probe
        (the caller must report the probe's outcome via :meth:`record`
        with ``probe=True``).  Every operation is admitted: the pin is
        read from :attr:`state` by ``ResilientBackend.start_advice``.
        """
        with self._lock:
            if self._state == CLOSED:
                return False
            if (
                self._state == OPEN
                and not self._probe_in_flight
                and self._opened_at is not None
                and self.clock() - self._opened_at >= self.config.cooldown
            ):
                self._transition(HALF_OPEN, "cooldown elapsed: probing")
                self._probe_in_flight = True
                return True
            if self._state == HALF_OPEN and not self._probe_in_flight:
                # previous probe completed without closing us (e.g. it
                # abstained): send another
                self._probe_in_flight = True
                return True
            return False

    def record(self, success: bool, probe: bool = False) -> None:
        """Report one finished backend operation.

        ``success`` means the operation returned; a failure is one that
        exhausted its retries.  Operations that failed for caller-side
        reasons (bad SQL, an unknown relation) should :meth:`abstain`
        instead — they say nothing about backend health.
        """
        with self._lock:
            if probe:
                self._probe_in_flight = False
            if success:
                if probe and self._state == HALF_OPEN:
                    self._transition(CLOSED, "probe succeeded")
                    self._consecutive_failures = 0
                elif self._state == CLOSED:
                    self._consecutive_failures = 0
                # only probes close: an operation succeeding while the
                # breaker is open is not evidence it recovered
            else:
                if probe and self._state == HALF_OPEN:
                    self._transition(OPEN, "probe failed: re-opening")
                elif self._state == CLOSED:
                    self._consecutive_failures += 1
                    if (
                        self._consecutive_failures
                        >= self.config.failure_threshold
                    ):
                        self._transition(
                            OPEN,
                            f"{self._consecutive_failures} consecutive failures",
                        )
                # failures while OPEN leave the state alone: the breaker
                # is already pinning

    def abstain(self, probe: bool = False) -> None:
        """Report an operation whose outcome says nothing about backend
        health (e.g. bad SQL): releases the probe slot, changes no
        state."""
        with self._lock:
            if probe:
                self._probe_in_flight = False

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trip_count": self.trip_count,
                "transitions": list(self.transitions),
            }
