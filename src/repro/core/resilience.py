"""Cooperative budgets and the degradation ladder for translation.

The MTJN search (§6.1) is worst-case exponential and the extended view
graph's view-instance enumeration is combinatorial, so a production
deployment needs every translation to run under an explicit *budget*: a
wall-clock deadline plus counters on mapping candidates and network
expansions.  Stages check the budget cooperatively in their hot loops and
raise :class:`BudgetExceeded` — a :class:`~repro.errors.ReproError` — when
it runs out, which the translator turns into a step down the two-rung
degradation ladder
(see ``translator.SchemaFreeTranslator._generate_networks``):

    full top-k MTJN search (:data:`FULL_TIME_FRACTION` of the time left)
      → greedy single join path (best mapping per tree)

Below ``greedy`` the translation is refused: a typed
:class:`BudgetExceeded` when the deadline left greedy no time, else a
``NoJoinNetworkError`` naming the trees it could not connect.  There is
no guessed answer.  Every translation starts at ``full``;
:func:`weaker_rung` is the one rung-order comparison.

``Budget.clock`` is injectable so tests (and the fault-injection harness
in ``repro.testing.faults``) can advance time deterministically.

Failures that survive past the ladder surface as typed
:class:`~repro.errors.ReproError` subclasses, which the CLI maps onto
process exit codes (0 ok, 2 syntax, 3 translation, 4 engine,
5 internal, 6 shed by admission control, 7 backend unavailable; 1 is an
unhandled crash outside the CLI's guard) — the full table with each
error class lives in :mod:`repro.service`'s module docstring.  When tracing is enabled
every rung attempt is a ``rung:<name>`` span recording its outcome
(``ok`` / ``budget-exhausted`` / ``no-network`` / ``disconnected``);
see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from ..errors import Diagnostic, ReproError

#: Names of the degradation-ladder rungs, strongest first.
LADDER = ("full", "greedy")

#: Share of the remaining time the full search may spend; the rest is
#: left for the greedy rung below it.
FULL_TIME_FRACTION = 0.55


def weaker_rung(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """The lower (weaker) of two ladder rungs; None means no opinion."""
    if a is None:
        return b
    if b is None:
        return a
    return a if LADDER.index(a) >= LADDER.index(b) else b


class BudgetExceeded(ReproError):
    """A translation stage ran out of wall-clock time or search quota."""


class Budget:
    """A cooperative translation budget.

    ``deadline`` is seconds of wall-clock time from construction;
    ``max_candidates`` bounds mapping/assignment candidates considered and
    ``max_expansions`` bounds join-network expansions.  ``None`` means
    unlimited.  Stages call :meth:`check` (time) and
    :meth:`charge_candidates` / :meth:`charge_expansions` (quota), all of
    which raise :class:`BudgetExceeded` once the budget is spent.

    Budgets are thread-safe: every budget and all of its :meth:`slice`
    descendants share one lock, so charging a child and noting the charge
    on its ancestors is a single atomic step.  Parent counter totals are
    therefore exact even when several worker threads hammer sliced
    children of the same request budget concurrently.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_candidates: Optional[int] = None,
        max_expansions: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        parent: Optional["Budget"] = None,
    ) -> None:
        self.clock = clock
        self.deadline = deadline
        self.max_candidates = max_candidates
        self.max_expansions = max_expansions
        self.started_at = clock()
        self.deadline_at = None if deadline is None else self.started_at + deadline
        self.candidates = 0
        self.expansions = 0
        self.exhausted_reason: Optional[str] = None
        #: instrumentation linkage: charges against a sliced child budget
        #: are *noted* on the parent's counters (without enforcing the
        #: parent's caps), so the top-level budget totals the work done
        #: across every degradation rung — TranslationStats reads it
        self._parent = parent
        #: one lock per slice family (the root allocates, children share)
        self._lock = threading.Lock() if parent is None else parent._lock

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @classmethod
    def unlimited(cls) -> "Budget":
        return cls()

    @property
    def is_exhausted(self) -> bool:
        return self.exhausted_reason is not None

    def elapsed(self) -> float:
        return self.clock() - self.started_at

    def remaining_time(self) -> Optional[float]:
        """Seconds left before the deadline, or None when unlimited."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - self.clock())

    def time_exceeded(self) -> bool:
        return self.deadline_at is not None and self.clock() >= self.deadline_at

    def snapshot(self) -> dict[str, Any]:
        return {
            "elapsed": round(self.elapsed(), 6),
            "deadline": self.deadline,
            "candidates": self.candidates,
            "max_candidates": self.max_candidates,
            "expansions": self.expansions,
            "max_expansions": self.max_expansions,
        }

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def check(self, stage: str) -> None:
        """Raise when the deadline has passed (or the budget was already
        marked exhausted, e.g. by fault injection)."""
        if self.exhausted_reason is not None:
            self._raise(stage, self.exhausted_reason)
        if self.time_exceeded():
            self.exhaust(stage, f"deadline of {self.deadline:.3f}s passed")

    def _note(self, candidates: int = 0, expansions: int = 0) -> None:
        """Count work charged to a child slice (never raises).

        Callers must hold the family lock; the whole ancestor chain
        shares it, so the recursion stays lock-free.
        """
        self.candidates += candidates
        self.expansions += expansions
        if self._parent is not None:
            self._parent._note(candidates, expansions)

    def charge_candidates(self, n: int = 1, stage: str = "map") -> None:
        """Charge *n* candidates, exactly as *n* one-candidate charges.

        Counting stops at the first unit that raises: the one past the
        cap, or — under a deadline, where every unit reads the clock —
        the first to find the time spent.  The counters, the raise point
        and the :class:`BudgetExceeded` diagnostic are those of the unit
        loop; without a deadline the units up to the cap are one step.
        """
        while n > 0:
            with self._lock:
                # a deadline reads the clock per unit, and a spent
                # budget raises on the first
                per_unit = (
                    self.deadline_at is not None
                    or self.exhausted_reason is not None
                )
                step = 1 if per_unit else n
                if self.max_candidates is not None:
                    room = self.max_candidates - self.candidates
                    step = min(step, max(1, room + 1))
                self.candidates += step
                if self._parent is not None:
                    self._parent._note(candidates=step)
                over = (
                    self.max_candidates is not None
                    and self.candidates > self.max_candidates
                )
                total = self.candidates
            n -= step
            if over:
                self.exhaust(
                    stage,
                    f"candidate budget exhausted "
                    f"({total} > {self.max_candidates})",
                )
            self.check(stage)

    def charge_expansions(self, n: int = 1, stage: str = "network") -> None:
        with self._lock:
            self.expansions += n
            if self._parent is not None:
                self._parent._note(expansions=n)
            over = (
                self.max_expansions is not None
                and self.expansions > self.max_expansions
            )
            total = self.expansions
        if over:
            self.exhaust(
                stage,
                f"expansion budget exhausted "
                f"({total} > {self.max_expansions})",
            )
        self.check(stage)

    def exhaust(self, stage: str, reason: str = "budget exhausted") -> None:
        """Mark the budget spent and raise.  Sticky: every later
        :meth:`check` re-raises, so a stage cannot limp past exhaustion."""
        self.exhausted_reason = reason
        self._raise(stage, reason)

    def _raise(self, stage: str, reason: str) -> None:
        raise BudgetExceeded(
            f"translation budget exceeded in stage {stage!r}: {reason}",
            diagnostic=Diagnostic(
                stage=stage,
                message=reason,
                candidates=self.candidates,
                detail=self.snapshot(),
            ),
        )

    # ------------------------------------------------------------------
    # sub-budgets (the full rung's time slice)
    # ------------------------------------------------------------------
    def slice(self, time_fraction: float = 1.0) -> "Budget":
        """A child budget spending a fraction of what remains.

        The child gets ``time_fraction`` of the remaining wall-clock time
        (never extending past the parent's own deadline) and fresh
        counters with the parent's caps.  The degradation ladder slices
        the incoming budget so that an exhausted full search always
        leaves time for the greedy rung below it.
        """
        remaining = self.remaining_time()
        return Budget(
            deadline=None if remaining is None else remaining * time_fraction,
            max_candidates=self.max_candidates,
            max_expansions=self.max_expansions,
            clock=self.clock,
            parent=self,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Budget(deadline={self.deadline}, "
            f"candidates={self.candidates}/{self.max_candidates}, "
            f"expansions={self.expansions}/{self.max_expansions})"
        )
