"""Retry policy: exponential backoff with deterministic jitter.

Transient faults — injected transport hiccups, flaky stage errors — are
worth one or two cheap retries; everything else (syntax errors, budget
exhaustion, genuine translation failures) is not, because retrying can
only reproduce the same deterministic outcome.  The policy therefore
classifies errors by *type* and backs off exponentially between
attempts.

The jitter is **deterministic**: a hash of ``(request_id, attempt)``
spreads concurrent retries apart (no thundering herd) while keeping
every schedule exactly reproducible — the same request retried after
the same fault always sleeps the same amount.  Combined with the
fault-injector virtual clock (``FaultInjector.advance`` as the sleeper)
a whole retry storm is testable in microseconds with zero wall-clock
sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Type

from ..testing.faults import InjectedFault
from .errors import TransientBackendError


def jitter_fraction(request_id: int, attempt: int) -> float:
    """Deterministic pseudo-random fraction in ``[0, 1)``.

    A small integer mix (Knuth multiplicative hashing plus an
    xorshift-style finalizer) — *not* ``hash()``, whose string seeds are
    randomized per process, and *not* ``random``, which would make retry
    traces unreproducible.
    """
    x = (request_id * 2654435761 + attempt * 40503) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 2246822519) & 0xFFFFFFFF
    x ^= x >> 13
    return (x % 10000) / 10000.0


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry transient failures, and how to space them.

    ``backoff(request_id, attempt)`` returns the delay before the
    *attempt*-th retry (1-based): ``base * 2**(attempt-1)`` capped at
    ``cap``, stretched by up to ``jitter`` of itself using the
    deterministic per-request fraction.
    """

    max_retries: int = 2
    base: float = 0.05
    cap: float = 2.0
    jitter: float = 0.1
    #: exception types worth retrying; anything else fails fast
    retryable: Tuple[Type[BaseException], ...] = (
        InjectedFault,
        TransientBackendError,
    )

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def backoff(self, request_id: int, attempt: int) -> float:
        raw = min(self.cap, self.base * (2 ** (attempt - 1)))
        return raw * (1.0 + self.jitter * jitter_fraction(request_id, attempt))


#: A policy that never retries (useful as an explicit CLI/off switch).
NO_RETRY = RetryPolicy(max_retries=0)
