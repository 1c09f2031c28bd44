"""Unified exception taxonomy and structured diagnostics.

Every error the repro package raises on a user-visible path derives from
:class:`ReproError`, so callers (the CLI, services embedding the
translator) can write one ``except ReproError`` and know that anything
else escaping is a genuine bug:

    ReproError
    ├── SqlSyntaxError      (repro.sqlkit.tokens; also a SyntaxError)
    ├── TranslationError    (repro.core.composer; also a RuntimeError)
    │   └── NoJoinNetworkError
    ├── EngineError         (repro.engine.errors; also a RuntimeError)
    │   ├── NameResolutionError
    │   ├── ExecutionError
    │   └── IntegrityError
    ├── BackendError        (repro.backends.errors; CLI exit code 7)
    │   ├── TransientBackendError   (retryable hiccup)
    │   └── BackendUnavailable      (terminal)
    ├── BudgetExceeded      (repro.core.resilience)
    ├── WorkerError         (repro.server.errors; CLI exit code 8)
    │   ├── WorkerCrashed           (worker process died mid-request)
    │   └── WorkerTimeout           (hung worker killed by watchdog)
    ├── ServerDraining      (repro.server.errors; SIGTERM drain refusal)
    └── InjectedFault       (repro.testing.faults)

Errors optionally carry a :class:`Diagnostic` — a structured record of
*where* in the Figure-3 pipeline the failure happened, what input span or
token triggered it, how many candidates were considered, and which
degradation steps the translator had already taken.  This module sits at
the package root with no intra-package imports so that ``sqlkit``,
``engine`` and ``core`` can all depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: Pipeline stage names used throughout diagnostics (Figure 3 of the
#: paper, plus the execution engine, the budget/ladder machinery, the
#: query service's admission control and the backend layer).
STAGES = (
    "parse",
    "map",
    "network",
    "compose",
    "execute",
    "budget",
    "admission",
    "backend",
    "artifact",
)


@dataclass
class Diagnostic:
    """Structured description of one pipeline failure or degradation.

    ``stage`` is one of :data:`STAGES`; ``input_span`` is a (start, end)
    character range into the original query text when known; ``token``
    names the offending token / relation-tree label; ``candidates`` is
    how many alternatives had been considered when the stage gave up;
    ``degradation`` lists the ladder rungs taken before this record was
    produced; ``detail`` carries free-form stage-specific counters.
    """

    stage: str = "translate"
    message: str = ""
    token: Optional[str] = None
    input_span: Optional[tuple[int, int]] = None
    candidates: int = 0
    degradation: tuple[str, ...] = ()
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "message": self.message,
            "token": self.token,
            "input_span": self.input_span,
            "candidates": self.candidates,
            "degradation": list(self.degradation),
            "detail": dict(self.detail),
        }

    def render(self) -> str:
        """Multi-line human-readable form (used by the CLI)."""
        lines = [f"stage: {self.stage}"]
        if self.message:
            lines.append(f"what: {self.message}")
        if self.token is not None:
            lines.append(f"token: {self.token}")
        if self.input_span is not None:
            lines.append(f"input span: {self.input_span[0]}..{self.input_span[1]}")
        if self.candidates:
            lines.append(f"candidates considered: {self.candidates}")
        for key, value in self.detail.items():
            lines.append(f"{key}: {value}")
        if self.degradation:
            lines.append("degradation steps:")
            for step in self.degradation:
                lines.append(f"  - {step}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


class ReproError(Exception):
    """Root of the repro exception taxonomy.

    Subclasses may attach a :class:`Diagnostic` via the ``diagnostic``
    keyword; plain ``raise SomeError("message")`` remains valid
    everywhere and simply yields ``diagnostic = None``.
    """

    diagnostic: Optional[Diagnostic] = None

    def __init__(self, *args: object, diagnostic: Optional[Diagnostic] = None) -> None:
        super().__init__(*args)
        if diagnostic is not None:
            self.diagnostic = diagnostic

    @property
    def stage(self) -> Optional[str]:
        """Pipeline stage the error originated in, when known."""
        return self.diagnostic.stage if self.diagnostic is not None else None

    def describe(self) -> str:
        """The message plus the rendered diagnostic, if any."""
        text = str(self)
        if self.diagnostic is not None:
            rendered = self.diagnostic.render()
            indented = "\n".join(f"  {line}" for line in rendered.splitlines())
            text = f"{text}\n{indented}"
        return text
