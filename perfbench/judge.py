"""Result-equivalence judge for ``top1_correct`` and the error accounting.

A read is *correct* when its top-1 translation returns the same rows as
the gold SQL on the data that read saw: the same row multiset, or the
same row list when the gold SQL has ``ORDER BY``.  The judge runs after
the timed phase, so engine execution never enters a latency.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Optional

from repro.errors import ReproError
from repro.sqlkit import ast, parse


@dataclasses.dataclass
class Read:
    """What the client saw for one timed read."""

    variant: object  # variants.Variant
    seconds: float
    ok: bool
    top1: Optional[str] = None
    #: request class for the steadiness guard (hit/miss, position, ...)
    klass: str = ""
    #: the data state the read saw; None when the data never changes
    epoch: Optional[tuple] = None


class JudgeError(RuntimeError):
    """The gold SQL of a variant failed: the benchmark, not the
    translator, is broken."""


def _answer(result, ordered: bool):
    rows = [tuple(row) for row in result.rows]
    return rows if ordered else collections.Counter(rows)


def _ordered(gold: ast.Node) -> bool:
    return isinstance(gold, ast.Select) and bool(gold.order_by)


class Judge:
    """Judges reads against gold answers on one data state.

    ``execute`` runs a parsed query and returns a result with ``rows``.
    Verdicts are memoized per (gold, top-1) pair, so each distinct query
    executes once per data state.
    """

    def __init__(self, execute: Callable[[ast.Node], object]) -> None:
        self._execute = execute
        self._verdicts: dict[tuple[str, str], bool] = {}

    def correct(self, gold_sql: str, top1_sql: str) -> bool:
        key = (gold_sql, top1_sql)
        if key not in self._verdicts:
            gold = parse(gold_sql)
            ordered = _ordered(gold)
            try:
                expected = _answer(self._execute(gold), ordered)
            except ReproError as exc:
                raise JudgeError(f"gold SQL failed: {gold_sql}: {exc}") from exc
            try:
                got = _answer(self._execute(parse(top1_sql)), ordered)
            except ReproError:
                got = None  # an unexecutable translation is a wrong one
            self._verdicts[key] = got == expected
        return self._verdicts[key]


@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    correct: int

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    @property
    def success_rate(self) -> float:
        return 1.0 - self.error_rate

    @property
    def top1_correct(self) -> float:
        return self.correct / self.attempted


def judge_reads(reads: list[Read], judge_for_epoch: Callable) -> Verdict:
    """Score every read; a failed read counts as an error and as not
    correct.  ``judge_for_epoch`` gives the judge for the data state a
    read saw, and is called with the epochs in the order reads saw them."""
    failed = correct = 0
    for read in reads:
        if not read.ok or read.top1 is None:
            failed += 1
            continue
        judge = judge_for_epoch(read.epoch)
        correct += judge.correct(read.variant.gold_sql, read.top1)
    return Verdict(len(reads), failed, correct)
