"""Host-speed normalization, latency summaries, memory, and the
steadiness guard.

The host this benchmark was built on changes speed by 25% or more
within seconds and stays in a regime for seconds to minutes, so raw
times of two sets of runs disagree by more than any bound worth having.
Every reported time is therefore *normalized*: a fixed reference round
of pure-Python kernels (:func:`reference`), independent of the program,
runs in the benchmark process between reads about an eighth of the time,
and each read's time is scaled by ``NOMINAL / mean reference time`` of
the rounds within :data:`REF_WINDOW` of it.  A
normalized millisecond is a millisecond on a host where one reference
round takes :data:`NOMINAL` seconds; raw times are printed alongside.
"""

from __future__ import annotations

import dataclasses
import difflib
import gc
import io
import itertools
import math
import os
import random
import statistics
import time
import tokenize

#: reads per throughput sample.  A multiple of the writes-mixed write
#: period, so every block holds the same number of writes
BLOCK = 50
#: a reported percentile may not lie this close (in points) to the
#: cumulative share of a request class
EDGE_MARGIN = 3.0
PERCENTILES = (50, 99)
#: seconds one reference round takes on the standard host
NOMINAL = 0.018
#: a reference round runs before the first read, after the last, and
#: between reads whenever this many seconds of reads have passed
#: since the last one (about an eighth of the time)
REF_EVERY = 0.18
#: a read is normalized by the reference rounds within this many
#: seconds of its start
REF_WINDOW = 1.0
clock = time.perf_counter

# -- the reference round ------------------------------------------------

_WORDS = [
    f"{table}_{column}"
    for table in ("student", "course", "section", "program", "term", "advisor", "club")
    for column in ("id", "name", "title", "year", "code", "credits")
]
_PAIRS = list(itertools.islice(itertools.combinations(_WORDS, 2), 75))
_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    return [x * y for _ in range({i})]  # c{i}" for i in range(25)
)
#: larger than the CPU caches, so a round pays for memory latency as the
#: translator's memo lookups do
_TABLE = {f"k{i:07d}": (i, str(i)) for i in range(100_000)}
_PROBES = random.Random(0).sample(list(_TABLE), 8_000)


def _arithmetic() -> int:
    total = 0
    for i in range(28000):
        total += i * i % 7
    return total


def _objects() -> int:
    rows: list = []
    for i in range(3500):
        row = {"key": i, "text": str(i), "pair": (i, i + 1)}
        rows.append(row["text"] + "x")
        if len(rows) > 500:
            rows = []
    return len(rows)


def _matching() -> float:
    return sum(difflib.SequenceMatcher(None, a, b).ratio() for a, b in _PAIRS)


def _tokens() -> int:
    return sum(1 for _ in tokenize.generate_tokens(io.StringIO(_SOURCE).readline))


def _lookups() -> int:
    total = sum(_TABLE[key][0] for key in _PROBES)
    rows = [{"a": i, "b": [i, i]} for i in range(4_000)]
    pick = random.Random(1)
    for _ in range(4_000):
        total += rows[pick.randrange(4_000)]["a"]
    return total


def reference() -> float:
    """Seconds one reference round takes now.

    Integer arithmetic, small-object churn, string matching,
    tokenizing and lookups in a table larger than the caches: together
    they slow with the host as the translator does (each alone tracks it
    about half as well; without the lookups the round missed slowdowns
    of memory latency).  The collector is off, so the round's cost does
    not depend on the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = clock()
        _arithmetic()
        _objects()
        _matching()
        _tokens()
        _lookups()
        return clock() - began
    finally:
        if enabled:
            gc.enable()


def speed(refs: list[float]) -> float:
    """Factor turning raw seconds into normalized seconds over a stretch
    whose reference rounds took *refs*."""
    return NOMINAL / statistics.fmean(refs)


# -- phases ---------------------------------------------------------------


@dataclasses.dataclass
class Phase:
    """One unbroken stretch of reads.

    ``starts`` and ``ends`` hold the start of each read's slot (before
    its write, if any) and the end of the read on a clock that stops
    during reference rounds; ``refs`` holds ``(at, seconds)`` of each
    reference round on the same clock.
    """

    reads: list
    starts: list
    ends: list
    refs: list
    counters: dict = dataclasses.field(default_factory=dict)

    def reference_seconds(self) -> float:
        return sum(seconds for _, seconds in self.refs)

    def factors(self) -> list[float]:
        """Per-read normalization factor from the reference rounds
        within :data:`REF_WINDOW` of the read's start (the nearest
        round if none is)."""
        out = []
        for start in self.starts:
            near = [s for at, s in self.refs if abs(at - start) <= REF_WINDOW]
            if not near:
                near = [min(self.refs, key=lambda ref: abs(ref[0] - start))[1]]
            out.append(speed(near))
        return out

    def normalized(self) -> list[float]:
        """Each read's latency in normalized seconds."""
        return [read.seconds * f for read, f in zip(self.reads, self.factors())]

    def block_rates(self) -> list[float]:
        """Normalized reads per second of each whole block; a block's
        time runs from its first slot's start to its last read's end,
        so it holds the writes between its reads and not the reference
        rounds."""
        factors = self.factors()
        rates = []
        for b in range(0, len(self.reads) - BLOCK + 1, BLOCK):
            took = self.ends[b + BLOCK - 1] - self.starts[b]
            rates.append(BLOCK / (took * statistics.fmean(factors[b : b + BLOCK])))
        return rates


# -- summaries -----------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(phases: list[Phase]) -> dict:
    """Normalized latency percentiles over every read of *phases*, and
    ``throughput_qps``, the median normalized block rate; the raw
    figures are kept to show what the host did."""
    normalized = [1000.0 * s for phase in phases for s in phase.normalized()]
    raw = [1000.0 * read.seconds for phase in phases for read in phase.reads]
    rates = [rate for phase in phases for rate in phase.block_rates()]
    refs = [seconds for phase in phases for _, seconds in phase.refs]
    summary = {
        "throughput_qps": statistics.median(rates),
        "raw_qps": len(raw) / sum(p.ends[-1] - p.starts[0] for p in phases),
        "reference_ms": statistics.median(refs) * 1000.0,
        "references": len(refs),
    }
    for p in PERCENTILES:
        summary[f"latency_p{p}_ms"] = percentile(normalized, p)
        summary[f"raw_p{p}_ms"] = percentile(raw, p)
    return summary


# -- memory --------------------------------------------------------------


def _vm_hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def descendants(pid: int) -> list[int]:
    found = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as f:
            for child in f.read().split():
                found.append(int(child))
                found.extend(descendants(int(child)))
    return found


def peak_rss_mb(pid="self", tree: bool = False) -> float:
    """VmHWM of a process (and, with ``tree``, of all its descendants
    summed) in MB."""
    pids = [pid] + (descendants(pid) if tree else [])
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


# -- the steadiness guard ------------------------------------------------


class Guard:
    """Collects steadiness violations; a run with any is not correct."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def same(self, what: str, values: list) -> None:
        """Every run of the same trace must agree exactly on *what*."""
        if any(value != values[0] for value in values[1:]):
            self.failures.append(f"{what} differs between runs: {values}")

    def off_edges(self, classes: dict[str, int], fast_first: list[str]) -> None:
        """No reported percentile within :data:`EDGE_MARGIN` points of
        a boundary between request classes ordered fast to slow."""
        total = sum(classes.values())
        edge = 0.0
        for name in fast_first[:-1]:
            edge += 100.0 * classes.get(name, 0) / total
            if edge in (0.0, 100.0):
                continue  # an empty class has no boundary
            for p in PERCENTILES:
                if abs(p - edge) < EDGE_MARGIN:
                    self.failures.append(
                        f"p{p} lies {abs(p - edge):.2f} points from the "
                        f"class edge after {name!r} ({edge:.2f}%)"
                    )
