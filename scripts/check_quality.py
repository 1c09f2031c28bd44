"""Quality gate: translation accuracy of a perfbench run may not fall.

``perfbench/run.py --workload all`` prints one JSON result line (the
last line that starts with ``{``) that carries ``<workload>.top1_correct`` and
``<workload>.success_rate``.  For a fixed seed and duration the requests
are fixed and translation is deterministic, so both figures repeat
exactly; this script fails when any of them is below its floor.  The
floors are the figures of ``--seed 71 --seconds 10``, so the gate is
exact for that run and meaningless for any other.

Run from the repository root::

    python3 perfbench/run.py --workload all --seed 71 --seconds 10 \\
        --trace 0 | tee perfbench-all.txt
    python3 scripts/check_quality.py perfbench-all.txt
"""

from __future__ import annotations

import json
import sys

#: metric -> its figure at seed 71, 10 seconds (2,106/2,700, 674/1,050
#: and 677/1,050 top-1 correct reads; every read succeeds)
FLOORS = {
    "serve-zipf.top1_correct": 0.78,
    "serve-zipf.success_rate": 1.0,
    "translate-novel.top1_correct": 0.6419047619047619,
    "translate-novel.success_rate": 1.0,
    "writes-mixed.top1_correct": 0.6447619047619048,
    "writes-mixed.success_rate": 1.0,
}


def check(result: dict) -> list[str]:
    """One message per metric that is missing or below its floor."""
    metrics = result.get("metrics", {})
    failures = []
    for name, floor in FLOORS.items():
        if name not in metrics:
            failures.append(f"{name}: missing from the result line")
        elif metrics[name]["value"] < floor:
            failures.append(
                f"{name}: {metrics[name]['value']!r} is below {floor!r}"
            )
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} PERFBENCH_OUTPUT", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        lines = [line for line in handle if line.startswith("{")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{argv[1]}: no result line", file=sys.stderr)
        return 1
    failures = check(result)
    for failure in failures:
        print(failure, file=sys.stderr)
    if not failures:
        print(f"quality holds: {len(FLOORS)} figures at or above their floors")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
