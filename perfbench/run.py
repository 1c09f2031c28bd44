"""End-to-end benchmark of schema-free SQL translation and serving.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Times are normalized to a standard
host speed (see measure.py); the raw figures are printed alongside.
``--workload all`` runs the three workloads one after another, each in a
fresh process.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every read succeeded and every steadiness check held.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("serve-zipf", "translate-novel", "writes-mixed")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    with workloads.workdir() as scratch:
        workload = workloads.make(args.workload, Path(scratch))
        if args.trace:
            outcome = workloads.run_traced(workload, args.seed, args.seconds)
        else:
            outcome = workloads.run_end_to_end(
                workload, args.seed, args.seconds, STARTED
            )
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"{args.workload:16s} {name:36s} {value:14.6f} {unit:8s} n={samples}")
    for note in outcome.notes:
        print(f"{args.workload:16s} {note}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in outcome.metrics.items()
    }
    print(_result_line(outcome.correct, outcome.attempted, outcome.failed, metrics))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        try:
            output, _ = child.communicate()
        finally:
            if child.poll() is None:  # interrupted: let it stop its server
                child.terminate()
                child.wait()
        lines = output.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {child.returncode})", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


#: prctl option that makes a process adopt its orphaned descendants
PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts (Linux),
    so a grandchild that outlives its parent is reparented here and can
    be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                if int(stat.read().rsplit(")", 1)[1].split()[1]) == os.getpid():
                    pids.append(int(entry))
        except (OSError, ValueError, IndexError):
            pass
    return pids


def _stop_children(timeout: float = 30.0) -> None:
    """Stop this process's multiprocessing resource tracker, then wait
    for every child left (adopted orphans included), killing those still
    running after *timeout* seconds."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # the tracker exits on end of file
        tracker._fd = None
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children():
                os.kill(pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)


def _terminate(signum, frame):
    """SIGTERM unwinds like an exception, so every server and scratch
    directory this run started is stopped and removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=10,
        help="nominal length of the timed phase; sets the fixed read count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    _adopt_orphans()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    sys.exit(main())
