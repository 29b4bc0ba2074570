"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in worker
processes of its own (``python -m perfbench.worker``), so one
workload's peak memory never lands on another's.  ``setup_s`` is
measured from just before a worker starts to its first timed call, in
every worker, and reported as the median.

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric ``BENCHMARK.json`` declares; with
``--trace 1`` (one worker, untraced and traced passes alternating) it
holds every declared per-layer metric.  The lines before it are a
readable table.  Any correctness failure makes the exit code 1.  This
file imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Untraced runs split a workload's instances over this many processes,
#: run one after another, each measuring for ``--seconds / PARTS``.  The
#: speed of one process differs from the next by several percent (the
#: hash seed alone moves a verify pass by about 15%), and pooling
#: instances from several processes averages that out.
PARTS = 4

#: The catalog's verified conditions plus inverses: the units a
#: ``verify-pipeline`` pass commits.
OBLIGATIONS = 765 + 8

#: The whole command must finish within this many seconds.
BUDGET_SECONDS = 170.0

#: Printed in the table next to the declared metrics, where they apply:
#: the figures that are not metrics of every workload.
REPORTED_UNITS = {
    "aborts_per_commit": "ratio", "admission_p50_ms": "ms",
    "verify_s": "s", "server_rss_mb": "MiB", "pass_s": "s",
    "failure_rate": "ratio",
}


class WorkerError(RuntimeError):
    pass


def run_worker(root: Path, args: argparse.Namespace, extra: list[str],
               timeout: float) -> dict:
    """Start one worker process, wait for it, return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)] + extra
    # A new session, so a timeout can stop the worker and the server
    # process it started together.
    spawned_at = time.perf_counter()
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)], cwd=root, env=env,
        stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f}s") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise WorkerError(f"worker exited with {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    return json.loads(lines[-1])


def table(title: str, rows: dict, units: dict) -> list[str]:
    lines = [title]
    for name, value in rows.items():
        lines.append(f"  {name:32s} {value:>16.6g} {units.get(name, '')}")
    return lines


def _geomean(values: list[float]) -> float:
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(results: list[dict]) -> dict:
    """The end-to-end metrics from every part's summary.

    Runtime workloads: each structure's rate is the median over its
    instances of committed ops / timed seconds, and the workload's is
    the geometric mean over structures, so every structure counts
    equally.  Goodput and attempts per commit are medians over
    instances of the sums over structures.
    """
    peak = statistics.median(r["peak_rss_mb"] for r in results)
    if "verify_s" in results[0]:
        seconds = statistics.median(s for r in results
                                    for s in r["verify_s"])
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        return {"committed_ops_per_s": OBLIGATIONS / seconds,
                "goodput": 1.0 - failed / attempted if attempted else 0.0,
                "attempts_per_commit": 1.0, "peak_rss_mb": peak,
                "verify_s": seconds}
    runs = [run for r in results for run in r["runs"]]
    by_structure: dict[str, list[float]] = {}
    by_instance: dict[int, list[dict]] = {}
    for run in runs:
        by_structure.setdefault(run["structure"], []).append(
            run["committed"] / max(run["seconds"], 1e-9))
        by_instance.setdefault(run["instance"], []).append(run)
    goodput, attempts = [], []
    for row in by_instance.values():
        commits = sum(run["commits"] for run in row)
        if not commits:
            continue
        goodput.append(sum(run["committed"] for run in row)
                       / sum(run["operations"] for run in row))
        attempts.append((commits + sum(run["aborts"] for run in row))
                        / commits)
    commits = sum(run["commits"] for run in runs) or 1
    e2e = {
        "committed_ops_per_s": _geomean(
            [statistics.median(rates) for rates in by_structure.values()]),
        "goodput": statistics.median(goodput),
        "attempts_per_commit": statistics.median(attempts),
        "aborts_per_commit": sum(run["aborts"] for run in runs) / commits,
        "pass_s": sum(run["seconds"] for run in runs),
        "peak_rss_mb": peak,
    }
    if "admission_p50_ms" in results[0]:
        e2e["admission_p50_ms"] = statistics.median(
            r["admission_p50_ms"] for r in results)
        e2e["server_rss_mb"] = statistics.median(
            r["server_rss_mb"] for r in results)
    return e2e


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_SECONDS
    parts = 1 if args.trace else PARTS
    try:
        results = [run_worker(root, args, [
            "--seconds", repr(args.seconds / parts), "--part", str(part),
            "--parts", str(parts)], deadline - time.monotonic())
            for part in range(parts)]
        e2e = end_to_end(results)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    e2e["setup_s"] = statistics.median(r["setup_s"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    e2e["failure_rate"] = failed / attempted if attempted else 1.0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = dict(REPORTED_UNITS)
    units.update((m["name"], m["unit"])
                 for m in spec["end_to_end"] + spec["per_layer"])
    lines = table(f"{args.workload} seed={args.seed} end to end", e2e,
                  units)
    values = e2e
    if args.trace:
        values = results[0]["layers"]
        lines += table("per layer (median over traced passes, per pass)",
                       values, units)
    for failure in (f for r in results for f in r["failures"]):
        lines.append(f"  FAILED {failure}")
    print("\n".join(lines))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
