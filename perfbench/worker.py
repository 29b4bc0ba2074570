"""One workload in one process: set up, measure, check, report.

``perfbench/run.py`` starts this as ``python -m perfbench.worker`` with
``PYTHONPATH`` covering ``src`` and the checkout root.  It prints one
JSON object as the last line of its standard output.

A pass runs the workload's fixed work once: every instance of every
structure through ``ThroughputHarness.run_one`` with no execution
knobs, or one cold verify -> inverses -> arming pipeline.  Every timing
is the benchmark's own clock around that public call.  With
``--trace 1`` untraced and traced passes alternate, so tracing overhead
and decision identity are measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Registry, Session
from repro.eval import paper_scope
from repro.runtime.backend import LocalAdmissionBackend
from repro.workloads import ThroughputHarness

from .spans import TimingBackend, Tracer, instrumented
from .workloads import CONDITIONS, INVERSES, WORKLOADS, instance_specs

HOST = "127.0.0.1"

#: Where the traced run writes its spans, relative to the checkout.
SPAN_DIR = Path(".perfbench")


@dataclass
class Outcome:
    """One timed ``run_one``, reduced to what the checks and metrics
    need."""

    seconds: float = 0.0
    commits: int = 0
    aborts: int = 0
    operations: int = 0
    committed: int = 0
    digest: str = ""
    latencies: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def counts(self) -> tuple[int, int, int]:
        return self.commits, self.aborts, self.operations


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process in MiB, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Failures:
    """Failed attempts, keyed so one attempt counts once."""

    def __init__(self) -> None:
        self.reasons: dict[tuple, list[str]] = {}

    def add(self, key: tuple, reason: str) -> None:
        self.reasons.setdefault(key, []).append(reason)

    def __len__(self) -> int:
        return len(self.reasons)

    def sample(self, limit: int = 5) -> list[str]:
        return [f"{key}: {'; '.join(reasons)}"
                for key, reasons in list(self.reasons.items())[:limit]]


class RuntimeBench:
    """``hotkey-writes``, ``readonly-deep-log`` and ``served-hotkey``."""

    def __init__(self, workload, seed: int, part: int = 0,
                 parts: int = 1) -> None:
        self.workload = workload
        self.seed = seed
        #: This process runs the instances ``i`` with ``i % parts == part``.
        self.part = part
        self.parts = parts
        self.server = None
        self.backend = None
        self.failures = Failures()
        self.attempted = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.registry = Registry.with_builtins()
        self.harness = ThroughputHarness(registry=self.registry)
        self.specs = instance_specs(self.workload, self.seed)
        # Program generation; the sizes let every run be checked for
        # committing exactly its programs' operations.
        self.program_ops = {
            (structure, i): sum(len(program) for program in
                                self.harness.generator.generate(
                                    structure, self.specs[i]))
            for structure, i in self.keys()}
        if self.workload.served:
            from repro.service.bench import start_server
            from repro.service.client import ServiceBackend, ServiceClient
            self.server, port = start_server(HOST)
            # One request is in flight at a time, so client and server
            # never run at once.  Sharing one CPU keeps the host's
            # cross-CPU wake-up latency, which swung the round trip by
            # half from one minute to the next, out of the figures.
            # Parts take the CPUs in turn, so no one CPU's load decides
            # the whole run.
            cpus = sorted(os.sched_getaffinity(0))
            cpu = {cpus[self.part % len(cpus)]}
            os.sched_setaffinity(0, cpu)
            os.sched_setaffinity(self.server.pid, cpu)
            ServiceClient(HOST, port).close()  # handshake
            self.backend = ServiceBackend(HOST, port, label="perfbench")

    def close(self) -> None:
        """Drain the server with SIGTERM, killing it if it lingers."""
        try:
            if self.backend is not None:
                self.backend.close()
        finally:
            if self.server is not None:
                from repro.service.bench import stop_server
                stop_server(self.server)

    # -- one timed call ---------------------------------------------------------

    def run_one(self, structure: str, index: int, backend=None,
                tracer: Tracer | None = None) -> Outcome:
        spec = self.specs[index]
        root = tracer.begin("run") if tracer is not None else None
        start = time.perf_counter()
        try:
            run = self.harness.run_one(structure, spec, backend=backend)
        except Exception as exc:  # a failed run is counted, not fatal
            return Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.unwind(root)
        report = run.report
        outcome = Outcome(
            seconds=seconds, commits=report.commits, aborts=report.aborts,
            operations=report.operations,
            committed=report.committed_operations,
            digest=report.decision_digest(),
            latencies=list(report.admission_latencies),
            counters={"pairs_checked": report.conflict_checks,
                      "undo_refusals": report.undo_refusals,
                      "drift_checks": report.drift_checks,
                      "fallbacks": report.drift_fallbacks,
                      "eval_errors": report.eval_errors,
                      "compiled_hits": report.compiled_hits})
        if not report.serializable:
            outcome.problems.append("not serial-replay-equal")
        if report.rounds_exhausted:
            outcome.problems.append("quenched by rounds_exhausted")
        if (report.commits != spec.transactions
                or report.committed_operations
                != self.program_ops[(structure, index)]):
            outcome.problems.append("did not commit every program")
        return outcome

    def keys(self) -> list[tuple[str, int]]:
        return [(structure, i) for structure in self.workload.structures
                for i in range(self.part, len(self.specs), self.parts)]

    # -- passes -----------------------------------------------------------------

    def run_pass(self, number: int) -> dict:
        outcomes = {key: self.run_one(*key, backend=self.backend)
                    for key in self.keys()}
        self._account(number, outcomes)
        return {"outcomes": outcomes}

    def run_traced_pass(self, number: int, kept: list) -> dict:
        tracer = Tracer()
        backend = TimingBackend(
            self.backend if self.backend is not None
            else LocalAdmissionBackend(self.registry), tracer)
        layers: Counter = Counter()
        calls: Counter = Counter()
        counts: Counter = Counter()
        checks: list[float] = []
        rpcs: list[float] = []
        outcomes = {}
        server_cpu = self._server_cpu()
        client_cpu = time.process_time()
        with instrumented(tracer, self.registry):
            for key in self.keys():
                tracer.run_id = len(outcomes)
                outcomes[key] = self.run_one(*key, backend=backend,
                                             tracer=tracer)
                try:
                    layers.update(tracer.self_times())
                except RuntimeError as exc:  # double counting
                    outcomes[key].problems.append(str(exc))
                calls.update(tracer.names)
                counts.update(tracer.counts)
                checks.extend(tracer.durations("gatekeeper.check"))
                rpcs.extend(tracer.durations("client.rpc"))
                if key[1] == self.part:
                    kept.extend(tracer.export(number))
                tracer.clear()
        client_cpu = time.process_time() - client_cpu
        server_cpu = self._server_cpu() - server_cpu
        self._account(number, outcomes)
        return {"outcomes": outcomes,
                "layers": self._layers(outcomes, layers, calls, counts,
                                       checks, rpcs, client_cpu,
                                       server_cpu)}

    def _server_cpu(self) -> float:
        return _proc_cpu_seconds(self.server.pid) if self.server else 0.0

    def _account(self, number: int, outcomes: dict) -> None:
        self.attempted += len(outcomes)
        for key, outcome in outcomes.items():
            for problem in outcome.problems:
                self.failures.add((number,) + key, problem)

    def _layers(self, outcomes, layers, calls, counts, checks, rpcs,
                client_cpu, server_cpu) -> dict:
        runs = [o for o in outcomes.values() if not o.problems]
        total = sum(o.seconds for o in outcomes.values())
        n_checks = counts["gatekeeper.checks"]
        n_rpcs = calls["client.rpc"]
        pairs = sum(o.counters.get("pairs_checked", 0) for o in runs)

        def summed(name):
            return sum(o.counters.get(name, 0) for o in runs)

        def per_check(value):
            return value / n_checks if n_checks else 0.0

        return {
            "workloads.generate_s": layers["workloads.generate"],
            "executor.steps": n_checks + counts["executor.commits"],
            "executor.self_s": layers["executor.execute"],
            "executor.validate_s": layers["executor.validate"],
            "gatekeeper.check_s": layers["gatekeeper.check"],
            "gatekeeper.check_p50_us": _quantile(checks, 0.5) * 1e6,
            "gatekeeper.check_p99_us": _quantile(checks, 0.99) * 1e6,
            "gatekeeper.pairs_checked": pairs,
            "gatekeeper.pairs_per_check": per_check(pairs),
            "gatekeeper.admit_rate": per_check(counts["gatekeeper.admitted"]),
            "gatekeeper.undo_refusals": summed("undo_refusals"),
            "gatekeeper.drift_checks": summed("drift_checks"),
            "gatekeeper.fallbacks": summed("fallbacks"),
            "gatekeeper.eval_errors": summed("eval_errors"),
            "gatekeeper.compiled_hits": summed("compiled_hits"),
            "gatekeeper.route_s": layers["gatekeeper.route"],
            "gatekeeper.record_s": layers["gatekeeper.record"],
            "gatekeeper.release_s": layers["gatekeeper.release"],
            "impls.snapshot_calls": calls["impls.snapshot"],
            "impls.snapshot_s": layers["impls.snapshot"],
            "impls.apply_s": layers["impls.apply"],
            "transaction.rollbacks": counts["transaction.rollbacks"],
            "transaction.rollback_s": layers["transaction.rollback"],
            "transaction.undo_entries": counts["transaction.undo_entries"],
            "client.rpcs": n_rpcs,
            "client.rpc_wait_s": layers["client.rpc"],
            "client.rpc_p99_ms": _quantile(rpcs, 0.99) * 1e3,
            "client.admission_p50_ms": _quantile(
                [x for o in runs for x in o.latencies], 0.5) * 1e3,
            "client.cpu_s": client_cpu if n_rpcs else 0.0,
            "protocol.encode_s": layers["protocol.encode"],
            "protocol.decode_s": layers["protocol.decode"],
            "protocol.bytes_out_per_check": per_check(
                counts["protocol.bytes_out"]),
            "protocol.bytes_in_per_check": per_check(
                counts["protocol.bytes_in"]),
            "server.cpu_s": server_cpu,
            "server.cpu_per_rpc_us": (server_cpu / n_rpcs * 1e6
                                      if n_rpcs else 0.0),
            "server.rss_mb": (_proc_hwm_mb(self.server.pid)
                              if self.server else 0.0),
            "trace.unattributed_s": layers["run"],
            "trace.timed_s": total,
        }

    # -- checks -----------------------------------------------------------------

    def check(self, passes: list[dict]) -> None:
        """Same-seed repeats agree on every count; traced decisions equal
        untraced ones; served digests equal in-process ones."""
        first = passes[0]["outcomes"]
        for number, entry in enumerate(passes[1:], start=1):
            for key, outcome in entry["outcomes"].items():
                base = first[key]
                if outcome.counts != base.counts:
                    self.failures.add((number,) + key,
                                      f"repeat counts {outcome.counts} != "
                                      f"{base.counts}")
                if outcome.digest != base.digest:
                    self.failures.add((number,) + key,
                                      "decision digest differs from pass 0")
        if len(passes) == 1 and self.part == 0:
            # One pass fitted: repeat the first instance of each structure.
            for structure in self.workload.structures:
                key = (structure, self.part)
                again = self.run_one(*key, backend=self.backend)
                if again.counts != first[key].counts:
                    self.failures.add((0,) + key, "repeat counts differ")
        if self.workload.served:
            for key, outcome in first.items():
                local = self.run_one(*key)
                if local.digest != outcome.digest:
                    self.failures.add((0,) + key,
                                      "served digest != in-process digest")

    # -- metrics ----------------------------------------------------------------

    def summary(self, passes: list[dict]) -> dict:
        """What ``run.py`` needs to merge parts: per run, its median
        seconds over the untraced passes and its counts."""
        untraced = [p["outcomes"] for p in passes if "layers" not in p]
        latencies = [x for p in untraced for o in p.values()
                     for x in o.latencies]
        runs = [{"structure": structure, "instance": i,
                 "seconds": _median(p[(structure, i)].seconds
                                    for p in untraced),
                 "commits": outcome.commits, "aborts": outcome.aborts,
                 "operations": outcome.operations,
                 "committed": outcome.committed}
                for (structure, i), outcome in untraced[0].items()
                if not outcome.problems]
        result = {"runs": runs}
        if self.workload.served:
            result["admission_p50_ms"] = _quantile(latencies, 0.5) * 1e3
            result["server_rss_mb"] = _proc_hwm_mb(self.server.pid)
        return result

    def peak_rss_mb(self) -> float:
        """Peak RSS of every process the workload ran in."""
        server = _proc_hwm_mb(self.server.pid) if self.server else 0.0
        return _own_peak_mb() + server


class VerifyBench:
    """``verify-pipeline``: a cold verify -> inverses -> arming pass."""

    def __init__(self, workload, seed: int, part: int = 0,
                 parts: int = 1) -> None:
        self.workload = workload
        self.failures = Failures()
        self.attempted = 0

    def setup(self) -> None:
        self.scope = paper_scope()

    def close(self) -> None:
        pass

    def _session_for_pass(self) -> Session:
        # A fresh registry per pass: arming registers stable conditions.
        return Session(registry=Registry.with_builtins(), scope=self.scope,
                       backend="symbolic", jobs=1, cache=False)

    def _timed(self, number: int, tracer: Tracer | None = None) -> float:
        session = self._session_for_pass()
        root = tracer.begin("pass") if tracer is not None else None
        start = time.perf_counter()
        try:
            reports = session.verify_all()
            inverses = session.check_inverses()
            armed = session.compile_stable(names=self.workload.structures,
                                           abduce=True)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.unwind(root)
        results = [r for report in reports.values() for r in report.results]
        self.attempted += len(results) + len(inverses)
        for i, r in enumerate(results):
            if not r.verified:
                self.failures.add((number, "condition", i), "not verified")
        for i, r in enumerate(inverses):
            if not r.verified:
                self.failures.add((number, "inverse", i), "not verified")
        if len(results) != CONDITIONS or len(inverses) != INVERSES:
            self.failures.add((number, "catalog"),
                              f"{len(results)} conditions and "
                              f"{len(inverses)} inverses, expected "
                              f"{CONDITIONS} and {INVERSES}")
        if sorted(armed) != sorted(self.workload.structures):
            self.failures.add((number, "arming"),
                              f"armed {sorted(armed)}")
        return seconds

    def run_pass(self, number: int) -> dict:
        return {"seconds": self._timed(number)}

    def run_traced_pass(self, number: int, kept: list) -> dict:
        tracer = Tracer()
        with instrumented(tracer, Registry.with_builtins()):
            seconds = self._timed(number, tracer)
        try:
            layers = Counter(tracer.self_times())
        except RuntimeError as exc:
            self.failures.add((number, "spans"), str(exc))
            layers = Counter()
        kept.extend(tracer.export(number))
        metrics = {"engine.tasks": tracer.counts.get("engine.tasks", 0)}
        for kind in ("commutativity", "inverse", "stability", "prover",
                     "abduction"):
            metrics[f"engine.{kind}_s"] = layers[f"engine.{kind}"]
        metrics["trace.unattributed_s"] = layers["pass"]
        metrics["trace.timed_s"] = seconds
        return {"seconds": seconds, "layers": metrics}

    def check(self, passes: list[dict]) -> None:
        """Every pass checks its own counts; nothing crosses passes."""

    def summary(self, passes: list[dict]) -> dict:
        return {"verify_s": [p["seconds"] for p in passes
                             if "layers" not in p]}

    def peak_rss_mb(self) -> float:
        return _own_peak_mb()


def measure(bench, seconds: float, traced: bool) -> list[dict]:
    """Passes until the next one would overrun ``seconds`` (at least one;
    traced runs alternate untraced and traced passes, at least one of
    each)."""
    passes: list[dict] = []
    kept: list[dict] = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        if traced and len(passes) % 2 == 1:
            passes.append(bench.run_traced_pass(len(passes), kept))
        else:
            passes.append(bench.run_pass(len(passes)))
        took = time.perf_counter() - before
        if traced and len(passes) < 2:
            continue
        if time.perf_counter() - start + took > seconds:
            break
    if kept:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{bench.workload.name}.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            for span in kept:
                out.write(json.dumps(span) + "\n")
    return passes


def per_layer(passes: list[dict]) -> dict:
    """Median of each layer metric over the traced passes, plus the
    tracing overhead against the untraced passes of the same process."""
    traced = [p["layers"] for p in passes if "layers" in p]
    metrics = {name: _median(p.get(name, 0.0) for p in traced)
               for name in LAYER_METRICS}
    untraced = _median(_pass_seconds(p) for p in passes
                       if "layers" not in p)
    metrics["trace.overhead"] = metrics.pop("trace.timed_s") / untraced
    return metrics


def _pass_seconds(entry: dict) -> float:
    if "outcomes" in entry:
        return sum(o.seconds for o in entry["outcomes"].values())
    return entry["seconds"]


#: Every per-layer metric a traced run reports, on every workload; a
#: layer that does no work on a workload reports 0.
LAYER_METRICS = (
    "workloads.generate_s", "executor.steps", "executor.self_s",
    "executor.validate_s", "gatekeeper.check_s", "gatekeeper.check_p50_us",
    "gatekeeper.check_p99_us", "gatekeeper.pairs_checked",
    "gatekeeper.pairs_per_check", "gatekeeper.admit_rate",
    "gatekeeper.undo_refusals", "gatekeeper.drift_checks",
    "gatekeeper.fallbacks", "gatekeeper.eval_errors",
    "gatekeeper.compiled_hits", "gatekeeper.route_s",
    "gatekeeper.record_s", "gatekeeper.release_s", "impls.snapshot_calls",
    "impls.snapshot_s", "impls.apply_s", "transaction.rollbacks",
    "transaction.rollback_s", "transaction.undo_entries", "client.rpcs",
    "client.rpc_wait_s", "client.rpc_p99_ms", "client.admission_p50_ms",
    "client.cpu_s", "protocol.encode_s", "protocol.decode_s",
    "protocol.bytes_out_per_check", "protocol.bytes_in_per_check",
    "server.cpu_s", "server.cpu_per_rpc_us", "server.rss_mb", "engine.tasks",
    "engine.commutativity_s", "engine.inverse_s", "engine.stability_s",
    "engine.prover_s", "engine.abduction_s", "trace.unattributed_s",
    "trace.timed_s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's perf_counter() just before "
                             "it started this process")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    bench = (RuntimeBench if workload.runtime else VerifyBench)(
        workload, args.seed, args.part, args.parts)
    result: dict = {}
    try:
        bench.setup()
        result["setup_s"] = time.perf_counter() - args.spawned_at
        passes = measure(bench, args.seconds, bool(args.trace))
        bench.check(passes)
        result.update(bench.summary(passes))
        if args.trace:
            result["layers"] = per_layer(passes)
        result["peak_rss_mb"] = bench.peak_rss_mb()
    finally:
        bench.close()
    result["attempted"] = bench.attempted
    result["failed"] = len(bench.failures)
    result["failures"] = bench.failures.sample()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
