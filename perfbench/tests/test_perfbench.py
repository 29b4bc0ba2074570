"""Tests for the benchmark's own machinery: spans, wrappers, the timing
backend, seeding and metric names."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import Registry
from repro.runtime.backend import LocalAdmissionBackend
from repro.service import protocol
from repro.workloads import ThroughputHarness, WorkloadSpec

from perfbench import run, worker
from perfbench.spans import TimingBackend, Tracer, instrumented, \
    patch_points
from perfbench.workloads import WORKLOADS, instance_specs

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

TINY = WorkloadSpec(name="tiny", profile="write-heavy",
                    distribution="hot-key", transactions=4,
                    ops_per_transaction=4, key_space=8, value_space=3,
                    preload=4, seed=3)


@pytest.fixture(scope="module")
def registry():
    return Registry.with_builtins()


def _traced_run(registry, structure, tracer):
    harness = ThroughputHarness(registry=registry)
    backend = TimingBackend(LocalAdmissionBackend(registry), tracer)
    with instrumented(tracer, registry):
        root = tracer.begin("run")
        try:
            return harness.run_one(structure, TINY, backend=backend)
        finally:
            tracer.unwind(root)


@pytest.mark.parametrize("structure", ["HashSet", "ArrayList",
                                       "Accumulator"])
def test_tracing_leaves_decisions_unchanged(registry, structure):
    plain = ThroughputHarness(registry=registry).run_one(structure, TINY)
    tracer = Tracer()
    traced = _traced_run(registry, structure, tracer)
    assert traced.report.decision_digest() == \
        plain.report.decision_digest()
    assert traced.report.serializable
    names = set(tracer.names)
    assert {"run", "executor.execute", "executor.validate",
            "gatekeeper.check", "impls.snapshot",
            "workloads.generate"} <= names
    assert tracer.counts["gatekeeper.checks"] == \
        len(tracer.durations("gatekeeper.check"))
    assert tracer.counts.get("transaction.rollbacks", 0) == \
        plain.report.aborts


def test_layer_self_times_add_up_to_the_timed_call(registry):
    tracer = Tracer()
    _traced_run(registry, "HashSet", tracer)
    (timed,) = tracer.durations("run")
    layers = tracer.self_times()
    assert all(seconds >= 0 for seconds in layers.values())
    assert sum(layers.values()) == pytest.approx(timed, rel=1e-6)


def test_wrappers_are_removed_after_the_traced_run(registry):
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr in patch_points(registry)]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with instrumented(tracer, registry):
            assert all(vars(owner)[attr] is not original
                       for owner, attr, original in originals)
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)
    _traced_run(registry, "HashSet", tracer)
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)


def test_protocol_wrappers_count_bytes_and_return_the_same(registry):
    frame = protocol.ping_frame()
    packed = protocol.pack_frame(frame)
    tracer = Tracer()
    with instrumented(tracer, registry):
        assert protocol.pack_frame(frame) == packed
        assert protocol.decode_body(packed[4:]) == frame
    assert tracer.counts["protocol.bytes_out"] == len(packed)
    assert tracer.counts["protocol.bytes_in"] == len(packed)
    assert tracer.names == ["protocol.encode", "protocol.decode"]


def test_self_times_fold_validation_and_reject_double_counting():
    tracer = Tracer()
    root = tracer.begin("run")
    tracer.end(tracer.begin("impls.snapshot"))
    validate = tracer.begin("executor.validate")
    tracer.end(tracer.begin("impls.snapshot"))
    tracer.unwind(root)
    assert tracer.ends[validate] > 0
    layers = tracer.self_times()
    (snapshot,) = tracer.durations("impls.snapshot")[:1]
    assert layers["impls.snapshot"] == pytest.approx(snapshot)
    assert layers["executor.validate"] == pytest.approx(
        tracer.durations("executor.validate")[0])
    # A child that outlasts its parent is a layer counted twice.
    tracer.ends[1] = tracer.ends[0] + 1.0
    with pytest.raises(RuntimeError, match="negative self time"):
        tracer.self_times()


def test_seed_changes_only_the_generated_programs(registry):
    harness = ThroughputHarness(registry=registry)
    for workload in WORKLOADS.values():
        if not workload.runtime:
            continue
        one, two = (instance_specs(workload, seed) for seed in (1, 2))
        assert len(one) == len(two) == workload.instances
        assert {spec.seed for spec in one}.isdisjoint(
            spec.seed for spec in two)
        for a, b in zip(one, two):
            assert replace(a, seed=0) == replace(b, seed=0) \
                == workload.shape
        structure = workload.structures[-1]  # Accumulator reads are all alike
        assert harness.generator.generate(structure, one[0]) != \
            harness.generator.generate(structure, two[0])
        assert harness.generator.generate(structure, one[0]) == \
            harness.generator.generate(structure,
                                       instance_specs(workload, 1)[0])


def test_metric_names_are_well_formed_and_all_reported():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.REPORTED_UNITS)
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layers = {m["name"] for m in spec["per_layer"]}
    reported = set(worker.LAYER_METRICS) - {"trace.timed_s"} \
        | {"trace.overhead"}
    assert reported == layers
