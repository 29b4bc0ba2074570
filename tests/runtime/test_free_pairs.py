"""The free-pair table is an accelerator, not a policy.

:meth:`ConflictManager._free_partners` names the logged operations an
incoming one commutes with in every state (a read whose between
condition is literally ``true``), and the admission scan skips those
pairs after counting them.  Skipping must never change a decision or a
counter: each builtin plus the custom Register, flat and sharded, plain
and on the stable (drift-guard) path, over read-only, write-heavy and
mixed traffic, produces a byte-identical decision digest and equal
``counters()`` and ``shard_stats()`` with the table and with it emptied
so every pair goes through :meth:`ConflictManager._pair_commutes`."""

import pytest
from register_fixture import (build_register_conditions,
                              make_register_spec)
from stability_fixture import ALL_STRUCTURES

from repro.api import Registry
from repro.runtime import gatekeeper
from repro.runtime.backend import LocalAdmissionBackend
from repro.runtime.gatekeeper import conflict_manager
from repro.workloads import ThroughputHarness, WorkloadSpec

#: The benchmark's ``readonly-deep-log`` shape: read-only Zipfian over
#: a deep log, where every pair is free.
READONLY = WorkloadSpec(name="free-readonly", profile="read-only",
                        distribution="zipfian", transactions=16,
                        ops_per_transaction=18, key_space=128,
                        value_space=4, preload=64, seed=5)

#: Write-heavy hot-key: mutating pairs and aborts, few free pairs.
HOTKEY = WorkloadSpec(name="free-hotkey", profile="write-heavy",
                      distribution="hot-key", transactions=10,
                      ops_per_transaction=6, key_space=24, value_space=3,
                      preload=16, seed=9)

#: Mixed: free read pairs interleaved with conditioned ones.
MIXED = WorkloadSpec(name="free-mixed", profile="mixed",
                     distribution="hot-key", transactions=8,
                     ops_per_transaction=5, key_space=12, value_space=3,
                     preload=10, seed=2)

SHAPES = (READONLY, HOTKEY, MIXED)


class _CapturingBackend(LocalAdmissionBackend):
    """The in-process backend, keeping the last manager it handed out
    so its counters can be read after the run."""

    def conflict_manager(self, ds_name, **kwargs):
        self.manager = super().conflict_manager(ds_name, **kwargs)
        return self.manager


def _no_free_pairs(monkeypatch):
    monkeypatch.setattr(gatekeeper.ConflictManager, "_free_partners",
                        lambda self, m2: frozenset())


def _observe(registry, structure, workload, **kwargs):
    """(digest, counters, shard stats) of one serial run."""
    backend = _CapturingBackend(registry)
    harness = ThroughputHarness(registry=registry, backend=backend)
    run = harness.run_one(structure, workload, workers=1, **kwargs)
    assert run.serializable
    manager = backend.manager
    return (run.report.decision_digest(), manager.counters(),
            manager.shard_stats())


def _assert_identical(monkeypatch, registry, structure, workload,
                      **kwargs):
    fast = _observe(registry, structure, workload, **kwargs)
    with monkeypatch.context() as patch:
        _no_free_pairs(patch)
        reference = _observe(registry, structure, workload, **kwargs)
    assert fast == reference, f"{structure} on {workload.name} {kwargs}"


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_table_never_changes_decisions(monkeypatch, runnable_registry,
                                       structure, shards):
    for workload in SHAPES:
        _assert_identical(monkeypatch, runnable_registry, structure,
                          workload, shards=shards)


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_table_stable_path_identity(monkeypatch, stable_session,
                                    structure):
    for workload in SHAPES:
        _assert_identical(monkeypatch, stable_session.registry, structure,
                          workload, shards=4, stable=True)


def _tables(registry, structure):
    manager = conflict_manager(structure, registry=registry)
    return {m2: manager._free_partners(m2)
            for m2 in manager.spec.operations}


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_no_mutator_is_ever_free(runnable_registry, structure):
    operations = runnable_registry.spec(structure).operations
    for m2, free in _tables(runnable_registry, structure).items():
        assert not any(operations[m1].mutator for m1 in free), (
            structure, m2, free)


def test_exact_tables():
    registry = Registry.with_builtins()
    reads = frozenset({"contains", "size"})
    assert _tables(registry, "ListSet") == {
        "contains": reads, "size": reads, "add": frozenset(),
        "add_": frozenset(), "remove": frozenset(),
        "remove_": frozenset()}
    table = _tables(registry, "HashTable")
    for m2 in ("get", "containsKey", "size"):
        assert table[m2] == {"containsKey", "get", "size"}


def test_other_policies_have_no_free_pairs():
    for policy in ("read-write", "mutex"):
        manager = conflict_manager("HashTable", policy)
        assert manager._free_partners("get") == frozenset()


def _register_tables(edit):
    """The Register tables over a catalog rewritten by ``edit``."""
    registry = Registry.with_builtins()
    registry.register_spec("Register", make_register_spec)
    registry.register_conditions(
        "Register", lambda spec: edit(build_register_conditions(spec)))
    return _tables(registry, "Register")


def test_missing_catalog_pair_builds_without_raising():
    tables = _register_tables(lambda conditions: [
        c for c in conditions if (c.m1, c.m2) != ("read", "read")])
    assert tables == {"read": frozenset(), "write": frozenset()}


def test_unparsable_dynamic_text_builds_without_raising():
    """The scan would raise only when the broken pair occurs, so the
    table build, which visits every pair, must not raise at all."""
    def break_read_read(conditions):
        for c in conditions:
            if (c.m1, c.m2) == ("read", "read"):
                c.dynamic_text = "true &"
        return conditions

    assert _register_tables(break_read_read) == {
        "read": frozenset(), "write": frozenset()}


def test_read_only_run_never_reaches_the_interpreter(monkeypatch):
    """A pinned read-only instance: every pair is free, so the fast path
    makes no ``_pair_commutes`` call yet counts exactly the reference
    run's pair checks."""
    calls = []
    original = gatekeeper.ConflictManager._pair_commutes

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(gatekeeper.ConflictManager, "_pair_commutes",
                        counting)
    registry = Registry.with_builtins()
    _, fast, _ = _observe(registry, "HashTable", READONLY, shards=1)
    assert not calls
    with monkeypatch.context() as patch:
        _no_free_pairs(patch)
        _, reference, _ = _observe(registry, "HashTable", READONLY,
                                   shards=1)
    assert len(calls) == reference["checks"] > 0
    assert fast["checks"] == reference["checks"]
