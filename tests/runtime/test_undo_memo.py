"""The undo-commutation memo is an accelerator, not a policy.

Every manager memoizes the undo guard's verdicts, so the memo must
never change a decision: each builtin plus the custom Register, flat
and sharded, plain and on the stable (drift-guard) path, produces a
byte-identical decision digest with the memo and with every lookup
forced through the uncached reference :meth:`_undo_commutes_fresh`.
The memos are bounded too: a manager reused across runs, the way a
server domain is after ``reset()``, keeps each one within
:data:`~repro.runtime.gatekeeper.MEMO_CAP`."""

import sys
import threading

import pytest
from stability_fixture import ALL_STRUCTURES

from repro.runtime import gatekeeper
from repro.runtime.backend import LocalAdmissionBackend
from repro.workloads import ThroughputHarness, WorkloadSpec

#: Write-heavy hot-key over a preloaded structure: deep logs, many
#: mutating pairs, so the undo guard (and its memo) carries traffic.
GATE = WorkloadSpec(name="identity-gate", profile="write-heavy",
                    distribution="hot-key", transactions=10,
                    ops_per_transaction=6, key_space=24, value_space=3,
                    preload=16, seed=9)

#: A mixed profile so observer pairs (r1-dependent conditions) run too.
MIX = WorkloadSpec(name="identity-mix", profile="mixed",
                   distribution="hot-key", transactions=8,
                   ops_per_transaction=5, key_space=12, value_space=3,
                   preload=10, seed=2)


def _unmemoized(monkeypatch):
    monkeypatch.setattr(gatekeeper.ConflictManager, "_undo_commutes",
                        gatekeeper.ConflictManager._undo_commutes_fresh)


def _digests(monkeypatch, harness, structure, workload, **kwargs):
    """(memoized run, unmemoized run) of one cell, both serializable."""
    memoized = harness.run_one(structure, workload, workers=1, **kwargs)
    with monkeypatch.context() as patch:
        _unmemoized(patch)
        fresh = harness.run_one(structure, workload, workers=1, **kwargs)
    assert memoized.serializable and fresh.serializable
    return memoized.report, fresh.report


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_memo_never_changes_decisions(monkeypatch, runnable_registry,
                                      structure, shards):
    harness = ThroughputHarness(registry=runnable_registry)
    for workload in (GATE, MIX):
        memoized, fresh = _digests(monkeypatch, harness, structure,
                                   workload, shards=shards)
        assert memoized.decision_digest() == fresh.decision_digest(), (
            f"{structure} @ {shards} shards on {workload.name}")
        assert memoized.undo_refusals == fresh.undo_refusals


@pytest.mark.parametrize("structure", ALL_STRUCTURES)
def test_memo_stable_path_identity(monkeypatch, stable_session,
                                   structure):
    """On the drift-guard path too, without losing a single
    stable-certified admission to the memo."""
    harness = ThroughputHarness(registry=stable_session.registry)
    memoized, fresh = _digests(monkeypatch, harness, structure, GATE,
                               shards=4, stable=True)
    assert memoized.decision_digest() == fresh.decision_digest()
    assert memoized.stable_hits == fresh.stable_hits
    assert memoized.drift_fallbacks == fresh.drift_fallbacks


# -- bounded memos -------------------------------------------------------------

class _ReusingBackend(LocalAdmissionBackend):
    """Hands out one manager per configuration, ``reset()`` between
    runs — the server's domain-reuse path, in process."""

    def __init__(self, registry=None) -> None:
        super().__init__(registry)
        self.managers = {}

    def conflict_manager(self, ds_name, **kwargs):
        key = (ds_name, tuple(sorted(kwargs.items())))
        manager = self.managers.get(key)
        if manager is None:
            manager = self.managers[key] = super().conflict_manager(
                ds_name, **kwargs)
        else:
            manager.reset()
        return manager


def _soak(seed: int) -> WorkloadSpec:
    """A 6x6 hot-key run over an open key space; every seed visits
    different states, so nothing but the cap stops memo growth."""
    return WorkloadSpec(name="memo-soak", profile="write-heavy",
                        distribution="hot-key", transactions=6,
                        ops_per_transaction=6, key_space=64,
                        value_space=8, seed=seed)


def _memo_sizes(manager) -> dict[str, int]:
    return {"undo_memo": len(manager._undo_memo),
            "undo_plans": len(manager._undo_plans),
            "virtual_routes": len(manager._virtual_routes)}


@pytest.mark.parametrize("structure", ("Accumulator", "HashTable",
                                       "ArrayList"))
def test_reset_reused_manager_memos_stay_within_the_cap(structure):
    backend = _ReusingBackend()
    harness = ThroughputHarness(backend=backend)
    peak = dict.fromkeys(("undo_memo", "undo_plans", "virtual_routes"), 0)
    for seed in range(200):
        run = harness.run_one(structure, _soak(seed), workers=1, shards=1)
        assert run.serializable
        (manager,) = backend.managers.values()
        for name, size in _memo_sizes(manager).items():
            assert size <= gatekeeper.MEMO_CAP, (structure, seed, name)
            peak[name] = max(peak[name], size)
    if structure == "Accumulator":
        # Every counter value is a new state: the undo memo fills up
        # and keeps evicting at the cap.
        assert peak["undo_memo"] == gatekeeper.MEMO_CAP


def test_eviction_never_changes_decisions(monkeypatch):
    """A tiny cap evicts constantly; a reused, evicting manager still
    decides exactly like a fresh one."""
    monkeypatch.setattr(gatekeeper, "MEMO_CAP", 8)
    backend = _ReusingBackend()
    reused = ThroughputHarness(backend=backend)
    fresh = ThroughputHarness()
    for seed in range(20):
        for structure in ("HashTable", "ArrayList"):
            kept = reused.run_one(structure, _soak(seed), workers=1)
            assert kept.report.decision_digest() == fresh.run_one(
                structure, _soak(seed), workers=1).report.decision_digest()
    for manager in backend.managers.values():
        assert max(_memo_sizes(manager).values()) == 8


def test_racing_inserts_stay_near_the_cap(monkeypatch):
    """Shards share the memos without a lock: racing inserts never
    raise, and overshoot the cap by at most one entry per thread."""
    monkeypatch.setattr(gatekeeper, "MEMO_CAP", 16)
    memo: dict = {}
    threads, errors = 8, []

    def insert(tag):
        try:
            for i in range(2000):
                gatekeeper._remember(memo, (tag, i), i)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=insert, args=(t,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert len(memo) <= 16 + threads
