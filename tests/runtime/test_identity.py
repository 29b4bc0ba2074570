"""Decision identity of the single admission path: flat == sharded,
tier relabelling never changes a decision, threaded runs stay
serializable, EvalError diagnostics name the failing pair, and the
decision digest is the same in every process whatever its hash seed."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import Record
from repro.runtime import Gatekeeper, LoggedOperation
from repro.workloads import ThroughputHarness, WorkloadSpec

#: Write-heavy hot-key over a preloaded structure: deep logs, many
#: pair checks.
GATE = WorkloadSpec(name="identity-gate", profile="write-heavy",
                    distribution="hot-key", transactions=10,
                    ops_per_transaction=6, key_space=24, value_space=3,
                    preload=16, seed=9)

SRC = Path(__file__).resolve().parents[2] / "src"


def test_flat_equals_sharded_on_the_hot_key_gate(runnable_registry):
    harness = ThroughputHarness(registry=runnable_registry)
    flat = harness.run_one("HashSet", GATE, workers=1, shards=1)
    sharded = harness.run_one("HashSet", GATE, workers=1, shards=4)
    assert flat.report.decision_digest() \
        == sharded.report.decision_digest()


@pytest.mark.parametrize("structure", ("HashSet", "ArrayList"))
def test_threaded_hot_key_stays_serializable(runnable_registry,
                                             structure):
    """Decisions are scheduling-dependent at workers=4; the contract
    there is serializability."""
    harness = ThroughputHarness(registry=runnable_registry,
                                max_rounds=500_000)
    run = harness.run_one(structure, GATE, workers=4, shards=4)
    assert run.serializable, run.report.summary()


def test_tier_demotion_never_changes_decisions(stable_session):
    """Tier is provenance, not policy: flipping every HashTable stable
    condition's tier re-labels the hit counters (proved_hits vs
    stable_hits) but leaves the decision digest byte-identical."""
    registry = stable_session.registry
    original = registry.stable_conditions("HashTable")
    harness = ThroughputHarness(registry=registry)
    baseline = harness.run_one("HashTable", GATE, workers=1, shards=4,
                               stable=True)
    assert baseline.stable_hits > 0 and baseline.report.proved_hits == 0
    flipped = [dataclasses.replace(c, tier="proved") for c in original]
    registry.register_stable_conditions("HashTable", flipped,
                                        replace=True)
    try:
        promoted = harness.run_one("HashTable", GATE, workers=1,
                                   shards=4, stable=True)
    finally:
        registry.register_stable_conditions("HashTable", original,
                                            replace=True)
    assert promoted.report.proved_hits == baseline.stable_hits
    assert promoted.stable_hits == 0
    assert promoted.report.decision_digest() \
        == baseline.report.decision_digest()


# -- EvalError samples name the failing pair ----------------------------------

def test_eval_error_sample_names_the_pair():
    """The get(0)/set(1, ...) recipe: evaluating ArrayList's between
    condition on this environment indexes out of range, so the check
    resolves conservatively and must leave a usable diagnostic."""
    gk = Gatekeeper("ArrayList")
    state = Record(elems=("a",))
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=state, after=state))
    gk.admits(2, "set", (1, "x"), state)
    assert gk.eval_errors == 1
    (sample,) = gk.eval_error_samples()
    assert sample["structure"] == "ArrayList"
    assert sample["m1"] == "get" and sample["m2"] == "set"
    assert sample["error"]
    assert sample["stable"] is False
    assert sample["condition"]  # the formula text, not a placeholder


def test_eval_error_sample_reaches_the_report(runnable_registry):
    """End to end: a run that trips EvalErrors surfaces the bounded
    sample on its ExecutionReport (what the bench artifact uploads)."""
    harness = ThroughputHarness(registry=runnable_registry)
    run = harness.run_one("ArrayList", GATE, workers=1, shards=1)
    if run.eval_errors:
        assert run.report.eval_error_sample
        for entry in run.report.eval_error_sample:
            assert set(entry) == {"structure", "m1", "m2", "condition",
                                  "error", "stable"}


# -- canonical digests ---------------------------------------------------------

#: Prints one pinned 8x8 hot-key run's digest per structure.  Set-valued
#: states (HashSet, ListSet) are where a ``repr``-based digest used to
#: follow the hash seed's frozenset order.
_DIGESTS = """
import json
from repro.workloads import ThroughputHarness, WorkloadSpec
spec = WorkloadSpec(name="seeded", profile="write-heavy",
                    distribution="hot-key", transactions=8,
                    ops_per_transaction=8, key_space=24, value_space=3,
                    preload=24, seed=3)
harness = ThroughputHarness()
print(json.dumps({name: harness.run_one(name, spec, workers=1)
                  .report.decision_digest()
                  for name in ("HashSet", "ListSet", "HashTable")}))
"""


def _digests_under(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _DIGESTS], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


def test_decision_digest_is_canonical_across_hash_seeds():
    first, second = _digests_under("1"), _digests_under("2")
    assert set(first) == {"HashSet", "ListSet", "HashTable"}
    assert first == second
