"""Spans the benchmark records around calls into each layer.

Nothing in ``src/`` is changed for tracing.  In the traced process only,
:func:`instrumented` replaces the names the program's callers bind to
(a module global, a class attribute) with thin wrappers that record a
span per call, and puts the originals back on exit.  Admission is timed
through the public :class:`~repro.runtime.backend.AdmissionBackend`
seam instead: :class:`TimingBackend` delegates to the local or service
backend and wraps the manager it hands out.

A span is ``(name, start, end, parent, run)``; spans live in memory
and are written out once, when the run ends.  A layer's self time is
its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable

from repro.runtime.backend import AdmissionBackend

#: Spans whose whole subtree counts as one layer: the validation phase
#: after the execution window includes the final snapshot and the
#: serial replay, by definition of ``executor.validate_s``.
FOLDED = frozenset({"executor.validate"})

#: The engine's task kinds, by the per-layer metric each one feeds.
ENGINE_KINDS = {
    "commutativity": "engine.commutativity",
    "inverse": "engine.inverse",
    "stability": "engine.stability",
    "symbolic_stability": "engine.prover",
    "abduction": "engine.abduction",
}


class Tracer:
    """An in-memory span recorder plus counters kept at the same
    boundaries.  Spans are stored column-wise; parents always precede
    their children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} ended out of "
                               f"order")
        self._stack.pop()

    def unwind(self, index: int) -> None:
        """End every span still open above ``index``, then ``index``."""
        while self._stack and self._stack[-1] != index:
            self.end(self._stack[-1])
        self.end(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self.__init__()

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i]
                for i, span in enumerate(self.names) if span == name]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name; a :data:`FOLDED` span counts
        inclusively and its descendants count nowhere else.  Raises if
        any span's children cover more than the span itself, which
        would mean a layer is counted twice."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        folded = [False] * n
        totals: dict[str, float] = {}
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0 and (folded[parent]
                                or self.names[parent] in FOLDED):
                folded[i] = True
                continue
            duration = self.ends[i] - self.starts[i]
            own = duration if self.names[i] in FOLDED \
                else duration - child[i]
            if own < -1e-6:
                raise RuntimeError(f"span {self.names[i]!r} has negative "
                                   f"self time {own:.9f}s")
            totals[self.names[i]] = totals.get(self.names[i], 0.0) + own
        return totals

    def export(self, pass_number: int) -> list[dict]:
        """Every span as a plain dict; ``run`` is ``pass:run``."""
        return [{"name": name, "start": self.starts[i], "end": self.ends[i],
                 "parent": self.parents[i],
                 "run": f"{pass_number}:{self.runs[i]}"}
                for i, name in enumerate(self.names)]


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # The owner's own dict entry, not an inherited one: restoring
        # must leave the class exactly as it was.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _plan(tracer: Tracer, registry) -> list[tuple[Any, str, Callable]]:
    """``(owner, attribute, make_wrapper)`` for every name the traced
    process replaces: the names the program's callers bind to."""
    from repro.engine import runner
    from repro.runtime import executor
    from repro.service import client, protocol
    from repro.workloads.generator import WorkloadGenerator

    def span(name: str) -> Callable:
        return lambda fn: _spanned(tracer, name, fn)

    plan = [(WorkloadGenerator, "generate", span("workloads.generate")),
            (WorkloadGenerator, "generate_setup",
             span("workloads.generate")),
            (executor, "invoke_concrete", span("impls.apply")),
            (executor, "rollback", lambda fn: _rollback_wrapper(tracer, fn)),
            (client.ServiceClient, "call", span("client.rpc")),
            (runner, "execute_task", lambda fn: _task_wrapper(tracer, fn)),
            (protocol, "pack_frame", lambda fn: _pack_wrapper(tracer, fn)),
            (protocol, "decode_body",
             lambda fn: _decode_wrapper(tracer, fn))]
    plan += [(protocol, name, span("protocol.encode"))
             for name in ("check_frame", "record_frame", "release_frame",
                          "batch_frame")]
    impl_classes = {type(registry.new_instance(name))
                    for name in registry.names()
                    if registry.has_implementation(name)}
    plan += [(cls, "abstract_state", span("impls.snapshot"))
             for cls in sorted(impl_classes, key=lambda c: c.__name__)]
    return plan


def patch_points(registry) -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` :func:`instrumented` replaces."""
    return [(owner, attr) for owner, attr, _ in _plan(Tracer(), registry)]


@contextmanager
def instrumented(tracer: Tracer, registry):
    """Install the span wrappers for the duration of the block."""
    patches = Patches()
    try:
        for owner, attr, make_wrapper in _plan(tracer, registry):
            patches.set(owner, attr, make_wrapper(vars(owner)[attr]))
        yield
    finally:
        patches.restore()


def _rollback_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def rollback(impl, family, undo_log, registry=None):
        tracer.count("transaction.rollbacks")
        tracer.count("transaction.undo_entries", len(undo_log))
        index = tracer.begin("transaction.rollback")
        try:
            return fn(impl, family, undo_log, registry=registry)
        finally:
            tracer.end(index)
    rollback.__wrapped__ = fn
    return rollback


def _task_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def execute_task(task, registry=None):
        tracer.count("engine.tasks")
        index = tracer.begin(ENGINE_KINDS.get(task.kind, "engine.other"))
        try:
            return fn(task, registry)
        finally:
            tracer.end(index)
    execute_task.__wrapped__ = fn
    return execute_task


def _pack_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def pack_frame(frame):
        index = tracer.begin("protocol.encode")
        try:
            packed = fn(frame)
        finally:
            tracer.end(index)
        tracer.count("protocol.bytes_out", len(packed))
        return packed
    pack_frame.__wrapped__ = fn
    return pack_frame


def _decode_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def decode_body(body):
        # The 4-byte length prefix travels with every body.
        tracer.count("protocol.bytes_in", len(body) + 4)
        index = tracer.begin("protocol.decode")
        try:
            return fn(body)
        finally:
            tracer.end(index)
    decode_body.__wrapped__ = fn
    return decode_body


class TimingManager:
    """Delegates to an admission manager and times the four calls the
    executor makes per step.  Everything else (the counter surface)
    passes straight through."""

    def __init__(self, inner, tracer: Tracer, window: int) -> None:
        self._inner = inner
        self._tracer = tracer
        self._window = window

    def shards_for(self, op_name, args):
        index = self._tracer.begin("gatekeeper.route")
        try:
            return self._inner.shards_for(op_name, args)
        finally:
            self._tracer.end(index)

    def check_many(self, txn_id, op_name, args, current, shard_ids=None):
        tracer = self._tracer
        index = tracer.begin("gatekeeper.check")
        try:
            admitted, holder = self._inner.check_many(
                txn_id, op_name, args, current, shard_ids=shard_ids)
        finally:
            tracer.end(index)
        tracer.count("gatekeeper.checks")
        if admitted:
            tracer.count("gatekeeper.admitted")
        return admitted, holder

    def record(self, entry, *args, **kwargs):
        index = self._tracer.begin("gatekeeper.record")
        try:
            return self._inner.record(entry, *args, **kwargs)
        finally:
            self._tracer.end(index)

    def release(self, txn_id, reason="commit"):
        if reason == "commit":
            self._tracer.count("executor.commits")
        index = self._tracer.begin("gatekeeper.release")
        try:
            return self._inner.release(txn_id, reason=reason)
        finally:
            self._tracer.end(index)

    def close(self) -> None:
        """Closing ends the execution window (the executor reads its
        counters and closes the manager right after its own clock
        stops); what follows until ``run_one`` returns is validation."""
        try:
            self._inner.close()
        finally:
            self._tracer.end(self._window)
            self._tracer.begin("executor.validate")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimingBackend(AdmissionBackend):
    """An admission backend that hands out :class:`TimingManager`
    wrappers around ``inner``'s managers; the manager's lifetime is
    the executor's timed execution window."""

    supports_threads = False

    def __init__(self, inner: AdmissionBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.kind = inner.kind

    def conflict_manager(self, ds_name, **kwargs):
        window = self.tracer.begin("executor.execute")
        try:
            manager = self.inner.conflict_manager(ds_name, **kwargs)
        except BaseException:
            self.tracer.end(window)
            raise
        return TimingManager(manager, self.tracer, window)

    def close(self) -> None:
        self.inner.close()
