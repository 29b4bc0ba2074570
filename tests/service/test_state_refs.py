"""Per-connection state references: each distinct abstract state
crosses the wire once, later frames name it by id, and decisions stay
byte-identical to in-process admission at any table size."""

import json
import socket
import struct

import pytest

from repro.eval import Record
from repro.eval.values import FMap
from repro.runtime import LoggedOperation
from repro.runtime.backend import AdmissionBackend, LocalAdmissionBackend
from repro.service import protocol
from repro.service.client import ServiceBackend, ServiceClient, ServiceError
from repro.workloads import ThroughputHarness, WorkloadSpec

from conftest import LiveServer


def _workload(seed=3):
    # Hot-key writes over a preloaded structure: many distinct states,
    # so a tiny table evicts constantly and inlines when full.
    return WorkloadSpec(name="state-refs", profile="write-heavy",
                        distribution="hot-key", transactions=6,
                        ops_per_transaction=6, key_space=12,
                        value_space=3, preload=8, seed=seed)


class _Capturing(AdmissionBackend):
    """Keeps every manager the inner backend hands out, so a test can
    read ``counters()`` after the executor has closed it."""

    supports_threads = False

    def __init__(self, inner: AdmissionBackend) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.managers = []

    def conflict_manager(self, ds_name, **kwargs):
        manager = self.inner.conflict_manager(ds_name, **kwargs)
        self.managers.append(manager)
        return manager

    def close(self) -> None:
        self.inner.close()


def _run(structure, shards, inner, seed=3):
    backend = _Capturing(inner)
    try:
        run = ThroughputHarness(workers=1).run_one(
            structure, _workload(seed), policy="commutativity",
            workers=1, shards=shards, backend=backend)
    finally:
        backend.close()
    (manager,) = backend.managers
    return (run.report.decision_digest(), manager.counters(),
            run.report.shard_stats)


STRUCTURES = ThroughputHarness().runnable_structures()


# -- differential identity ----------------------------------------------------

def test_every_builtin_is_covered():
    assert len(STRUCTURES) == 6


@pytest.mark.parametrize("cap", [2, 64])
@pytest.mark.parametrize("shards", [1, 4])
def test_served_runs_match_local_ones_at_any_table_size(
        live_server, monkeypatch, cap, shards):
    monkeypatch.setattr(protocol, "STATE_CACHE", cap)
    for structure in STRUCTURES:
        local = _run(structure, shards, LocalAdmissionBackend())
        served = _run(structure, shards,
                      ServiceBackend(live_server.host, live_server.port))
        assert served == local, (structure, cap, shards)


def test_cluster_runs_match_local_ones_with_a_tiny_table(
        live_cluster, monkeypatch):
    """One shard: the whole domain lives on worker 0 and the counters
    match an in-process manager's exactly."""
    monkeypatch.setattr(protocol, "STATE_CACHE", 2)
    for structure in STRUCTURES:
        local = _run(structure, 1, LocalAdmissionBackend())
        clustered = _run(structure, 1, ServiceBackend(
            live_cluster.host, live_cluster.port))
        assert clustered == local, structure


def test_cluster_references_match_inline_states(live_cluster,
                                                monkeypatch):
    """Four shards over two workers: global ops are checked once per
    worker, so counters differ from in-process by design; they must
    not differ from the same cluster fed whole states inline."""
    def cluster():
        return ServiceBackend(live_cluster.host, live_cluster.port)

    monkeypatch.setattr(protocol, "STATE_CACHE", 2)
    for structure in STRUCTURES:
        local_digest = _run(structure, 4, LocalAdmissionBackend())[0]
        by_ref = _run(structure, 4, cluster())
        with monkeypatch.context() as inline:
            inline.setattr(protocol.StateTable, "ref",
                           lambda self, state:
                           protocol.encode_value(state))
            by_value = _run(structure, 4, cluster())
        assert by_ref == by_value, structure
        assert by_ref[0] == local_digest, structure


# -- bounded tables -----------------------------------------------------------

def test_tables_stay_bounded_over_reused_domains(monkeypatch):
    """50 pooled runs over one reset-reused domain, a fresh seed each:
    neither side's table ever holds more than STATE_CACHE entries, at
    the moments they peak (client: just before a send; server: just
    after a frame's definitions)."""
    cap = 8
    monkeypatch.setattr(protocol, "STATE_CACHE", cap)
    peaks = {"client": 0, "server": 0}
    attach, define = protocol.StateTable.attach, protocol.define_states

    def spy_attach(self, frame):
        peaks["client"] = max(peaks["client"], len(self))
        return attach(self, frame)

    def spy_define(table, frame):
        keep = define(table, frame)
        peaks["server"] = max(peaks["server"], len(table))
        return keep

    monkeypatch.setattr(protocol.StateTable, "attach", spy_attach)
    monkeypatch.setattr(protocol, "define_states", spy_define)
    server = LiveServer()
    backend = ServiceBackend(server.host, server.port)
    harness = ThroughputHarness(workers=1)
    try:
        for seed in range(50):
            run = harness.run_one("HashTable", _workload(seed),
                                  workers=1, backend=backend)
            assert run.report.serializable
            (client,) = backend._clients
            (table,) = server.server._state_tables.values()
            assert len(client.states) == len(table) <= cap
        assert backend.domain_reuses == 49
        snapshot = server.server.metrics_snapshot()["server"]
        # The tables really turned over: far more states were defined
        # than fit, and most state slots still rode as references.
        assert snapshot["state_defs_total"] > 10 * cap
        assert snapshot["state_refs_total"] > snapshot["state_defs_total"]
        assert snapshot["state_entries"] == len(table)
    finally:
        backend.close()
        server.stop()
    assert 0 < peaks["client"] <= cap
    assert 0 < peaks["server"] <= cap


# -- codec round trip ---------------------------------------------------------

STATES = [
    Record(contents=frozenset({3, 1, 2}), size=3),
    Record(contents=FMap({"k1": "a", "k2": "b"}), size=2),
    Record(elems=("x", "y"), size=2),
    Record(value=-7),
    Record(contents=frozenset(), size=0),
]


def test_state_table_round_trip_matches_the_inline_codec(monkeypatch):
    monkeypatch.setattr(protocol, "STATE_CACHE", 4)
    table = protocol.StateTable()
    server: dict[int, object] = {}
    # Two passes: the second is served from the table (or inline where
    # the first pass filled it).
    for state in STATES + STATES:
        frame = table.attach(protocol.check_frame(
            0, 1, "contains", (1,), state, states=table))
        wire = protocol.decode_body(protocol.pack_frame(frame)[4:])
        keep = protocol.define_states(server, wire)
        decoded = protocol.decode_state(wire["state"], server)
        expected = protocol.decode_value(protocol.encode_value(state))
        assert decoded == expected
        assert type(decoded) is type(expected)
        if keep is not None:
            protocol.drop_states(server, keep)
        assert len(server) == len(table) <= 4


def test_record_frames_reference_before_and_after():
    table = protocol.StateTable()
    before, after = STATES[0], STATES[0].replace(size=4)
    entry = LoggedOperation(txn_id=1, op_name="add", args=(4,),
                            result=True, before=before, after=after)
    frame = table.attach(protocol.record_frame(0, entry, states=table))
    assert frame["entry"]["before"] == 0 and frame["entry"]["after"] == 1
    assert [sid for sid, _ in frame["defs"]] == [0, 1]
    # A later use of an equal (but distinct) state is a bare reference.
    again = table.attach(protocol.check_frame(
        0, 2, "add", (5,), Record(contents=before["contents"],
                                  size=4), states=table))
    assert again["state"] == 1 and "defs" not in again
    server: dict[int, object] = {}
    protocol.define_states(server, frame)
    back = protocol.unwire_operation(frame["entry"], server)
    assert back.before == before and back.after == after


def test_a_full_table_sends_states_inline(monkeypatch):
    monkeypatch.setattr(protocol, "STATE_CACHE", 2)
    table = protocol.StateTable()
    payloads = [protocol.check_frame(0, 1, "get", (0,), state,
                                     states=table)["state"]
                for state in STATES[:3]]
    assert payloads[:2] == [0, 1]
    assert payloads[2] == protocol.encode_value(STATES[2])
    # The next send evicts the oldest id and tells the server so.
    frame = table.attach(protocol.ping_frame())
    assert frame["keep"] == 1 and len(table) == 1


# -- fault outcomes -----------------------------------------------------------

def test_unknown_state_id_fails_only_that_frame(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    try:
        domain = client.call(protocol.open_frame("HashSet"))["domain"]
        frame = protocol.check_frame(domain, 1, "add", (1,), STATES[0])
        frame["state"] = 12345
        with pytest.raises(ServiceError, match="unknown state id 12345"):
            client.call(frame)
        assert client.call(protocol.ping_frame())["ok"] is True
    finally:
        client.close()


def _raw_exchange(server, frame: dict) -> tuple[dict, bytes]:
    """Hello, then ``frame`` on a raw socket: the response to ``frame``
    and whatever the server sends after it."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10.0) as sock:
        reader = sock.makefile("rb")
        responses = []
        for payload in (protocol.hello_frame(), frame):
            sock.sendall(protocol.pack_frame(payload))
            (length,) = struct.unpack(">I", reader.read(4))
            responses.append(json.loads(reader.read(length)))
        assert responses[0]["ok"] is True
        return responses[1], reader.read()


@pytest.mark.parametrize("defs", [
    [["x", {"#": "rec", "v": {}}]],   # id not an int
    [[0]],                             # no payload
    [[0, {"#": "nope", "v": 1}]],      # undecodable state
    7,                                 # not a list
])
def test_malformed_defs_get_an_error_frame_and_close(live_server, defs):
    response, rest = _raw_exchange(live_server,
                                   {"t": "ping", "defs": defs})
    assert response["ok"] is False
    assert rest == b""  # the server closed the connection
    probe = ServiceClient(live_server.host, live_server.port)
    try:
        assert probe.call(protocol.ping_frame())["ok"] is True
    finally:
        probe.close()


def test_definitions_past_the_cap_close_the_connection(live_server):
    defs = [[sid, protocol.encode_value(Record(value=sid))]
            for sid in range(protocol.STATE_CACHE + 1)]
    response, rest = _raw_exchange(live_server,
                                   {"t": "ping", "defs": defs})
    assert response["ok"] is False and "cap" in response["error"]
    assert rest == b""


def test_a_v2_hello_is_refused(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    try:
        with pytest.raises(ServiceError, match="version mismatch"):
            client.call({"t": "hello", "v": 2})
    finally:
        client.close()
