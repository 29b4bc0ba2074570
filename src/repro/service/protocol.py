"""Wire protocol for the admission service.

Frames are JSON objects prefixed by a 4-byte big-endian length — one
frame per request, one per response, processed in order per
connection.  JSON is the only codec the container is guaranteed to
have (msgpack would be a drop-in: the frame surface below is
byte-agnostic), so the semantic value types of the spec logic
(:class:`~repro.eval.values.Record`, :class:`~repro.eval.values.FMap`,
``frozenset``, ``tuple``) ride in a tagged form that round-trips them
exactly — admission conditions evaluate over the *decoded* values, so
a lossy codec would silently change decisions.

Request frames (``t`` field):

- ``hello``   — version handshake; the server refuses mismatches.  The
  response carries the server's *cluster map* (worker id, every
  worker's port): a cluster-aware client learns the shard partition
  from it and opens one pooled connection per worker.
- ``open``    — create a server-side admission *domain* (one manager:
  structure, policy, shards, stable arming) → ``domain`` id.
- ``check``   — batched admission (:meth:`ConflictManager.check_many`)
  for one op against the domain's outstanding log → admitted/holder,
  plus the shard the first conflict was found in (a cluster router
  merges per-worker verdicts by smallest conflicting shard, which is
  exactly the single-process first-conflict order).  An explicit
  ``shards`` list restricts the scan to that slice of the routed set
  (cluster workers own ``shard_id % workers == worker_id``).
- ``record``  — log an executed operation (wire LoggedOperation); an
  explicit ``shards`` list restricts storage to that slice.
- ``release`` — drop a transaction's outstanding ops (commit/abort).
- ``reset``   — clear a domain's log/counters/outcomes while keeping
  its manager (compiled stable conditions, memoized routes) warm:
  the domain-reuse path for repeated workload runs.
- ``stats``   — the domain's counters + per-shard stats.
- ``close``   — retire the domain.
- ``batch``   — a list of the above, answered with a list of results
  in one round-trip (the client pipelines record/release frames and
  flushes them with the next check — order preserved, so decisions
  are identical to the unbatched sequence).
- ``ping``    — liveness probe.

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": msg}``.

State references (v3).  Abstract states are the bulk of a frame, and
a connection's traffic repeats the same few states over and over (one
op's ``after`` is the next check's ``state``).  So each connection
interns them: the client's :class:`StateTable` gives every distinct
state an int id, consecutive from 0, and ``check`` (``state``) and
``record`` (``before``/``after``) frames carry that id instead of the
tagged value.  A state's first use queues a *definition*
``[id, encoded state]``; the next top-level frame the client sends
carries the queued definitions as ``"defs"``, and the server decodes
them into its per-connection table before it dispatches the frame.
Both tables are capped at :data:`STATE_CACHE` entries.  When the
client's table passes its low-water mark it drops its oldest ids and
sends ``"keep": <lowest live id>``; the server drops every id below
``keep`` only after it has answered that frame, so frames built
before the eviction still resolve.  A state met while the table is
full rides inline as a tagged value, which the server decodes as
before (hand-built frames with inline states keep working).  An
unknown id answers the sub-frame with an error; a malformed ``defs``
or ``keep``, or definitions past the cap, answer with an error frame
and close the connection.  Every state is a
:class:`~repro.eval.values.Record` (a tagged dict on the wire), so a
bare int in a state slot is always a reference.
"""

from __future__ import annotations

import json
import struct
from itertools import islice
from typing import Any

from ..eval.values import FMap, Record
from ..runtime.gatekeeper import LoggedOperation

#: Bumped on any frame-shape change; ``hello`` carries it and the
#: server refuses clients it cannot speak to.  v2: cluster map in the
#: hello response, explicit ``shards`` slices on check/record, the
#: conflicting shard in check responses, and the ``reset`` frame.
#: v3: per-connection state references (``defs``, ``keep``, int ids
#: in ``state``/``before``/``after``).
PROTOCOL_VERSION = 3

#: Entries in one connection's state table, on either side.  Part of
#: the v3 contract: the server refuses definitions past it.
STATE_CACHE = 64

#: Frames above this are refused outright (a corrupt length prefix
#: must not allocate gigabytes).  Kept under 2**31 so the length
#: prefix of a real frame can never collide with ASCII "GET " — which
#: is how the server sniffs plain-HTTP ``/metrics`` scrapes on the
#: same port (b"GET " as a big-endian length would be ~1.2 GiB).
MAX_FRAME = 1 << 26

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed or out-of-contract frame traffic."""


# -- tagged value codec ------------------------------------------------------
#
# Scalars (str/int/float/bool/None) pass through as themselves; the
# four structured spec-value shapes are tagged dicts so decoding is
# unambiguous.  Anything else is a bug worth failing loudly on.

def encode_value(value: Any) -> Any:
    """JSON-representable form of a spec-logic value."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, Record):
        return {"#": "rec", "v": {k: encode_value(value[k]) for k in value}}
    if isinstance(value, FMap):
        return {"#": "map", "v": {k: encode_value(value[k]) for k in value}}
    if isinstance(value, frozenset):
        return {"#": "set",
                "v": sorted((encode_value(item) for item in value),
                            key=repr)}
    if isinstance(value, tuple):
        return {"#": "seq", "v": [encode_value(item) for item in value]}
    raise ProtocolError(f"unencodable value type {type(value).__name__}")


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if payload is None or isinstance(payload, (str, int, float, bool)):
        return payload
    if isinstance(payload, dict):
        tag, inner = payload.get("#"), payload.get("v")
        if tag == "rec":
            return Record(**{k: decode_value(v) for k, v in inner.items()})
        if tag == "map":
            return FMap({k: decode_value(v) for k, v in inner.items()})
        if tag == "set":
            return frozenset(decode_value(item) for item in inner)
        if tag == "seq":
            return tuple(decode_value(item) for item in inner)
    raise ProtocolError(f"undecodable payload {payload!r}")


# -- per-connection state references ------------------------------------------

class StateTable:
    """The client half of a connection's state references.

    Keyed by state value, not identity: the executor's ``after`` and
    the next step's ``before`` are equal but distinct objects.  Values
    equal under ``==`` share an id, as they already share the
    gatekeeper's undo memo entries.  Eviction is oldest-first, so the
    live ids are always one consecutive run and the table's size is
    the peer's table size too."""

    def __init__(self) -> None:
        #: state -> id, oldest first.
        self._ids: dict[Any, int] = {}
        self._next = 0
        #: Definitions not yet sent.
        self._defs: list[list[Any]] = []

    def __len__(self) -> int:
        return len(self._ids)

    def ref(self, state: Any) -> Any:
        """The wire form of ``state``: its id, or the tagged value
        inline when the table is full until the next send evicts."""
        sid = self._ids.get(state)
        if sid is None:
            if len(self._ids) >= STATE_CACHE:
                return encode_value(state)
            sid = self._ids[state] = self._next
            self._next += 1
            self._defs.append([sid, encode_value(state)])
        return sid

    def attach(self, frame: dict[str, Any]) -> dict[str, Any]:
        """``frame`` plus the queued ``defs``, and ``keep`` when the
        table is past its low-water mark: the oldest ids are dropped so
        the frames built before the next send have room to define
        new states."""
        extra: dict[str, Any] = {}
        if self._defs:
            extra["defs"], self._defs = self._defs, []
        excess = len(self._ids) - (STATE_CACHE - max(1, STATE_CACHE // 8))
        if excess > 0:
            for state in list(islice(self._ids, excess)):
                del self._ids[state]
            extra["keep"] = next(iter(self._ids.values()), self._next)
        return {**frame, **extra} if extra else frame


def _state_payload(state: Any, states: StateTable | None) -> Any:
    return encode_value(state) if states is None else states.ref(state)


def define_states(table: dict[int, Any], frame: dict[str, Any]) \
        -> int | None:
    """Server half: decode ``frame``'s ``defs`` into ``table`` and
    return its validated ``keep`` (to apply once the frame is
    answered).  Anything malformed, or a table past
    :data:`STATE_CACHE`, raises :class:`ProtocolError`."""
    keep = frame.get("keep")
    if keep is not None and type(keep) is not int:
        raise ProtocolError(f"malformed keep {keep!r}")
    defs = frame.get("defs", ())
    try:
        for sid, payload in defs:
            if type(sid) is not int:
                raise ProtocolError(f"malformed state id {sid!r}")
            table[sid] = decode_value(payload)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed state definitions: {exc}") \
            from exc
    if len(table) > STATE_CACHE:
        raise ProtocolError(f"state table past its cap of {STATE_CACHE}")
    return keep


def drop_states(table: dict[int, Any], keep: int) -> None:
    """Forget every id below ``keep``."""
    for sid in [sid for sid in table if sid < keep]:
        del table[sid]


def decode_state(payload: Any, table: dict[int, Any] | None = None) -> Any:
    """A state from its wire form: an id resolved through ``table``,
    or an inline tagged value."""
    if type(payload) is int:
        try:
            return table[payload]
        except (KeyError, TypeError):
            raise ProtocolError(f"unknown state id {payload}") from None
    return decode_value(payload)


def wire_operation(entry: LoggedOperation,
                   states: StateTable | None = None) -> dict[str, Any]:
    """The wire form of one logged operation; with ``states`` its
    before/after ride as references."""
    return {"txn": entry.txn_id, "op": entry.op_name,
            "args": encode_value(tuple(entry.args)),
            "result": encode_value(entry.result),
            "before": _state_payload(entry.before, states),
            "after": _state_payload(entry.after, states)}


def unwire_operation(payload: dict[str, Any],
                     table: dict[int, Any] | None = None) \
        -> LoggedOperation:
    """Inverse of :func:`wire_operation`."""
    return LoggedOperation(txn_id=payload["txn"], op_name=payload["op"],
                           args=decode_value(payload["args"]),
                           result=decode_value(payload["result"]),
                           before=decode_state(payload["before"], table),
                           after=decode_state(payload["after"], table))


# -- framing -----------------------------------------------------------------

def pack_frame(frame: dict[str, Any]) -> bytes:
    """Length-prefixed JSON bytes of one frame."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds cap")
    return _LEN.pack(len(body)) + body


def unpack_length(prefix: bytes) -> int:
    """Decode and bounds-check a 4-byte length prefix."""
    if len(prefix) != _LEN.size:
        raise ProtocolError("truncated length prefix")
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap")
    return length


def decode_body(body: bytes) -> dict[str, Any]:
    """Decode a frame body; the top level must be a JSON object."""
    frame = json.loads(body.decode("utf-8"))
    if not isinstance(frame, dict):
        raise ProtocolError("frame is not an object")
    return frame


# -- request builders --------------------------------------------------------

def hello_frame() -> dict[str, Any]:
    return {"t": "hello", "v": PROTOCOL_VERSION}


def open_frame(structure: str, *, policy: str = "commutativity",
               shards: int = 1, stable: bool = False,
               label: str = "") -> dict[str, Any]:
    return {"t": "open", "structure": structure, "policy": policy,
            "shards": shards, "stable": stable, "label": label}


def check_frame(domain: int, txn_id: int, op_name: str,
                args: tuple[Any, ...], current: Record,
                shards: tuple[int, ...] | None = None,
                states: StateTable | None = None) -> dict[str, Any]:
    frame = {"t": "check", "d": domain, "txn": txn_id, "op": op_name,
             "args": encode_value(tuple(args)),
             "state": _state_payload(current, states)}
    if shards is not None:
        frame["shards"] = list(shards)
    return frame


def record_frame(domain: int, entry: LoggedOperation,
                 shards: tuple[int, ...] | None = None,
                 states: StateTable | None = None) -> dict[str, Any]:
    frame = {"t": "record", "d": domain,
             "entry": wire_operation(entry, states)}
    if shards is not None:
        frame["shards"] = list(shards)
    return frame


def release_frame(domain: int, txn_id: int,
                  reason: str = "commit") -> dict[str, Any]:
    return {"t": "release", "d": domain, "txn": txn_id, "reason": reason}


def reset_frame(domain: int) -> dict[str, Any]:
    return {"t": "reset", "d": domain}


def stats_frame(domain: int) -> dict[str, Any]:
    return {"t": "stats", "d": domain}


def close_frame(domain: int) -> dict[str, Any]:
    return {"t": "close", "d": domain}


def batch_frame(frames: list[dict[str, Any]]) -> dict[str, Any]:
    return {"t": "batch", "frames": frames}


def ping_frame() -> dict[str, Any]:
    return {"t": "ping"}


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}
