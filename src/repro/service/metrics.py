"""Observability surface of the admission server.

The server assembles a plain-data *snapshot* (JSON-ready dict) of its
domains — each domain's aggregate admission counters, its full
per-shard stats, and its transaction outcomes — and this module
renders it two ways: as JSON (``/metrics.json``) and as Prometheus
text exposition format (``/metrics``).  Rendering is pure so it can be
unit-tested without a socket.
"""

from __future__ import annotations

import json
from typing import Any

#: Prometheus metric name prefix for everything this server exposes.
PREFIX = "repro"

#: The aggregate per-domain admission counters
#: (:meth:`ConflictManager.counters` keys) exported as counters.
DOMAIN_COUNTERS = ("checks", "conflicts", "drift_checks", "stable_hits",
                   "proved_hits", "synthesized_hits",
                   "fallbacks", "fallback_admits",
                   "undo_refusals", "eval_errors",
                   "eval_errors_dropped")

#: The per-shard stats keys (:meth:`ConflictManager.shard_stats`)
#: exported with a ``shard`` label.  ``outstanding`` is a gauge (log
#: depth right now); the rest only ever increase.
SHARD_GAUGES = ("outstanding",)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def snapshot_json(snapshot: dict[str, Any]) -> str:
    """The snapshot as pretty JSON (the ``/metrics.json`` body)."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _labels(**labels: Any) -> str:
    inner = ",".join(f'{key}="{_escape(str(value))}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """The snapshot in Prometheus text exposition format.

    Every existing per-shard counter is exported with ``domain`` and
    ``shard`` labels; domain aggregates, transaction outcomes, and the
    cross-domain abort-rate percentiles ride along.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, help_text: str,
             samples: list[tuple[str, Any]]) -> None:
        if not samples:
            return
        lines.append(f"# HELP {PREFIX}_{name} {help_text}")
        lines.append(f"# TYPE {PREFIX}_{name} {kind}")
        for labels, value in samples:
            lines.append(f"{PREFIX}_{name}{labels} {value}")

    server = snapshot.get("server", {})
    for key in ("connections_total", "rpcs_total", "frames_total",
                "http_requests_total"):
        if key in server:
            emit(f"server_{key}", "counter", f"Server {key}.",
                 [("", server[key])])
    if "uptime_seconds" in server:
        emit("server_uptime_seconds", "gauge",
             "Seconds since the server started.",
             [("", server["uptime_seconds"])])
    emit("server_domains_open", "gauge", "Admission domains open now.",
         [("", server.get("domains_open", 0))])
    emit("server_active_connections", "gauge",
         "Connections currently open against this server.",
         [("", server.get("active_connections", 0))])
    emit("server_worker_id", "gauge",
         "This process's cluster worker id (0 when single-process); "
         "every sample of a worker's scrape carries its label.",
         [(_labels(worker=server.get("worker_id", 0),
                   cluster_workers=server.get("cluster_workers", 1)), 1)])
    emit("server_state_defs_total", "counter",
         "States defined on a connection's state table (each crossed "
         "the wire and was decoded once).",
         [("", server.get("state_defs_total", 0))])
    emit("server_state_refs_total", "counter",
         "State slots of check/record frames sent as a reference to "
         "an earlier definition instead of the whole state.",
         [("", server.get("state_refs_total", 0))])
    emit("server_state_entries", "gauge",
         "States held now, summed over the open connections' tables.",
         [("", server.get("state_entries", 0))])
    emit("domain_reuse_total", "counter",
         "Domains reset for reuse by a pooled client (the keyed "
         "domain cache) instead of being re-opened.",
         [("", server.get("domain_reuse_total", 0))])

    domains = snapshot.get("domains", [])
    for key in DOMAIN_COUNTERS:
        emit(f"admission_{key}_total", "counter",
             f"Aggregate {key} per admission domain.",
             [(_labels(domain=d["domain"], structure=d["structure"],
                       label=d["label"]), d["counters"].get(key, 0))
              for d in domains])
    emit("txn_outcomes_total", "counter",
         "Released transactions by outcome (commit or abort).",
         [(_labels(domain=d["domain"], structure=d["structure"],
                   outcome=outcome), d.get(f"{outcome}s", 0))
          for d in domains for outcome in ("commit", "abort")])

    shard_counter_keys = [key for key in
                          (domains[0]["shard_stats"][0].keys()
                           if domains and domains[0]["shard_stats"]
                           else ())
                          if key != "shard"]
    for key in shard_counter_keys:
        kind = "gauge" if key in SHARD_GAUGES else "counter"
        emit(f"shard_{key}", kind, f"Per-shard {key}.",
             [(_labels(domain=d["domain"], shard=stats["shard"]),
               stats.get(key, 0))
              for d in domains for stats in d["shard_stats"]])

    rates = snapshot.get("abort_rate_percentiles", {})
    emit("abort_rate", "gauge",
         "Cross-domain abort-rate percentiles "
         "(aborts / released transactions).",
         [(_labels(quantile=q), rates[p])
          for p, q in (("p50", "0.5"), ("p95", "0.95"))
          if p in rates])
    return "\n".join(lines) + "\n"
