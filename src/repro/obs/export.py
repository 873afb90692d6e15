"""Exposition: Prometheus text format, JSON dumps, and the HTTP server.

One snapshot (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) renders
two ways:

- :func:`render_prometheus` — text exposition format 0.0.4, the scrape
  payload ``--metrics-port`` serves at ``/metrics``;
- the snapshot itself is the JSON dump (``/metrics.json``, the stream
  CLI's ``--json`` output, drain telemetry).

``METRIC_CATALOG`` is the documented vocabulary: every metric the repo's
own instrumentation emits, with type and help text.  The CI smoke step
scrapes a live run and validates the exposition against it
(:func:`validate_exposition`), so the catalog cannot rot silently.

The HTTP server is one daemon thread over :mod:`http.server` — no new
dependencies, good enough for a scrape endpoint; ``port=0`` binds an
ephemeral port (readable back off the returned handle, how tests run
servers concurrently).
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

# Every path the HTTP server answers; the 404 body and the README both
# quote this list, so it is the single source of truth.
ENDPOINTS = ("/metrics", "/metrics.json", "/healthz", "/statusz")

# A shard that has frames outstanding but has not acked for this many
# wall seconds is considered stuck (``/healthz`` flips unhealthy).
HEALTH_MAX_SILENCE = 60.0

# name → (type, help).  Types: "counter" | "gauge" | "histogram".
METRIC_CATALOG: Dict[str, Tuple[str, str]] = {
    # -- stream engine (collector-exported; shard-labeled after merge) ----
    "repro_stream_measurements": ("gauge", "Measurements ingested"),
    "repro_stream_observations": ("gauge", "Observations ingested"),
    "repro_stream_discarded_measurements": (
        "gauge", "Measurements discarded during conversion"),
    "repro_stream_problems_opened": ("gauge", "Problem windows opened"),
    "repro_stream_problems_closed": ("gauge", "Problem windows closed"),
    "repro_stream_problems_reopened": (
        "gauge", "Closed windows reopened by late observations"),
    "repro_stream_clauses_appended": (
        "gauge", "Ledger clauses that added information"),
    "repro_stream_snapshots": ("gauge", "Verdict recomputations"),
    "repro_stream_propagation_decided": (
        "gauge", "Verdict snapshots decided by propagation alone"),
    "repro_stream_fallback_solves": (
        "gauge", "Verdict snapshots closed by the hitting-set count"),
    "repro_stream_events_emitted": ("gauge", "Verdict events emitted"),
    "repro_stream_open_problems": ("gauge", "Problem windows still open"),
    "repro_stream_closed_problems": ("gauge", "Problem windows closed"),
    # -- solve cache (collector-exported) ---------------------------------
    "repro_solve_problems": ("gauge", "Problems solved"),
    "repro_solve_signature_hits": (
        "gauge", "Problems solved by the structural memo alone"),
    "repro_solve_unique_cnfs": (
        "gauge", "Structurally distinct formulas solved"),
    "repro_solve_propagation_decided": (
        "gauge", "Problems closed by the set-based fast path"),
    "repro_solve_cdcl_solves": (
        "gauge", "Residual problems closed by the hitting-set count"),
    "repro_solve_signature_hit_ratio": (
        "gauge", "signature_hits / problems (unique-CNF hit rate)"),
    "repro_solve_propagation_ratio": (
        "gauge", "propagation_decided / problems (fast-path hit rate)"),
    # -- verdict events (per kind; only with subscribers attached) --------
    "repro_events_total": (
        "counter", "Verdict events emitted, by event_kind"),
    # -- transports --------------------------------------------------------
    "repro_transport_frames_total": (
        "counter", "Wire frames moved, by transport/role/direction"),
    "repro_transport_bytes_total": (
        "counter", "Wire payload bytes moved, by transport/role/direction"),
    "repro_transport_encode_seconds": (
        "histogram", "Frame encode time (message → bytes)"),
    "repro_transport_decode_seconds": (
        "histogram", "Frame decode time (bytes → message)"),
    # -- sharded backend, parent side -------------------------------------
    "repro_shard_ingest_lag_seconds": (
        "gauge",
        "Parent send watermark minus worker ack watermark, in "
        "simulated stream seconds, per shard"),
    "repro_shard_queue_depth": (
        "gauge", "Un-acked frames outstanding to the shard"),
    "repro_shard_up": (
        "gauge", "1 while the shard's worker incarnation is healthy"),
    "repro_shard_seconds_since_ack": (
        "gauge",
        "Wall seconds since the shard last acked a frame (0 when "
        "nothing is outstanding)"),
    "repro_shard_buffered_observations": (
        "gauge", "Observations buffered parent-side for the shard"),
    "repro_shard_replay_log_frames": (
        "gauge", "Frames in the shard's recovery replay log"),
    "repro_shard_chunks_sent_total": (
        "counter", "Observation chunks flushed to the shard"),
    "repro_shard_recoveries_total": (
        "counter", "Dead-worker recoveries for the shard"),
    "repro_shard_duplicate_events_total": (
        "counter", "Replay-duplicate verdict events dropped by dedup"),
    "repro_verdict_latency_seconds": (
        "histogram",
        "Chunk flush → verdict merge, per shard, traced across the "
        "wire on the parent's clock"),
    # -- placement / elastic sharding -------------------------------------
    "repro_placement_epoch": (
        "gauge", "Live PartitionMap epoch (bumps on every rebalance)"),
    "repro_placement_shards": (
        "gauge", "Worker count under the live placement"),
    "repro_placement_buckets": (
        "gauge", "(URL, anomaly) pairs owned by the shard"),
    "repro_placement_last_rebalance_timestamp": (
        "gauge",
        "Unix seconds of the last committed rebalance (0: never)"),
    "repro_rebalances_total": (
        "counter", "Placement epochs committed live"),
    "repro_rebalance_moved_buckets_total": (
        "counter", "Pairs migrated across all rebalances"),
    # -- shard workers (merged shard-labeled at drain) --------------------
    "repro_worker_chunk_seconds": (
        "histogram", "Worker-side ingest time per observation chunk"),
    "repro_worker_queue_delay_seconds": (
        "histogram",
        "Chunk flush → worker receipt (wall clocks; same-host only)"),
    # -- StageTimer adapter ------------------------------------------------
    "repro_stage_seconds": ("counter", "Stage wall seconds, by stage"),
    "repro_stage_calls": ("counter", "Stage invocations, by stage"),
    # -- serve daemon (tenant-labeled) -------------------------------------
    "repro_serve_tenants": ("gauge", "Tenant sessions currently attached"),
    "repro_serve_connections": (
        "gauge", "Client connections currently open"),
    "repro_serve_connections_total": (
        "counter", "Client connections accepted since start"),
    "repro_serve_tenant_up": (
        "gauge", "1 while the tenant's session is healthy, per tenant"),
    "repro_serve_received_seq": (
        "gauge", "Highest chunk sequence received, per tenant"),
    "repro_serve_applied_seq": (
        "gauge", "Highest chunk sequence applied, per tenant"),
    "repro_serve_checkpoint_seq": (
        "gauge", "Highest chunk sequence durably checkpointed, per tenant"),
    "repro_serve_lag_frames": (
        "gauge", "Received-but-unapplied chunks (ingest lag), per tenant"),
    "repro_serve_queue_depth": (
        "gauge", "Frames waiting in the tenant's apply queue"),
    "repro_serve_events_buffered": (
        "gauge", "Verdict events held for subscriber replay, per tenant"),
    "repro_serve_frames_total": (
        "counter", "Frames applied by the daemon, by tenant and kind"),
    "repro_serve_checkpoints_total": (
        "counter", "Durable tenant checkpoints written"),
    "repro_serve_resumes_total": (
        "counter", "Tenants resumed from a state-dir checkpoint"),
    "repro_serve_rejected_total": (
        "counter", "Attach requests refused, by reason"),
    "repro_serve_apply_seconds": (
        "histogram", "Daemon-side apply time per ingest chunk"),
}

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
# A sample line.  The label block is matched quote-aware — a label value
# may contain ``}`` or ``,`` inside its quotes (escaped per the 0.0.4
# exposition rules), so ``[^}]*`` would split it in the wrong place.
_LINE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{(?:[^"{}]|"(?:[^"\\]|\\.)*")*\})?\s+(\S+)$'
)


def escape_label_value(value: str) -> str:
    """Exposition-format label escaping: ``\\`` , ``"`` and newline."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def unescape_label_value(value: str) -> str:
    out: List[str] = []
    index = 0
    while index < len(value):
        ch = value[index]
        if ch == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, ch + nxt))
            index += 2
        else:
            out.append(ch)
            index += 1
    return "".join(out)


def sanitize_name(name: str) -> str:
    """A Prometheus-legal metric name (free-form counters have dots)."""
    if _NAME_OK.match(name):
        return name
    cleaned = _BAD_CHARS.sub("_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{{{inner}}}"


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Text exposition format 0.0.4 over one registry snapshot."""
    lines: List[str] = []
    seen_types: set = set()

    def _type_line(name: str, kind: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        entry = METRIC_CATALOG.get(name)
        if entry is not None and entry[1]:
            lines.append(f"# HELP {name} {entry[1]}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = sanitize_name(entry["name"])
        _type_line(name, "counter")
        lines.append(
            f"{name}{_render_labels(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        name = sanitize_name(entry["name"])
        _type_line(name, "gauge")
        lines.append(
            f"{name}{_render_labels(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = sanitize_name(entry["name"])
        _type_line(name, "histogram")
        labels = entry.get("labels", {})
        cumulative = 0
        for bound, count in zip(entry["bounds"], entry["counts"]):
            cumulative += count
            lines.append(
                f"{name}_bucket"
                f"{_render_labels({**labels, 'le': repr(float(bound))})} "
                f"{cumulative}"
            )
        cumulative += entry["counts"][len(entry["bounds"])]
        lines.append(
            f"{name}_bucket{_render_labels({**labels, 'le': '+Inf'})} "
            f"{cumulative}"
        )
        lines.append(
            f"{name}_sum{_render_labels(labels)} "
            f"{_format_value(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_render_labels(labels)} {entry['count']}"
        )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Exposition text → ``{series: value}`` (series as printed).

    A deliberately small parser — enough for the CI smoke scrape and the
    ``repro-runner metrics`` viewer, not a general client.  Raises
    ``ValueError`` on a line it cannot parse.
    """
    series: Dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"unparsable exposition line: {raw!r}")
        name, labels, value = match.groups()
        try:
            parsed = float(value)
        except ValueError:
            raise ValueError(
                f"unparsable sample value in line: {raw!r}"
            ) from None
        series[f"{name}{labels or ''}"] = parsed
    return series


def _family_of(name: str) -> str:
    """The metric family a sample belongs to (histogram suffixes fold)."""
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and METRIC_CATALOG.get(base, ("",))[0] == "histogram":
            return base
    return name


def validate_exposition(
    text: str, catalog: Optional[Dict[str, Tuple[str, str]]] = None
) -> List[str]:
    """Check a scrape against the catalog; returns problem strings.

    Empty list means: every line parses, and every metric family is a
    catalog name (histogram ``_bucket``/``_sum``/``_count`` samples fold
    into their base family).  Free-form ``StageTimer`` counters are the
    one sanctioned exception — they surface only through the perf report,
    not the exposition endpoint of an instrumented run.
    """
    known = catalog if catalog is not None else METRIC_CATALOG
    problems: List[str] = []
    try:
        series = parse_prometheus(text)
    except ValueError as exc:
        return [str(exc)]
    if not series:
        return ["exposition contains no samples"]
    for key in series:
        name = key.split("{", 1)[0]
        family = _family_of(name)
        if family not in known:
            problems.append(f"unknown metric family: {family}")
    return sorted(set(problems))


# -- health / status ---------------------------------------------------------


_SHARD_GAUGE_KEYS = {
    "repro_shard_up": "up",
    "repro_shard_queue_depth": "queue_depth",
    "repro_shard_ingest_lag_seconds": "ingest_lag",
    "repro_shard_seconds_since_ack": "seconds_since_ack",
    "repro_shard_buffered_observations": "buffered",
    "repro_shard_replay_log_frames": "replay_log_frames",
}
_SHARD_COUNTER_KEYS = {
    "repro_shard_chunks_sent_total": "chunks_sent",
    "repro_shard_recoveries_total": "recoveries",
    "repro_shard_duplicate_events_total": "duplicate_events",
}


def _shard_key(labels: Dict[str, Any]) -> Optional[str]:
    """The status key for one shard-labeled series.

    Plain runs key by the ``shard`` label alone; under the multi-tenant
    daemon every session's series also carry a ``tenant`` label, so two
    tenants' shard 0 must not fold together — the key becomes
    ``tenant/shard``.
    """
    shard = labels.get("shard")
    if shard is None:
        return None
    tenant = labels.get("tenant")
    return f"{tenant}/{shard}" if tenant is not None else str(shard)


def shard_status(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-shard operational view derived from the standard series.

    Keyed by the ``shard`` label value (a string, as labels are) —
    prefixed ``tenant/`` for tenant-labeled series; empty for inline
    runs, which have no shard-labeled series.
    """
    shards: Dict[str, Dict[str, Any]] = {}

    def slot(shard: str) -> Dict[str, Any]:
        return shards.setdefault(shard, {})

    for entry in snapshot.get("gauges", ()):
        shard = _shard_key(entry.get("labels", {}))
        key = _SHARD_GAUGE_KEYS.get(entry["name"])
        if shard is not None and key is not None:
            slot(shard)[key] = entry["value"]
    for entry in snapshot.get("counters", ()):
        shard = _shard_key(entry.get("labels", {}))
        key = _SHARD_COUNTER_KEYS.get(entry["name"])
        if shard is not None and key is not None:
            slot(shard)[key] = entry["value"]
    for entry in snapshot.get("histograms", ()):
        if entry["name"] != "repro_verdict_latency_seconds":
            continue
        shard = _shard_key(entry.get("labels", {}))
        if shard is not None:
            slot(shard)["verdicts"] = entry["count"]
    return shards


_PLACEMENT_GAUGE_KEYS = {
    "repro_placement_epoch": "epoch",
    "repro_placement_shards": "shards",
    "repro_placement_last_rebalance_timestamp": "last_rebalance",
}
_PLACEMENT_COUNTER_KEYS = {
    "repro_rebalances_total": "rebalances",
    "repro_rebalance_moved_buckets_total": "moved_buckets",
}


def placement_status(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The live placement view derived from the standard series.

    Empty outside the sharded backend.  ``buckets`` maps the shard
    label (``tenant/shard`` under the daemon, like :func:`shard_status`)
    to the pair count that shard owns under the live map.
    """
    placement: Dict[str, Any] = {}
    buckets: Dict[str, float] = {}
    for entry in snapshot.get("gauges", ()):
        name = entry["name"]
        key = _PLACEMENT_GAUGE_KEYS.get(name)
        if key is not None:
            placement[key] = entry["value"]
        elif name == "repro_placement_buckets":
            shard = _shard_key(entry.get("labels", {}))
            if shard is not None:
                buckets[shard] = entry["value"]
    for entry in snapshot.get("counters", ()):
        key = _PLACEMENT_COUNTER_KEYS.get(entry["name"])
        if key is not None:
            placement[key] = entry["value"]
    if buckets:
        placement["buckets"] = buckets
    return placement


_TENANT_GAUGE_KEYS = {
    "repro_serve_tenant_up": "up",
    "repro_serve_received_seq": "received_seq",
    "repro_serve_applied_seq": "applied_seq",
    "repro_serve_checkpoint_seq": "checkpoint_seq",
    "repro_serve_lag_frames": "lag_frames",
    "repro_serve_queue_depth": "queue_depth",
    "repro_serve_events_buffered": "events_buffered",
    # Sharded tenants only: their placement gauges carry the tenant
    # label, so each campaign's live map surfaces in its own row.
    "repro_placement_epoch": "placement_epoch",
    "repro_placement_shards": "placement_shards",
}
_TENANT_COUNTER_KEYS = {
    "repro_serve_checkpoints_total": "checkpoints",
    "repro_rebalances_total": "rebalances",
}


def tenant_status(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-tenant rollup derived from the serve daemon's series.

    Keyed by the ``tenant`` label value; empty outside a daemon.  Each
    tenant's entry carries its liveness, sequence watermarks (received /
    applied / durably checkpointed), and ingest lag in frames — the
    ``/statusz`` per-tenant view.
    """
    tenants: Dict[str, Dict[str, Any]] = {}
    for entry in snapshot.get("gauges", ()):
        tenant = entry.get("labels", {}).get("tenant")
        key = _TENANT_GAUGE_KEYS.get(entry["name"])
        if tenant is not None and key is not None:
            tenants.setdefault(str(tenant), {})[key] = entry["value"]
    for entry in snapshot.get("counters", ()):
        tenant = entry.get("labels", {}).get("tenant")
        key = _TENANT_COUNTER_KEYS.get(entry["name"])
        if tenant is not None and key is not None:
            tenants.setdefault(str(tenant), {})[key] = entry["value"]
    return tenants


def health_problems(
    snapshot: Dict[str, Any],
    max_silence: float = HEALTH_MAX_SILENCE,
) -> List[str]:
    """Why the run is unhealthy; empty when everything is fine.

    Two conditions, both per shard: the worker incarnation is down
    (``repro_shard_up`` 0 — mid-recovery or past recovery budget), or
    frames are outstanding and the worker has not acked for longer than
    ``max_silence`` (a hung-but-alive worker, which liveness alone
    cannot see).  Under the serve daemon a third applies per tenant:
    the tenant session has failed (``repro_serve_tenant_up`` 0), which
    is how one tenant's dead shard flips the whole daemon's
    ``/healthz`` to 503.
    """
    problems: List[str] = []
    for shard, view in sorted(shard_status(snapshot).items()):
        if view.get("up", 1.0) == 0:
            problems.append(f"shard {shard}: worker down")
        silence = view.get("seconds_since_ack", 0.0)
        if silence > max_silence and view.get("queue_depth", 0.0) > 0:
            problems.append(
                f"shard {shard}: no ack for {silence:.0f}s with "
                f"{int(view.get('queue_depth', 0))} frames outstanding"
            )
    for tenant, view in sorted(tenant_status(snapshot).items()):
        if view.get("up", 1.0) == 0:
            problems.append(f"tenant {tenant}: session failed")
    return problems


def health_document(
    snapshot: Dict[str, Any],
    uptime: Optional[float] = None,
    max_silence: float = HEALTH_MAX_SILENCE,
) -> Dict[str, Any]:
    """The ``/healthz`` body: ok/unhealthy plus the reasons."""
    problems = health_problems(snapshot, max_silence=max_silence)
    document: Dict[str, Any] = {
        "status": "ok" if not problems else "unhealthy",
        "problems": problems,
        "shards": len(shard_status(snapshot)),
    }
    tenants = tenant_status(snapshot)
    if tenants:
        document["tenants"] = len(tenants)
    if uptime is not None:
        document["uptime_seconds"] = round(uptime, 3)
    return document


def status_document(
    snapshot: Dict[str, Any],
    uptime: Optional[float] = None,
    snapshot_age: Optional[float] = None,
    max_silence: float = HEALTH_MAX_SILENCE,
) -> Dict[str, Any]:
    """The ``/statusz`` body: health, per-shard detail, event totals."""
    events: Dict[str, float] = {}
    for entry in snapshot.get("counters", ()):
        if entry["name"] == "repro_events_total":
            kind = entry.get("labels", {}).get("event_kind", "?")
            events[kind] = events.get(kind, 0.0) + entry["value"]
    stream: Dict[str, float] = {}
    for entry in snapshot.get("gauges", ()):
        name = entry["name"]
        if name.startswith("repro_stream_"):
            short = name[len("repro_stream_"):]
            stream[short] = stream.get(short, 0.0) + entry["value"]
    problems = health_problems(snapshot, max_silence=max_silence)
    document: Dict[str, Any] = {
        "status": "ok" if not problems else "unhealthy",
        "problems": problems,
        "shards": shard_status(snapshot),
        "placement": placement_status(snapshot),
        "tenants": tenant_status(snapshot),
        "events": events,
        "stream": stream,
    }
    if uptime is not None:
        document["uptime_seconds"] = round(uptime, 3)
    if snapshot_age is not None:
        document["snapshot_age_seconds"] = round(snapshot_age, 3)
    return document


# -- HTTP exposition ---------------------------------------------------------


class MetricsServer:
    """One daemon-thread HTTP server over a registry.

    ``/metrics`` serves Prometheus text, ``/metrics.json`` the JSON
    snapshot, ``/healthz`` liveness (HTTP 503 when unhealthy, so probes
    need not parse the body), ``/statusz`` the full operational view.
    The snapshot is taken per request (collectors run), so a scrape
    mid-run sees live values.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        max_silence: float = HEALTH_MAX_SILENCE,
    ) -> None:
        self.registry = registry
        self.max_silence = max_silence
        self._started = time.monotonic()
        self._last_snapshot_at: Optional[float] = None

        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib casing
                path = self.path.split("?", 1)[0]
                status = 200
                if path == "/metrics":
                    body = render_prometheus(
                        server._take_snapshot()
                    ).encode("utf-8")
                    content_type = "text/plain; version=0.0.4"
                elif path == "/metrics.json":
                    body = json.dumps(
                        server._take_snapshot(), sort_keys=True
                    ).encode("utf-8")
                    content_type = "application/json"
                elif path == "/healthz":
                    document = health_document(
                        server._take_snapshot(),
                        uptime=server.uptime,
                        max_silence=server.max_silence,
                    )
                    if document["status"] != "ok":
                        status = 503
                    body = json.dumps(document, sort_keys=True).encode(
                        "utf-8"
                    )
                    content_type = "application/json"
                elif path == "/statusz":
                    age = server.snapshot_age
                    document = status_document(
                        server._take_snapshot(),
                        uptime=server.uptime,
                        snapshot_age=age,
                        max_silence=server.max_silence,
                    )
                    body = json.dumps(document, sort_keys=True).encode(
                        "utf-8"
                    )
                    content_type = "application/json"
                else:
                    self.send_error(
                        404,
                        "unknown path; endpoints: " + ", ".join(ENDPOINTS),
                    )
                    return
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes must not spam the CLI's stdout

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()

    def _take_snapshot(self) -> Dict[str, Any]:
        snapshot = self.registry.snapshot()
        self._last_snapshot_at = time.monotonic()
        return snapshot

    @property
    def uptime(self) -> float:
        """Wall seconds since the server started."""
        return time.monotonic() - self._started

    @property
    def snapshot_age(self) -> Optional[float]:
        """Seconds since the previous snapshot (None before the first)."""
        if self._last_snapshot_at is None:
            return None
        return time.monotonic() - self._last_snapshot_at

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


def start_metrics_server(
    registry: MetricsRegistry, port: int = 0, host: str = "127.0.0.1"
) -> MetricsServer:
    """Serve ``registry`` over HTTP from a daemon thread."""
    return MetricsServer(registry, port=port, host=host)


__all__ = [
    "ENDPOINTS",
    "HEALTH_MAX_SILENCE",
    "METRIC_CATALOG",
    "MetricsServer",
    "escape_label_value",
    "health_document",
    "health_problems",
    "parse_prometheus",
    "placement_status",
    "render_prometheus",
    "sanitize_name",
    "shard_status",
    "start_metrics_server",
    "status_document",
    "tenant_status",
    "unescape_label_value",
    "validate_exposition",
]
