"""Command-line interface: ``python -m repro.stream``.

A thin shell over :class:`repro.api.LocalizationSession`.  Two modes:

- **fresh** (default) — build a preset scenario, run its campaign while
  drip-feeding the session's execution backend, print verdict events as
  they fire, then the final summary and the time-to-localization table
  (how many measurements until each true censor was pinned);
- **replay** (``--replay NAME --store DIR``) — re-expand a persisted
  sweep's jobs from a result store, rebuild each job's world from its
  spec, stream its campaign, and verify the drained result against the
  stored batch record when its result sidecar is present.

``--backend sharded --shards N`` runs the same workload partitioned
across N worker processes (drain stays byte-identical) — over forked
pipes by default, or over localhost TCP with ``--transport socket``
(the same wire protocol remote shard workers speak); ``--verify``
additionally runs the batch pipeline over the same campaign and checks
byte equality; ``--json`` switches all output to one machine-readable
document.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.localization_time import TTL_HEADERS, TimeToLocalization
from repro.analysis.tables import format_table
from repro.api.config import (
    BACKENDS,
    BACKEND_INLINE,
    ExecutionPolicy,
    SessionConfig,
)
from repro.api.placement import AutoscalePolicy
from repro.api.session import LocalizationSession
from repro.core.pipeline import DEFAULT_SOLUTION_CAP
from repro.obs import log as obslog
from repro.obs import recorder as obsrecorder
from repro.obs.export import MetricsServer
from repro.runner.spec import JobSpec
from repro.runner.store import ResultStore
from repro.scenario.presets import PRESETS
from repro.scenario.world import World
from repro.stream.events import VerdictEvent

DEFAULT_EVENT_LIMIT = 25


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stream",
        description=(
            "Online streaming localization with incremental verdicts."
        ),
    )
    parser.add_argument(
        "--preset",
        default="tiny",
        choices=sorted(PRESETS),
        help="scenario preset to stream (default: tiny)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--granularities",
        default="day,week,month",
        metavar="G1,G2,...",
        help="window granularities (default: day,week,month)",
    )
    parser.add_argument(
        "--anomalies",
        default="",
        metavar="A1,A2,...",
        help="anomaly subset (default: all five)",
    )
    parser.add_argument(
        "--solution-cap", type=int, default=DEFAULT_SOLUTION_CAP
    )
    parser.add_argument("--duration-days", type=int, default=None)
    parser.add_argument("--num-urls", type=int, default=None)
    parser.add_argument("--num-vantage-points", type=int, default=None)
    parser.add_argument(
        "--backend",
        default=BACKEND_INLINE,
        choices=BACKENDS,
        help="execution backend (default: inline)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for --backend sharded (default: 2)",
    )
    parser.add_argument(
        "--transport",
        default="pipe",
        choices=("pipe", "socket"),
        help=(
            "shard transport for --backend sharded: forked pipe "
            "workers, or TCP socket workers (default: pipe)"
        ),
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help=(
            "let an Autoscaler add/remove shard workers mid-stream as "
            "per-shard lag and queue depth move (sharded backend only)"
        ),
    )
    parser.add_argument(
        "--max-shards",
        type=int,
        default=8,
        metavar="N",
        help="upper bound for --autoscale (default: 8)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=DEFAULT_EVENT_LIMIT,
        metavar="N",
        help=(
            "print the first N verdict events (0 silences them, "
            f"-1 prints all; default: {DEFAULT_EVENT_LIMIT})"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also run the batch pipeline and assert byte equality",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "enable telemetry and serve it over HTTP on this port "
            "(0 picks a free one): /metrics for Prometheus text, "
            "/metrics.json for the raw snapshot"
        ),
    )
    parser.add_argument(
        "--metrics-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "keep the metrics endpoint up this long after the run "
            "finishes (for scrapers; default: 0)"
        ),
    )
    obslog.add_log_arguments(parser)
    parser.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help=(
            "arm the flight recorder: dump the bounded diagnostic ring "
            "buffer (frame headers, log records) into "
            "DIR on worker death or SIGUSR1"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result store directory (replay mode)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="NAME",
        help="replay the jobs of this persisted sweep from --store",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "thin-client mode: run the campaign locally but stream it "
            "to a repro-serve daemon at this address instead of an "
            "in-process backend (drain stays byte-identical)"
        ),
    )
    parser.add_argument(
        "--campaign",
        default=None,
        metavar="ID",
        help=(
            "campaign id for --connect (default: PRESET-sSEED); "
            "reattaching with the same id resumes the daemon-side "
            "session"
        ),
    )
    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    granularities = tuple(
        part.strip() for part in args.granularities.split(",") if part.strip()
    )
    anomalies = tuple(
        part.strip() for part in args.anomalies.split(",") if part.strip()
    )
    return JobSpec(
        preset=args.preset,
        seed=args.seed,
        granularities=granularities,
        anomalies=anomalies,
        solution_cap=args.solution_cap,
        duration_days=args.duration_days,
        num_urls=args.num_urls,
        num_vantage_points=args.num_vantage_points,
    )


def _session_config(
    job: JobSpec,
    backend: str,
    shards: int,
    transport: str = "pipe",
    autoscale: Optional[AutoscalePolicy] = None,
) -> SessionConfig:
    execution = ExecutionPolicy(
        backend=backend,
        shards=shards,
        transport=transport,
        autoscale=autoscale if autoscale is not None else AutoscalePolicy(),
    )
    return SessionConfig.from_job(job, execution=execution)


class _EventPrinter:
    """Prints the first N events (all when limit is -1)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.seen = 0

    def __call__(self, event: VerdictEvent) -> None:
        self.seen += 1
        if self.limit < 0 or self.seen <= self.limit:
            print(event.describe())
        elif self.seen == self.limit + 1:
            print(f"... (further events suppressed; --events -1 for all)")


def _open_metrics(port: Optional[int], json_mode: bool):
    """Stand up the shared registry + HTTP endpoint for one invocation.

    One registry per invocation (replay mode reuses it across jobs:
    counters accumulate, per-engine gauges reflect the latest job)."""
    if port is None:
        return None, None
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    server = MetricsServer(registry, port=port)
    if not json_mode:
        print(f"metrics: {server.url}")
    return registry, server


def _close_metrics(server: Optional[MetricsServer], linger: float) -> None:
    if server is None:
        return
    if linger > 0:
        # Give external scrapers (the CI smoke, a Prometheus poll) a
        # window to collect the final state before the endpoint drops.
        time.sleep(linger)
    server.close()


def _subscribe_for_output(
    session: LocalizationSession, event_limit: int, json_mode: bool
) -> None:
    if json_mode:
        # Per-event verdicts are only computed for listeners; a no-op
        # subscriber keeps the JSON's stream_stats counters meaningful.
        session.subscribe(lambda event: None)
    elif event_limit != 0:
        session.subscribe(_EventPrinter(event_limit))


def _summary_payload(
    session: LocalizationSession, world: World
) -> Dict[str, Any]:
    result = session.drain()
    true_censors = sorted(world.deployment.censor_asns)
    ttl = TimeToLocalization.from_engine(session)
    solve_stats = session.solve_stats
    sharded = session.config.execution.backend != BACKEND_INLINE
    return {
        "backend": session.config.execution.backend,
        # Under sharding, per-identification ingest counters are the
        # confirming shard's tallies, not the merged stream's.
        "counters_scope": "shard-local" if sharded else "global",
        "problems": len(result.solutions),
        "by_status": {
            status.value: count
            for status, count in sorted(
                result.by_status().items(), key=lambda item: item[0].value
            )
        },
        "identified_censors": result.identified_censor_asns,
        "true_censors": true_censors,
        "stream_stats": session.stats.as_dict(),
        "solve_stats": (
            solve_stats.as_dict() if solve_stats is not None else None
        ),
        "time_to_localization": ttl.as_dict(true_censors),
    }


def _print_summary(session: LocalizationSession, world: World) -> None:
    result = session.drain()
    stats = session.stats
    by_status = result.by_status()
    print(
        f"\ndrained {stats.measurements} measurements "
        f"({stats.observations} observations) into "
        f"{len(result.solutions)} problems: "
        + ", ".join(
            f"{count} {status.value}"
            for status, count in sorted(
                by_status.items(), key=lambda item: item[0].value
            )
        )
    )
    print(
        f"verdict updates: {stats.snapshots} "
        f"({stats.propagation_decided} decided by propagation, "
        f"{stats.fallback_solves} closed by the hitting-set count), "
        f"{stats.events_emitted} events emitted"
    )
    true_censors = sorted(world.deployment.censor_asns)
    identified = result.identified_censor_asns
    print(
        f"censors: {len(identified)} confirmed of "
        f"{len(true_censors)} deployed"
    )
    ttl = TimeToLocalization.from_engine(session)
    rows = ttl.rows(true_censors, world.country_by_asn)
    if rows:
        title = "time to localization"
        if session.config.execution.backend != BACKEND_INLINE:
            # Merged identification log: ordering is global (simulated
            # time), the measurement/observation tallies are the
            # confirming shard's.
            title += " (shard-local ingest counters)"
        print()
        print(format_table(TTL_HEADERS, rows, title=title))


def run_fresh(
    job: JobSpec,
    event_limit: int = DEFAULT_EVENT_LIMIT,
    verify: bool = False,
    json_mode: bool = False,
    backend: str = BACKEND_INLINE,
    shards: int = 2,
    transport: str = "pipe",
    metrics_port: Optional[int] = None,
    metrics_linger: float = 0.0,
    flight_dir: Optional[str] = None,
    autoscale: Optional[AutoscalePolicy] = None,
) -> int:
    """Fresh mode: build the world, drip-stream its campaign, report."""
    if autoscale is not None and backend == BACKEND_INLINE:
        print(
            "error: --autoscale requires --backend sharded",
            file=sys.stderr,
        )
        return 2
    registry, server = _open_metrics(metrics_port, json_mode)
    try:
        session = LocalizationSession(
            _session_config(job, backend, shards, transport, autoscale)
        )
        _subscribe_for_output(session, event_limit, json_mode)
        if registry is not None:
            session.enable_metrics(registry)
        if flight_dir is not None:
            session.enable_flight_recorder(directory=flight_dir)
            obsrecorder.install_signal_handler(flight_dir)
        world = session.world
        if not json_mode:
            print(
                f"streaming {job.preset!r} (seed {job.seed}, "
                f"{session.config.execution.backend} backend): "
                f"{len(world.vantage_points)} vantage points, "
                f"{len(world.test_list)} URLs"
            )
        scaler = None
        if autoscale is not None and autoscale.enabled:
            # Poll from the platform's measurement callback: the stream
            # loop is single-threaded, so a rebalance can never race an
            # ingest (poll() itself rate-limits to CHECK_EVERY seconds).
            scaler = session.autoscaler()
            world.platform.add_listener(lambda measurement: scaler.poll())
        outcome = session.stream()
        if scaler is not None and not json_mode and scaler.actions:
            print(
                "autoscale: "
                + ", ".join(
                    f"{direction} to {count}"
                    for direction, count in scaler.actions
                )
            )
        verified: Optional[bool] = None
        if verify:
            batch = world.pipeline(job.pipeline_config()).run(
                outcome.dataset
            )
            verified = batch.to_dict() == outcome.result.to_dict()
        if json_mode:
            payload = _summary_payload(session, world)
            if scaler is not None:
                payload["autoscale_actions"] = [
                    list(action) for action in scaler.actions
                ]
            if verified is not None:
                payload["batch_equivalent"] = verified
            if registry is not None:
                payload["metrics"] = registry.snapshot()
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            _print_summary(session, world)
            if verified is not None:
                print(
                    "batch equivalence: "
                    + ("byte-identical" if verified else "MISMATCH")
                )
        return 0 if verified in (None, True) else 1
    finally:
        _close_metrics(server, metrics_linger)


def run_connect(
    job: JobSpec,
    address: str,
    campaign: Optional[str] = None,
    event_limit: int = DEFAULT_EVENT_LIMIT,
    json_mode: bool = False,
    backend: str = BACKEND_INLINE,
    shards: int = 2,
    transport: str = "pipe",
    autoscale: Optional[AutoscalePolicy] = None,
) -> int:
    """Thin-client mode: the campaign runs here, the engine runs there.

    The world builds locally (it is the measurement source); every
    measurement streams to the serve daemon at ``address`` under
    ``campaign``'s tenant, and the drained result comes back over the
    wire — byte-identical to running the same config in-process.
    """
    from repro.scenario.world import build_world
    from repro.serve.client import ServeClient

    # The config ships to the daemon whole — an autoscale policy in it
    # makes the daemon-side tenant poll its own Autoscaler per frame.
    config = _session_config(job, backend, shards, transport, autoscale)
    if campaign is None:
        campaign = f"{job.preset}-s{job.seed}"
    printer: Optional[_EventPrinter] = None
    if not json_mode and event_limit != 0:
        printer = _EventPrinter(event_limit)
    world = build_world(config.scenario_config())
    if not json_mode:
        print(
            f"streaming {job.preset!r} (seed {job.seed}) to serve "
            f"daemon at {address} as campaign {campaign!r}: "
            f"{len(world.vantage_points)} vantage points, "
            f"{len(world.test_list)} URLs"
        )
    client = ServeClient(
        address,
        campaign,
        config=config,
        ip2as=world.ip2as,
        want_events=printer is not None,
        on_event=printer,
    )
    client.attach()
    try:
        world.platform.add_listener(client.ingest_measurement)
        try:
            world.platform.run_campaign()
        finally:
            world.platform.remove_listener(client.ingest_measurement)
        result = client.drain()
    finally:
        client.close()
    true_censors = sorted(world.deployment.censor_asns)
    by_status = {
        status.value: count
        for status, count in sorted(
            result.by_status().items(), key=lambda item: item[0].value
        )
    }
    if json_mode:
        print(
            json.dumps(
                {
                    "backend": "serve",
                    "address": address,
                    "campaign": campaign,
                    "problems": len(result.solutions),
                    "by_status": by_status,
                    "identified_censors": result.identified_censor_asns,
                    "true_censors": true_censors,
                    "reconnects": client.reconnects,
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        print(
            f"\ndaemon drained {len(result.solutions)} problems: "
            + ", ".join(
                f"{count} {status}" for status, count in by_status.items()
            )
        )
        identified = result.identified_censor_asns
        print(
            f"censors: {len(identified)} confirmed of "
            f"{len(true_censors)} deployed"
        )
    return 0


def run_replay(
    store_dir: str,
    name: str,
    event_limit: int = 0,
    json_mode: bool = False,
    backend: str = BACKEND_INLINE,
    shards: int = 2,
    transport: str = "pipe",
    metrics_port: Optional[int] = None,
    metrics_linger: float = 0.0,
    flight_dir: Optional[str] = None,
) -> int:
    """Replay mode: stream every job of a persisted sweep, verifying."""
    store = ResultStore(store_dir)
    spec = store.load_sweep(name)
    jobs = spec.expand()
    failures = 0
    payloads: List[Dict[str, Any]] = []
    registry, server = _open_metrics(metrics_port, json_mode)
    try:
        return _run_replay_jobs(
            store, name, jobs, event_limit, json_mode, backend, shards,
            transport, registry, failures, payloads, flight_dir,
        )
    finally:
        _close_metrics(server, metrics_linger)


def _run_replay_jobs(
    store, name, jobs, event_limit, json_mode, backend, shards,
    transport, registry, failures, payloads, flight_dir=None,
) -> int:
    if flight_dir is not None:
        obsrecorder.install_signal_handler(flight_dir)
    for job in jobs:
        if not json_mode:
            print(f"replaying {job.label} ...")
        session = LocalizationSession(
            _session_config(job, backend, shards, transport)
        )
        _subscribe_for_output(session, event_limit, json_mode)
        if registry is not None:
            session.enable_metrics(registry)
        if flight_dir is not None:
            session.enable_flight_recorder(directory=flight_dir)
        outcome = session.replay_stored(store, job)
        world = outcome.world
        if json_mode:
            payload = _summary_payload(session, world)
            payload["job_id"] = job.job_id
            payload["label"] = job.label
            payload["verified"] = outcome.verified
            payload["mismatches"] = list(outcome.mismatches)
            payloads.append(payload)
        else:
            _print_summary(session, world)
            if outcome.verified is None:
                print("no stored result sidecar to verify against")
            elif outcome.verified:
                print("stored-record verification: statuses + censors match")
            else:
                print("stored-record verification FAILED:")
                for line in outcome.mismatches[:10]:
                    print(f"  {line}")
        if outcome.verified is False:
            failures += 1
    if json_mode:
        document: Dict[str, Any] = {"sweep": name, "jobs": payloads}
        if registry is not None:
            document["metrics"] = registry.snapshot()
        print(json.dumps(document, indent=1, sort_keys=True))
    return 1 if failures else 0


def _autoscale_policy(
    args: argparse.Namespace,
) -> Optional[AutoscalePolicy]:
    if not getattr(args, "autoscale", False):
        return None
    return AutoscalePolicy(
        enabled=True, max_shards=max(1, args.max_shards)
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obslog.configure_from_args(args)
    if args.autoscale and args.replay:
        print(
            "error: --autoscale is not available in replay mode (the "
            "replay loop does not own the ingest thread)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.connect is not None:
            # Connect failures and daemon refusals print one actionable
            # line each (TransportError carries the hint), never a
            # traceback.
            from repro.api.transport import TransportError
            from repro.serve.tenants import ServeError

            try:
                return run_connect(
                    job_from_args(args),
                    args.connect,
                    campaign=args.campaign,
                    event_limit=args.events,
                    json_mode=args.json,
                    backend=args.backend,
                    shards=args.shards,
                    transport=args.transport,
                    autoscale=_autoscale_policy(args),
                )
            except (TransportError, ServeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.replay is not None:
            if args.store is None:
                print(
                    "error: --replay requires --store", file=sys.stderr
                )
                return 2
            return run_replay(
                args.store,
                args.replay,
                event_limit=args.events if args.events else 0,
                json_mode=args.json,
                backend=args.backend,
                shards=args.shards,
                transport=args.transport,
                metrics_port=args.metrics_port,
                metrics_linger=args.metrics_linger,
                flight_dir=args.flight_dir,
            )
        return run_fresh(
            job_from_args(args),
            event_limit=args.events,
            verify=args.verify,
            json_mode=args.json,
            backend=args.backend,
            shards=args.shards,
            transport=args.transport,
            metrics_port=args.metrics_port,
            metrics_linger=args.metrics_linger,
            flight_dir=args.flight_dir,
            autoscale=_autoscale_policy(args),
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = [
    "main",
    "build_parser",
    "job_from_args",
    "run_connect",
    "run_fresh",
    "run_replay",
]
