"""Command-line interface: ``python -m repro.runner`` / ``repro-runner``.

Subcommands:

- ``sweep``  — expand a grid into jobs and run them over worker processes,
  skipping jobs already in the result store (100% cache hits on re-run);
- ``resume`` — re-expand a persisted sweep manifest and run only the jobs
  with no stored record (picks up interrupted sweeps);
- ``list``   — show persisted sweeps with done/total counts;
- ``report`` — per-job and aggregate tables over stored records
  (``--json`` for machine-readable output);
- ``perf``   — where the time went: per-stage wall-clock totals and
  solver/routing counters aggregated from the stored perf sidecars
  (``--json`` for machine-readable output);
- ``stream`` — ``repro-stream`` (:mod:`repro.stream.cli`) with the
  runner's ``--store``: every flag after ``stream`` is passed through,
  so ``--replay NAME`` re-streams a persisted sweep's jobs from this
  store and verifies each against its stored batch record;
- ``status`` — one shot against a live session's (or serve daemon's)
  ``/statusz``: health, uptime, a per-shard liveness/lag table, and —
  against a ``repro-serve`` endpoint — the per-tenant campaign rollup
  (exit 1 when unhealthy);
- ``top`` — a live per-shard terminal view over ``/metrics.json``
  scrapes (events/s, queue depth, lag, recoveries); ``--once`` prints a
  single frame, for scripts and CI smoke;
- ``trace`` — run a small instrumented campaign and export its span
  tree as Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
  ``ui.perfetto.dev``);
- ``shard-worker`` — one remote shard of a socket-transport
  :class:`~repro.api.backends.ShardedBackend`: connects to the parent
  session's per-shard listen address and serves the wire protocol until
  the parent stops it.  Run one per address in the parent's
  ``ExecutionPolicy(transport="socket", shard_hosts=[...])``; after a
  crash, simply run it again — the parent re-accepts on the same
  address and rebuilds the shard from its checkpoint slice.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.core.pipeline import DEFAULT_SOLUTION_CAP
from repro.runner.executor import SweepReport, run_sweep
from repro.runner.results import (
    REPORT_HEADERS,
    SweepSummary,
    report_rows,
)
from repro.obs import log as obslog
from repro.runner.spec import CHURN_MODES, SweepSpec, WITH_CHURN
from repro.runner.store import ResultStore
from repro.scenario.presets import PRESETS
from repro.util.profiling import StageTimer

DEFAULT_STORE = ".repro-results"


def _parse_churn(value: str) -> tuple:
    if value == "both":
        return CHURN_MODES
    modes = tuple(part.strip() for part in value.split(",") if part.strip())
    for mode in modes:
        if mode not in CHURN_MODES:
            raise argparse.ArgumentTypeError(
                f"churn mode must be one of {CHURN_MODES + ('both',)}"
            )
    return modes


def _parse_int_list(value: str) -> tuple:
    try:
        return tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-list of ints: {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-runner",
        description="Parallel scenario sweeps over the localization pipeline.",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"result store directory (default: {DEFAULT_STORE})",
    )
    obslog.add_log_arguments(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser("sweep", help="expand a grid and run it")
    sweep.add_argument("--name", default=None, help="sweep name (manifest key)")
    sweep.add_argument(
        "--preset",
        default="small",
        choices=sorted(PRESETS),
        help="scenario preset the grid is built on",
    )
    sweep.add_argument("--master-seed", type=int, default=0)
    sweep.add_argument(
        "--num-seeds", type=int, default=1, help="scenario seeds per variant"
    )
    sweep.add_argument(
        "--churn",
        type=_parse_churn,
        default=(WITH_CHURN,),
        help='"with", "without", "with,without", or "both"',
    )
    sweep.add_argument(
        "--granularities",
        action="append",
        default=None,
        metavar="G1,G2,...",
        help="one granularity set per flag (repeatable grid axis)",
    )
    sweep.add_argument(
        "--anomalies",
        action="append",
        default=None,
        metavar="A1,A2,...",
        help="one anomaly set per flag (repeatable grid axis; default: all five)",
    )
    sweep.add_argument(
        "--solution-caps",
        type=_parse_int_list,
        default=(DEFAULT_SOLUTION_CAP,),
        metavar="N1,N2,...",
    )
    sweep.add_argument("--skip-anomaly-free", action="store_true")
    sweep.add_argument("--duration-days", type=int, default=None)
    sweep.add_argument("--num-urls", type=int, default=None)
    sweep.add_argument("--num-vantage-points", type=int, default=None)
    sweep.add_argument("--tests-per-url-per-day", type=float, default=None)
    sweep.add_argument("--schedule", choices=("poisson", "sweep"), default=None)
    sweep.add_argument("--sweeps-per-pair-per-day", type=float, default=None)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job seconds; forces jobs onto worker processes",
    )
    sweep.add_argument(
        "--dry-run", action="store_true", help="print the job plan and exit"
    )

    resume = subparsers.add_parser(
        "resume", help="finish the missing jobs of a persisted sweep"
    )
    resume.add_argument("--name", required=True)
    resume.add_argument("--workers", type=int, default=1)
    resume.add_argument("--timeout", type=float, default=None)

    subparsers.add_parser("list", help="list persisted sweeps")

    report = subparsers.add_parser(
        "report", help="summarize stored records"
    )
    report.add_argument(
        "--name", default=None, help="restrict to one sweep's jobs"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (per-job summaries + aggregate)",
    )

    perf = subparsers.add_parser(
        "perf", help="aggregate stage timings from stored perf sidecars"
    )
    perf.add_argument(
        "--name", default=None, help="restrict to one sweep's jobs"
    )
    perf.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many slowest jobs to list (default: 5)",
    )
    perf.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (stages, counters, per-job walls)",
    )

    # Everything after "stream" goes to repro-stream's own parser.
    subparsers.add_parser(
        "stream",
        add_help=False,
        help="stream a campaign online (takes repro-stream's flags)",
    )

    status = subparsers.add_parser(
        "status",
        help="one-shot health + per-shard view of a live /statusz",
    )
    status.add_argument(
        "url",
        metavar="URL",
        help="the live session's metrics endpoint (host:port or URL)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print the raw /statusz document",
    )

    top = subparsers.add_parser(
        "top",
        help="live per-shard terminal view over /metrics.json scrapes",
    )
    top.add_argument(
        "url",
        metavar="URL",
        help="the live session's metrics endpoint (host:port or URL)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (scripts, CI smoke)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between scrapes (default: 2)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="run an instrumented campaign, export a Chrome trace",
    )
    trace.add_argument(
        "out",
        metavar="OUT.json",
        help="where to write the Chrome trace_event JSON",
    )
    trace.add_argument(
        "--preset", default="tiny", choices=sorted(PRESETS)
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--backend",
        default="sharded",
        choices=("inline", "sharded"),
        help="execution backend to trace (default: sharded)",
    )
    trace.add_argument("--shards", type=int, default=2, metavar="N")
    trace.add_argument(
        "--transport", default="pipe", choices=("pipe", "socket")
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="scrape and validate a live /metrics endpoint or dump file",
    )
    metrics.add_argument(
        "source",
        metavar="URL_OR_FILE",
        help=(
            "a http://host:port/metrics URL to scrape, or a path to a "
            "Prometheus text file / JSON snapshot to read"
        ),
    )
    metrics.add_argument(
        "--check",
        action="store_true",
        help=(
            "validate every family against the metric catalog; exit 1 "
            "on unknown names, type mismatches, or malformed lines"
        ),
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the parsed series as one JSON object",
    )

    shard_worker = subparsers.add_parser(
        "shard-worker",
        help="serve one socket-transport shard for a remote session",
    )
    shard_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the parent session's listen address for this shard",
    )
    shard_worker.add_argument(
        "--retry-for",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="keep dialing this long before giving up (default: 30)",
    )
    return parser


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    granularity_sets = tuple(
        tuple(part.strip() for part in entry.split(",") if part.strip())
        for entry in (args.granularities or ["day,week,month"])
    )
    anomaly_sets = tuple(
        tuple(part.strip() for part in entry.split(",") if part.strip())
        for entry in (args.anomalies or [""])
    )
    spec = SweepSpec(
        name=args.name or "unnamed",
        preset=args.preset,
        master_seed=args.master_seed,
        num_seeds=args.num_seeds,
        churn_modes=args.churn,
        granularity_sets=granularity_sets,
        anomaly_sets=anomaly_sets,
        solution_caps=args.solution_caps,
        skip_anomaly_free=args.skip_anomaly_free,
        duration_days=args.duration_days,
        num_urls=args.num_urls,
        num_vantage_points=args.num_vantage_points,
        tests_per_url_per_day=args.tests_per_url_per_day,
        schedule=args.schedule,
        sweeps_per_pair_per_day=args.sweeps_per_pair_per_day,
    )
    if args.name is None:
        # Default names embed a hash of the grid so two different grids
        # never silently share (and overwrite) one manifest.
        spec = dataclasses.replace(
            spec, name=f"{args.preset}-m{args.master_seed}-{spec.content_id}"
        )
    return spec


def _print_report(report: SweepReport, elapsed: float) -> None:
    print(
        f"\n{report.total} jobs: {report.cache_hits} cache hits, "
        f"{report.executed} executed, {report.failures} failed "
        f"({elapsed:.1f}s wall)"
    )
    summary = SweepSummary.aggregate(report.records.values())
    if summary.ok:
        print(
            f"aggregate: {summary.measurements:,} measurements, "
            f"{summary.problems:,} problems"
            + (
                f", {summary.unique_fraction:.1%} unique"
                if summary.unique_fraction is not None
                else ""
            )
            + (
                f", precision {summary.mean_precision:.1%}"
                if summary.mean_precision is not None
                else ""
            )
            + (
                f", recall {summary.mean_recall:.1%}"
                if summary.mean_recall is not None
                else ""
            )
        )


def _run_jobs(
    jobs: List,
    store: ResultStore,
    workers: int,
    timeout: Optional[float],
) -> int:
    started = time.monotonic()
    report = run_sweep(
        jobs, store=store, workers=workers, timeout=timeout, progress=print
    )
    _print_report(report, time.monotonic() - started)
    return 1 if report.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    jobs = spec.expand()
    print(
        f"sweep {spec.name!r}: {len(jobs)} jobs on preset {spec.preset!r} "
        f"({args.workers} worker{'s' if args.workers != 1 else ''})"
    )
    if args.dry_run:
        for job in jobs:
            print(f"  {job.job_id}  {job.label}")
        return 0
    store = ResultStore(args.store)
    try:
        existing = store.load_sweep(spec.name)
    except FileNotFoundError:
        existing = None
    if existing is not None and existing != spec:
        print(
            f"warning: replacing manifest {spec.name!r} with a different "
            "grid; resume/report for this name now follow the new grid"
        )
    store.save_sweep(spec)
    return _run_jobs(jobs, store, args.workers, args.timeout)


def _cmd_resume(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    spec = store.load_sweep(args.name)
    jobs = spec.expand()
    missing = store.missing(jobs)
    print(
        f"resuming {spec.name!r}: {len(jobs) - len(missing)}/{len(jobs)} done, "
        f"{len(missing)} to run"
    )
    return _run_jobs(jobs, store, args.workers, args.timeout)


def _cmd_list(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    names = store.sweep_names()
    if not names:
        print(f"no sweeps in {store.root}")
        return 0
    rows = []
    for name in names:
        spec = store.load_sweep(name)
        jobs = spec.expand()
        done = len(jobs) - len(store.missing(jobs))
        rows.append((name, spec.preset, f"{done}/{len(jobs)}"))
    print(format_table(["sweep", "preset", "done"], rows))
    print(f"\n{len(store.job_ids())} job records in {store.root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.name is not None:
        spec = store.load_sweep(args.name)
        records = [
            record
            for record in (store.get(job.job_id) for job in spec.expand())
            if record is not None
        ]
        title = f"sweep {args.name!r}"
    else:
        records = list(store.records())
        title = f"all records in {store.root}"
    if args.json:
        # Machine-readable: the stored summary records verbatim (already
        # JSON-shaped) plus the cross-job aggregate — what scripted sweeps
        # consume instead of scraping the table.
        summary = SweepSummary.aggregate(records)
        print(
            json.dumps(
                {
                    "sweep": args.name,
                    "records": records,
                    "aggregate": dataclasses.asdict(summary),
                },
                indent=1,
                sort_keys=True,
            )
        )
        return 0
    if not records:
        print(f"no records for {title}")
        return 0
    print(format_table(REPORT_HEADERS, report_rows(records), title=title))
    summary = SweepSummary.aggregate(records)
    print(
        f"\n{summary.jobs} jobs ({summary.ok} ok, {summary.failed} failed), "
        f"{summary.measurements:,} measurements, "
        f"{summary.problems:,} problems"
    )
    if summary.unique_fraction is not None:
        print(f"unique-solution fraction: {summary.unique_fraction:.1%}")
    if summary.mean_precision is not None:
        print(f"mean censor precision:    {summary.mean_precision:.1%}")
    if summary.mean_recall is not None:
        print(f"mean censor recall:       {summary.mean_recall:.1%}")
    if summary.mean_reduction is not None:
        print(f"mean candidate reduction: {summary.mean_reduction:.1%}")
    return 0


def _job_ids_for(store: ResultStore, name: Optional[str]) -> List[str]:
    if name is not None:
        spec = store.load_sweep(name)
        return [job.job_id for job in spec.expand()]
    return store.job_ids()


def _cmd_perf(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    aggregate = StageTimer()
    per_job_total: List[Tuple[float, str]] = []
    jobs_with_perf = 0
    for job_id in _job_ids_for(store, args.name):
        perf_payload = store.get_perf(job_id)
        if perf_payload is None:
            continue
        snapshot = perf_payload.get("perf", {})
        jobs_with_perf += 1
        aggregate.merge(snapshot)
        total = snapshot.get("stages", {}).get("job.total", {}).get("seconds")
        if total is not None:
            record = store.get(job_id)
            label = record.get("label", job_id) if record else job_id
            per_job_total.append((total, label))
    if args.json:
        snapshot = aggregate.snapshot() if jobs_with_perf else {
            "stages": {}, "counters": {}, "gauges": {}
        }
        print(
            json.dumps(
                {
                    "sweep": args.name,
                    "jobs_with_perf": jobs_with_perf,
                    "stages": snapshot["stages"],
                    "counters": snapshot["counters"],
                    "gauges": snapshot.get("gauges", {}),
                    "per_job_total": [
                        {"label": label, "seconds": seconds}
                        for seconds, label in sorted(
                            per_job_total, reverse=True
                        )
                    ],
                },
                indent=1,
                sort_keys=True,
            )
        )
        return 0
    if not jobs_with_perf:
        print(
            "no perf sidecars found (perf data is written for jobs "
            "executed by this version; cache hits from older stores "
            "have none)"
        )
        return 0
    snapshot = aggregate.snapshot()
    stages = snapshot["stages"]
    total_wall = stages.get("job.total", {}).get("seconds", 0.0)
    rows = [
        (
            name,
            f"{entry['seconds']:.2f}s",
            f"{entry['seconds'] / total_wall:.1%}" if total_wall else "n/a",
            entry["calls"],
        )
        for name, entry in sorted(
            stages.items(), key=lambda item: -item[1]["seconds"]
        )
    ]
    print(
        format_table(
            ["stage", "wall", "of total", "calls"],
            rows,
            title=f"stage timings over {jobs_with_perf} jobs",
        )
    )
    counters = snapshot["counters"]
    if counters:
        print()
        print(
            format_table(
                ["counter", "total"],
                sorted(counters.items()),
                title="counters",
            )
        )
    gauges = snapshot.get("gauges", {})
    if gauges:
        # Last-written levels (cache sizes, open-problem counts): the
        # cross-job "total" of a level is meaningless, so they get their
        # own table instead of summing into the counters above.
        print()
        print(
            format_table(
                ["gauge", "last value"],
                sorted(gauges.items()),
                title="gauges",
            )
        )
    if per_job_total:
        per_job_total.sort(reverse=True)
        print()
        print(
            format_table(
                ["job", "wall"],
                [
                    (label, f"{seconds:.2f}s")
                    for seconds, label in per_job_total[: args.top]
                ],
                title=f"slowest {min(args.top, len(per_job_total))} jobs",
            )
        )
    return 0


def _cmd_stream(args: argparse.Namespace, argv: List[str]) -> int:
    # Deferred import: the stream CLI pulls in the full engine stack,
    # which sweep/report invocations never need.  The runner's --store
    # goes first, so a --store among the stream flags still wins.
    from repro.stream import cli as stream_cli

    return stream_cli.main(["--store", args.store, *argv])


def _endpoint_url(url: str, path: str) -> str:
    """Normalize ``host:port``/``http://host:port[/anything]`` + path."""
    if not url.startswith(("http://", "https://")):
        url = f"http://{url}"
    scheme, _, rest = url.partition("://")
    host = rest.split("/", 1)[0]
    return f"{scheme}://{host}{path}"


def _fetch_json(url: str, timeout: float = 10.0):
    """GET one endpoint, JSON-decoded; HTTP errors still yield bodies
    (``/healthz`` is 503 *with* a document when unhealthy)."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode("utf-8"))


_SCRAPE_ERROR_HINT = (
    "is a session serving --metrics-port there, and still alive?"
)


def _shard_rows(
    shards: dict,
    rates: Optional[dict] = None,
    buckets: Optional[dict] = None,
) -> List[Tuple]:
    rows = []
    for shard, view in sorted(
        shards.items(), key=lambda item: int(item[0])
    ):
        rows.append(
            (
                shard,
                "up" if view.get("up", 1.0) else "DOWN",
                (
                    f"{rates.get(shard, 0.0):.1f}"
                    if rates is not None
                    else f"{int(view.get('verdicts', 0))}"
                ),
                int((buckets or {}).get(shard, 0)),
                int(view.get("queue_depth", 0)),
                f"{view.get('ingest_lag', 0.0):.3f}s",
                f"{view.get('seconds_since_ack', 0.0):.1f}s",
                int(view.get("recoveries", 0)),
            )
        )
    return rows


_TOP_HEADERS = [
    "shard", "state", "ev/s", "buckets", "queue", "lag", "silence",
    "recoveries",
]


def _placement_line(placement: dict) -> Optional[str]:
    """One-line placement summary for status/top frames."""
    if not placement:
        return None
    last = placement.get("last_rebalance", 0.0) or 0.0
    when = (
        time.strftime("%H:%M:%S", time.localtime(last))
        if last
        else "never"
    )
    return (
        f"placement: epoch {int(placement.get('epoch', 0))}  "
        f"shards: {int(placement.get('shards', 0))}  "
        f"rebalances: {int(placement.get('rebalances', 0))} "
        f"({int(placement.get('moved_buckets', 0))} buckets moved, "
        f"last: {when})"
    )


def _cmd_status(args: argparse.Namespace) -> int:
    from urllib.error import URLError

    url = _endpoint_url(args.url, "/statusz")
    try:
        document = _fetch_json(url)
    except (OSError, URLError) as exc:
        print(
            f"error: cannot scrape {url}: {exc} — {_SCRAPE_ERROR_HINT}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(document, indent=1, sort_keys=True))
        return 0 if document.get("status") == "ok" else 1
    print(
        f"status: {document.get('status')}  "
        f"uptime: {document.get('uptime_seconds', 0.0):.1f}s  "
        f"snapshot age: {document.get('snapshot_age_seconds', 0.0):.3f}s"
    )
    for problem in document.get("problems", ()):
        print(f"problem: {problem}")
    events = document.get("events", {})
    if events:
        print(
            "events: "
            + ", ".join(
                f"{kind}={int(count)}"
                for kind, count in sorted(events.items())
            )
        )
    placement = document.get("placement", {})
    line = _placement_line(placement)
    if line:
        print(line)
    shards = document.get("shards", {})
    if shards:
        headers = [
            "shard", "state", "verdicts", "buckets", "queue", "lag",
            "silence", "recoveries",
        ]
        print()
        print(
            format_table(
                headers,
                _shard_rows(shards, buckets=placement.get("buckets")),
            )
        )
    tenants = document.get("tenants", {})
    if tenants:
        headers = [
            "tenant", "state", "received", "applied", "durable", "lag",
            "queue", "events", "epoch",
        ]
        print()
        print(format_table(headers, _tenant_rows(tenants)))
    return 0 if document.get("status") == "ok" else 1


def _tenant_rows(tenants: Dict[str, Any]) -> List[tuple]:
    """The serve daemon's per-campaign rollup as table rows."""
    rows = []
    for tenant, view in sorted(tenants.items()):
        rows.append(
            (
                tenant,
                "up" if view.get("up", 1.0) else "FAILED",
                int(view.get("received_seq", 0)),
                int(view.get("applied_seq", 0)),
                int(view.get("checkpoint_seq", 0)),
                int(view.get("lag_frames", 0)),
                int(view.get("queue_depth", 0)),
                int(view.get("events_buffered", 0)),
                # Sharded tenants only; inline campaigns show "-".
                (
                    int(view["placement_epoch"])
                    if "placement_epoch" in view
                    else "-"
                ),
            )
        )
    return rows


def _cmd_top(args: argparse.Namespace) -> int:
    from urllib.error import URLError
    from repro.obs.export import (
        placement_status,
        shard_status,
        status_document,
    )

    url = _endpoint_url(args.url, "/metrics.json")

    def frame(previous, elapsed):
        snapshot = _fetch_json(url)
        shards = shard_status(snapshot)
        rates = None
        if previous is not None and elapsed > 0:
            rates = {
                shard: max(
                    0.0,
                    view.get("verdicts", 0)
                    - previous.get(shard, {}).get("verdicts", 0),
                ) / elapsed
                for shard, view in shards.items()
            }
        document = status_document(snapshot)
        print(
            f"status: {document['status']}  events: "
            + (
                ", ".join(
                    f"{kind}={int(count)}"
                    for kind, count in sorted(document["events"].items())
                )
                or "none"
            )
        )
        placement = placement_status(snapshot)
        line = _placement_line(placement)
        if line:
            print(line)
        if shards:
            print(
                format_table(
                    _TOP_HEADERS,
                    _shard_rows(
                        shards, rates, buckets=placement.get("buckets")
                    ),
                )
            )
        else:
            print("no shard-labeled series (inline backend?)")
        return shards

    try:
        previous = frame(None, 0.0)
        if args.once:
            return 0
        while True:
            time.sleep(args.interval)
            print()
            previous = frame(previous, args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, URLError) as exc:
        print(
            f"error: cannot scrape {url}: {exc} — {_SCRAPE_ERROR_HINT}",
            file=sys.stderr,
        )
        return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    # Deferred import: pulls in the full engine stack.
    from repro.api.config import ExecutionPolicy
    from repro.api.session import LocalizationSession

    session = LocalizationSession.from_preset(
        args.preset,
        seed=args.seed,
        execution=ExecutionPolicy(
            backend=args.backend,
            shards=args.shards,
            transport=args.transport,
        ),
    )
    session.enable_metrics()
    session.enable_tracing()
    session.stream()
    spans = session.export_trace(args.out)
    print(
        f"wrote {spans} spans to {args.out} "
        f"(open in chrome://tracing or ui.perfetto.dev)"
    )
    return 0


def _read_metrics_source(source: str) -> str:
    """Fetch an exposition: live URL, text file, or JSON snapshot file.

    JSON snapshots (``/metrics.json`` dumps, ``"metrics"`` keys cut out
    of ``repro-stream --json`` output) are rendered to Prometheus text
    first, so one validation path covers both formats."""
    if source.startswith(("http://", "https://")):
        import urllib.request

        with urllib.request.urlopen(source, timeout=10.0) as response:
            text = response.read().decode("utf-8")
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        from repro.obs.export import render_prometheus

        return render_prometheus(json.loads(stripped))
    return text


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import parse_prometheus, validate_exposition
    from urllib.error import URLError

    try:
        text = _read_metrics_source(args.source)
    except (OSError, URLError) as exc:
        # One line, with the likely cause spelled out: connection
        # refused / timeouts here almost always mean the session ended
        # (or never had --metrics-port).
        reason = getattr(exc, "reason", exc)
        print(
            f"error: cannot read {args.source}: {reason} — "
            f"{_SCRAPE_ERROR_HINT}",
            file=sys.stderr,
        )
        return 2
    series = parse_prometheus(text)
    problems = validate_exposition(text) if args.check else []
    if args.json:
        print(
            json.dumps(
                {
                    "source": args.source,
                    "series": series,
                    "problems": problems,
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        for name in sorted(series):
            print(f"{name} {series[name]:g}")
        if args.check:
            for problem in problems:
                print(f"problem: {problem}", file=sys.stderr)
            print(
                f"{len(series)} series, {len(problems)} problems",
                file=sys.stderr,
            )
    return 1 if problems else 0


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    # Deferred imports: the worker pulls in the engine stack.
    from repro.api.backends import run_shard_worker
    from repro.api.transport import TransportError, connect_worker

    try:
        transport = connect_worker(args.connect, retry_for=args.retry_for)
    except (TransportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"shard worker serving {args.connect}")
    run_shard_worker(transport)
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "resume": _cmd_resume,
    "list": _cmd_list,
    "report": _cmd_report,
    "perf": _cmd_perf,
    "status": _cmd_status,
    "top": _cmd_top,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "shard-worker": _cmd_shard_worker,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if rest and args.command != "stream":
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    obslog.configure_from_args(args)
    if args.command == "stream":
        return _cmd_stream(args, rest)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = ["main"]
