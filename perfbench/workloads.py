"""The benchmark's two workloads, one repetition at a time.

Every workload runs the paper's chain — ICLab-style measurements →
traceroute-to-AS-path conversion → per-(URL, anomaly, window) tomography
problems → SAT verdicts → censor and leakage reports — through a
different front end:

``batch-paper``
    ``World.run_campaign()`` then ``LocalizationPipeline.run`` on the
    paper-shaped world over 45 days: the paper's own workflow.  Campaign
    simulation (iclab, routing, netsim, traceroute) and the batch solve
    (core, sat) split the time; the stream, api and serve layers idle.
``serve-sweep``
    A sweep-scheduled campaign (12 URLs × 12 vantage points, three
    tests per pair a day, 35 days) pushed by one ``ServeClient`` with
    ``want_events`` to a separate ``repro.serve`` daemon whose tenant
    runs the sharded backend on two pipe shards.  The client sends until
    its ack window fills, then waits (closed loop).  High path
    redundancy leaves little solver work, so the fabric dominates:
    client conversion, wire encode, the daemon's reader, tenant queue
    and applier, shard routing, pipe transport, merge.

The world — topology, censors, routing churn, IP-to-AS data — is the
paper-shaped world at scenario seed 1 for every run.  ``--seed`` drives
the measurement campaigns: schedule, vantage sampling and per-test
noise.  A fresh world per seed changes the batch solve time by a factor
of two and would drown any regression in input variance.

Each repetition runs in a fresh interpreter (see ``rep.py``) and returns
a dict of raw figures; ``run.py`` aggregates them.  Correctness gates
run after the timed part, against references computed on a separate
``World`` instance, so the IP-to-AS memos are cold when timing starts.
Garbage collection stays on: users pay for it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.config import ExecutionPolicy, SessionConfig
from repro.api.session import LocalizationSession
from repro.core.observations import build_observations
from repro.core.pipeline import PipelineResult, assemble_result, solution_to_dict
from repro.core.problem import ProblemSolveCache, TomographyProblem
from repro.core.splitting import split_observations
from repro.scenario.config import ScenarioConfig
from repro.scenario.world import World, build_world
from repro.serve.client import ServeClient
from repro.stream.events import VerdictKind

import tracing
from tracing import LayerClock, TreePeakSampler, percentile

# The paper-shaped world the campaign seeds vary over (see above).
WORLD_SEED = 1
# World builds per set-up; set-up reports their median.
SETUP_BUILDS = 9
# Problems per batch run re-solved by the paper-faithful oracle.
ORACLE_SAMPLE = 300
# serve-sweep: feeds per repetition.  Each simulates the campaign in its
# own set-up, so campaign_s gets one sample per feed, spread over the run.
SERVE_FEEDS = 5
SERVE_CAMPAIGN = "bench"


def session_config(workload: str) -> SessionConfig:
    """The session config a workload's world and engine are built from."""
    if workload == "batch-paper":
        return SessionConfig(
            preset="paper_shaped", seed=WORLD_SEED, duration_days=45
        )
    if workload == "serve-sweep":
        return SessionConfig(
            preset="paper_shaped",
            seed=WORLD_SEED,
            duration_days=35,
            num_urls=12,
            num_vantage_points=12,
            schedule="sweep",
            sweeps_per_pair_per_day=3.0,
            execution=ExecutionPolicy(backend="sharded", shards=2),
        )
    raise ValueError(f"unknown workload {workload!r}")


def scenario(config: SessionConfig, seed: int) -> ScenarioConfig:
    """The config's world with the campaign driven by ``seed``."""
    base = config.scenario_config()
    return dataclasses.replace(
        base, platform=dataclasses.replace(base.platform_config(), seed=seed)
    )


def _canonical(result: PipelineResult) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")


def _build(config: ScenarioConfig) -> Tuple[World, float, float]:
    """``SETUP_BUILDS`` fresh worlds: the last one, the median build time
    and the whole time spent here.  Set-up reports the median, so one
    slow build (a page fault storm, a descheduled core) does not move it."""
    entered = perf_counter()
    times = []
    for _ in range(SETUP_BUILDS):
        started = perf_counter()
        world = build_world(config)
        times.append(perf_counter() - started)
    # The discarded worlds are the benchmark's garbage, not the timed
    # part's: collect them before timing starts.
    gc.collect()
    return world, median(times), perf_counter() - entered


# -- campaign layers -------------------------------------------------------


def _campaign_patches(world: World, clock: LayerClock):
    """Timers on the campaign's layers, at the world's own instances and
    at ``repro.iclab.platform``'s call sites."""
    import repro.iclab.platform as platform_module

    stack = contextlib.ExitStack()
    stack.enter_context(clock.patch(world.platform, "run_test", "iclab.run_test"))
    for method in ("aspath_at", "previous_path", "schedule_for"):
        stack.enter_context(clock.patch(world.oracle, method, "routing.aspath"))
    for attribute, name in (
        ("simulate_http_fetch", "netsim.http"),
        ("simulate_dns_lookup", "netsim.dns"),
        ("simulate_traceroute_triplet", "traceroute.triplet"),
        ("run_detectors", "iclab.detect"),
    ):
        stack.enter_context(clock.patch(platform_module, attribute, name))
    return stack


def _run_campaign(world: World, clock: Optional[LayerClock]):
    started = perf_counter()
    if clock is None:
        dataset = world.run_campaign()
    else:
        with _campaign_patches(world, clock):
            dataset = world.run_campaign()
    return dataset, perf_counter() - started


def _campaign_layers(routes: Dict[str, int], clock: LayerClock) -> Dict[str, float]:
    """Campaign timers plus the route computers' counters ``routes``."""
    seconds = clock.seconds
    children = sum(
        seconds[name]
        for name in (
            "routing.aspath",
            "netsim.http",
            "netsim.dns",
            "traceroute.triplet",
            "iclab.detect",
        )
    )
    return {
        "iclab.run_test_s": seconds["iclab.run_test"],
        "iclab.run_test_calls": clock.calls["iclab.run_test"],
        "iclab.self_s": seconds["iclab.run_test"] - children,
        "iclab.detect_s": seconds["iclab.detect"],
        "routing.aspath_s": seconds["routing.aspath"],
        "netsim.http_s": seconds["netsim.http"],
        "netsim.dns_s": seconds["netsim.dns"],
        "traceroute.triplet_s": seconds["traceroute.triplet"],
        "routing.tables_computed": routes["tables_computed"],
        "routing.tables_incremental": routes["tables_incremental"],
        "routing.cache_hits": routes["cache_hits"],
    }


# Self times that, with other_s, add up to the traced campaign_s +
# localize_s.  iclab.run_test_s is inclusive; iclab.self_s is its share
# outside routing, netsim, traceroute and the detectors.
CAMPAIGN_SELF = (
    "iclab.self_s",
    "iclab.detect_s",
    "routing.aspath_s",
    "netsim.http_s",
    "netsim.dns_s",
    "traceroute.triplet_s",
)
BATCH_SELF = CAMPAIGN_SELF + (
    "core.convert_s",
    "core.split_s",
    "core.solve_s",
    "core.assemble_s",
)
SERVE_SELF = CAMPAIGN_SELF + (
    "client.convert_s",
    "client.flush_s",
    "serve.backlog_s",
    "serve.drain_only_s",
)


def _with_other(layers, self_keys, campaign_s, localize_s) -> Dict[str, Any]:
    layers["other_s"] = campaign_s + localize_s - sum(
        layers[key] for key in self_keys
    )
    return layers


def _solve_bucket(stats, before: Tuple[int, int]) -> str:
    """Which SolveStats counter a solve call advanced."""
    if stats.signature_hits > before[0]:
        return "core.solve_memo_s"
    if stats.cdcl_solves > before[1]:
        return "core.solve_cdcl_s"
    return "core.solve_propagated_s"


def _mark(stats) -> Tuple[int, int]:
    return (stats.signature_hits, stats.cdcl_solves)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- batch-paper -----------------------------------------------------------


def batch_rep(seed: int, trace: bool, gate: bool, root: str) -> Dict[str, Any]:
    config = session_config("batch-paper")
    pipeline_config = config.pipeline_config()
    world, setup_s, _ = _build(scenario(config, seed))
    clock = LayerClock() if trace else None

    dataset, campaign_s = _run_campaign(world, clock)
    started = perf_counter()
    if clock is None:
        pipeline = world.pipeline(pipeline_config)
        result = pipeline.run(dataset)
        stats = pipeline.last_solve_stats
    else:
        result, layers, stats = _traced_localize(world, dataset, pipeline_config)
    localize_s = perf_counter() - started
    peak_mb = tracing.self_peak_rss_mb()

    sample = _sample(
        setup_s=setup_s,
        campaign_s=campaign_s,
        localize_s=localize_s,
        ingest_s=localize_s,   # one call ingests every measurement ...
        drain_s=localize_s,    # ... and delivers every verdict
        latencies=[localize_s],
        measurements=len(dataset),
        peak_rss_mb=peak_mb,
    )
    out: Dict[str, Any] = {
        "samples": [sample],
        "attempted": 1,
        "failed": 0,
        "digest": hashlib.sha256(_canonical(result)).hexdigest(),
    }
    out["counters"] = {
        "measurements": len(dataset),
        "converted": result.discard_stats.converted,
        "problems": len(result.solutions),
        **{f"routing.{k}": v for k, v in world.oracle.routes.stats.as_dict().items()},
        **{f"solve.{k}": v for k, v in stats.as_dict().items()},
    }
    if clock is not None:
        layers.update(_campaign_layers(world.oracle.routes.stats.as_dict(), clock))
        layers["world.build_s"] = setup_s
        out["layers"] = _with_other(layers, BATCH_SELF, campaign_s, localize_s)
    if gate:
        out["gate"] = _batch_gate(config, seed, dataset, result, trace)
    return out


def _traced_localize(world: World, dataset, pipeline_config):
    """``LocalizationPipeline.run``, step by step, each step timed."""
    buckets = {
        "core.solve_memo_s": 0.0,
        "core.solve_cdcl_s": 0.0,
        "core.solve_propagated_s": 0.0,
    }
    started = perf_counter()
    observations, discard = build_observations(
        dataset, world.ip2as, anomalies=pipeline_config.anomalies
    )
    split_started = perf_counter()
    groups = split_observations(
        observations, granularities=pipeline_config.granularities
    )
    solve_started = perf_counter()
    cache = ProblemSolveCache()
    stats = cache.stats
    solutions = []
    for key, group in groups.items():
        problem = TomographyProblem(
            key, group, solution_cap=pipeline_config.solution_cap, validate=False
        )
        before = _mark(stats)
        call_started = perf_counter()
        solutions.append(problem.solve(cache))
        buckets[_solve_bucket(stats, before)] += perf_counter() - call_started
    assemble_started = perf_counter()
    result = assemble_result(solutions, groups, discard, world.country_by_asn)
    ended = perf_counter()
    solve_s = assemble_started - solve_started
    layers = {
        **buckets,
        "core.convert_s": split_started - started,
        "core.observations": len(observations),
        "core.discarded": discard.total - discard.converted,
        "core.split_s": solve_started - split_started,
        "core.problems": len(groups),
        "core.solve_s": solve_s,
        "core.assemble_s": ended - assemble_started,
        "core.cdcl_share": _share(buckets["core.solve_cdcl_s"], solve_s),
        **{f"solve.{k}": v for k, v in stats.as_dict().items() if k != "problems"},
    }
    return result, layers, stats


def _batch_gate(
    config: SessionConfig, seed: int, dataset, result: PipelineResult, trace: bool
) -> Dict[str, Any]:
    """Re-solve a seeded sample of problems with the paper-faithful oracle;
    in the traced run also compare the step-by-step chain with an untraced
    ``pipeline.run`` on a separate world."""
    mismatches: List[str] = []
    keys = sorted(result.observations_by_key, key=str)
    sample = random.Random(seed).sample(keys, min(ORACLE_SAMPLE, len(keys)))
    solved = {solution.key: solution for solution in result.solutions}
    cap = config.pipeline_config().solution_cap
    for key in sample:
        problem = TomographyProblem(key, result.observations_by_key[key], solution_cap=cap)
        if solution_to_dict(problem.solve_reference()) != solution_to_dict(solved[key]):
            mismatches.append(f"solve_reference disagrees on {key}")
    if trace and _canonical(_reference(config, seed, dataset)) != _canonical(result):
        mismatches.append("traced chain differs from untraced pipeline.run")
    return {"checked": len(sample) + int(trace), "mismatches": mismatches}


def _reference(config: SessionConfig, seed: int, dataset) -> PipelineResult:
    """``LocalizationPipeline.run`` on a freshly built world."""
    world = build_world(scenario(config, seed))
    return world.pipeline(config.pipeline_config()).run(dataset)


# -- serve-sweep -----------------------------------------------------------


class Daemon:
    """A stateless ``repro.serve`` daemon in its own process.

    Without ``--state-dir`` the daemon writes no periodic tenant
    checkpoints.  With one, the eight checkpoints of this feed export
    the whole sharded engine state and stretch the run from about 4 s to
    15 s, so checkpointing is left to a workload of its own.
    """

    def __init__(self, root: str, metrics: bool) -> None:
        command = [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0"]
        if metrics:
            command += ["--metrics-port", "0"]
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        )
        self._reader: Optional[threading.Thread] = None
        self.address = self._line_after("repro-serve listening on ")
        self.metrics_url = None
        if metrics:
            statusz = self._line_after("telemetry: ")
            self.metrics_url = statusz.rsplit("/", 1)[0] + "/metrics"
        # Keep reading so the daemon can never block on a full pipe.
        self._reader = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._reader.start()

    def _line_after(self, prefix: str) -> str:
        line = self.process.stdout.readline()
        if not line.startswith(prefix):
            self.kill()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        return line[len(prefix):].strip()

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait; the exit code (-1 when it had to be killed)."""
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1

    def kill(self) -> None:
        """SIGKILL the daemon and its shard workers if still running, and
        wait for them."""
        if self.process.poll() is None:
            orphans = tracing.descendants(self.process.pid)
            self.process.kill()
            tracing.kill_and_wait(orphans)
        self.process.wait()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self.process.stdout.close()


def serve_rep(seed: int, trace: bool, gate: bool, root: str) -> Dict[str, Any]:
    """``SERVE_FEEDS`` feeds of one campaign (one when traced).  Each
    simulates the campaign afresh in its set-up, then serves it to a
    fresh daemon from a fresh client world."""
    config = session_config("serve-sweep")
    clock = LayerClock() if trace else None
    feeds = []
    for _ in range(1 if trace else SERVE_FEEDS):
        started = perf_counter()
        world, build_s, build_spent = _build(scenario(config, seed))
        dataset, campaign_s = _run_campaign(world, clock)
        presim_s = perf_counter() - started - build_spent + build_s
        routes = world.oracle.routes.stats.as_dict()
        del world  # the feed converts with a world of its own
        feed = _serve_feed(config, seed, dataset, root, clock)
        feed["sample"]["campaign_s"] = campaign_s
        feed["sample"]["setup_s"] += presim_s
        feeds.append(feed)
    first = feeds[0]
    failed = sum(feed["failed"] for feed in feeds)
    for feed in feeds[1:]:
        if feed["digest"] != first["digest"]:
            print("serve-sweep: feeds of one campaign drained differently", file=sys.stderr)
            failed += len(dataset) - feed["failed"]
    out = {
        "samples": [feed["sample"] for feed in feeds],
        "attempted": len(dataset) * len(feeds),
        "failed": failed,
        "digest": first["digest"],
        "counters": {
            "measurements": len(dataset),
            "events": len(first["events"]),
            "reconnects": first["client"].reconnects,
        },
    }
    if clock is not None:
        layers = _serve_layers(routes, clock, first)
        layers["world.build_s"] = build_s
        out["layers"] = _with_other(
            layers, SERVE_SELF, campaign_s, first["sample"]["localize_s"]
        )
    if gate:
        out["gate"] = _serve_gate(config, seed, dataset, first["result"], first["events"])
    return out


def _serve_feed(config, seed, dataset, root, clock) -> Dict[str, Any]:
    """Start a daemon, attach a client, feed ``dataset``, drain, SIGTERM."""
    import repro.serve.client as client_module

    started = perf_counter()
    world = build_world(scenario(config, seed))
    daemon = Daemon(root, metrics=clock is not None)
    try:
        events: List[Any] = []
        client = ServeClient(
            daemon.address,
            SERVE_CAMPAIGN,
            config=config,
            ip2as=world.ip2as,
            want_events=True,
            on_event=events.append,
        )
        client.attach()
        sampler = TreePeakSampler(daemon.process.pid).start()
        setup_s = perf_counter() - started

        latencies: List[float] = []
        failed = 0
        patches = (
            _client_patches(clock, client, client_module)
            if clock is not None
            else contextlib.nullcontext()
        )
        with patches:
            feed_started = perf_counter()
            for measurement in dataset:
                call_started = perf_counter()
                try:
                    client.ingest_measurement(measurement)
                except Exception as exc:
                    failed += 1
                    print(f"serve-sweep: ingest raised {exc!r}", file=sys.stderr)
                latencies.append(perf_counter() - call_started)
            drain_started = backlog_started = backlog_ended = perf_counter()
            if clock is not None:
                # The traced run splits the drain: ship the last partial
                # chunk, wait out the ack backlog, then the drain proper.
                client.flush()
                backlog_started = perf_counter()
                client.wait_for_acks()
                backlog_ended = perf_counter()
            result = client.drain()
            ended = perf_counter()
        peak_mb = sampler.stop()
        series = tracing.scrape(daemon.metrics_url) if clock is not None else {}
        client.close()
        exit_code = daemon.stop()
    finally:
        daemon.kill()
    if exit_code != 0:
        print(f"serve-sweep: daemon exited {exit_code} on SIGTERM", file=sys.stderr)
        failed += 1
    return {
        "sample": _sample(
            setup_s=setup_s,
            campaign_s=0.0,
            localize_s=ended - feed_started,
            ingest_s=drain_started - feed_started,
            drain_s=ended - drain_started,
            latencies=latencies,
            measurements=len(dataset),
            peak_rss_mb=peak_mb,
        ),
        "failed": failed + client.reconnects,
        "digest": hashlib.sha256(_canonical(result)).hexdigest(),
        "result": result,
        "events": events,
        "client": client,
        "series": series,
        "backlog_s": backlog_ended - backlog_started,
        "drain_only_s": ended - backlog_ended,
    }


def _client_patches(clock: LayerClock, client: ServeClient, client_module):
    stack = contextlib.ExitStack()
    stack.enter_context(clock.patch(client_module, "observations_of", "client.convert"))
    stack.enter_context(clock.patch(client, "flush", "client.flush"))
    return stack


def _serve_layers(routes: Dict[str, int], clock: LayerClock, feed) -> Dict[str, Any]:
    """Client-side timers plus the daemon's own ``/metrics`` series."""
    seconds = clock.seconds
    series, client = feed["series"], feed["client"]
    total = tracing.family_sum
    buckets = tracing.family_values(series, "repro_placement_buckets")
    snapshots = total(series, "repro_stream_snapshots")
    fallbacks = total(series, "repro_stream_fallback_solves")
    layers = _campaign_layers(routes, clock)
    layers.update(
        {
            "core.convert_s": seconds["client.convert"],
            "core.observations": total(series, "repro_stream_observations"),
            "core.discarded": client.discard.total - client.discard.converted,
            "client.convert_s": seconds["client.convert"],
            "client.flush_s": seconds["client.flush"],
            "client.frames": total(series, "repro_serve_received_seq"),
            "client.events": len(feed["events"]),
            "client.reconnects": client.reconnects,
            "serve.backlog_s": feed["backlog_s"],
            "serve.drain_only_s": feed["drain_only_s"],
            "serve.apply_s": total(series, "repro_serve_apply_seconds_sum"),
            "serve.checkpoints": total(series, "repro_serve_checkpoints_total"),
            "transport.frames": total(series, "repro_transport_frames_total"),
            "transport.bytes": total(series, "repro_transport_bytes_total"),
            "transport.encode_s": total(series, "repro_transport_encode_seconds_sum"),
            "transport.decode_s": total(series, "repro_transport_decode_seconds_sum"),
            "shard.chunks_sent": total(series, "repro_shard_chunks_sent_total"),
            "shard.bucket_skew": (
                max(buckets) * len(buckets) / sum(buckets) if buckets else 0.0
            ),
            "stream.snapshots": snapshots,
            "stream.fallback_solves": fallbacks,
            "stream.fallback_share": _share(fallbacks, snapshots),
            "stream.propagation_decided": total(series, "repro_stream_propagation_decided"),
            "stream.clauses_appended": total(series, "repro_stream_clauses_appended"),
            "stream.problems_opened": total(series, "repro_stream_problems_opened"),
            "stream.events_emitted": total(series, "repro_stream_events_emitted"),
            "stream.solve.cdcl_solves": total(series, "repro_solve_cdcl_solves"),
            "stream.solve.unique_cnfs": total(series, "repro_solve_unique_cnfs"),
        }
    )
    return layers


def _serve_gate(config, seed, dataset, served: PipelineResult, served_events) -> Dict[str, Any]:
    """The served drain equals the batch pipeline's and an inline engine's
    on the same feed, and so do its per-problem (kind, status) histories."""
    mismatches: List[str] = []
    if _canonical(_reference(config, seed, dataset)) != _canonical(served):
        mismatches.append("served drain differs from LocalizationPipeline.run")
    inline_events: List[Any] = []
    inline_config = dataclasses.replace(config, execution=ExecutionPolicy())
    world = build_world(scenario(config, seed))
    with LocalizationSession.for_world(world, inline_config) as session:
        session.subscribe(inline_events.append)
        for measurement in dataset:
            session.ingest_measurement(measurement)
        inline = session.drain()
    if _canonical(inline) != _canonical(served):
        mismatches.append("served drain differs from the inline engine's")
    if _histories(served_events) != _histories(inline_events):
        mismatches.append("served per-problem event histories differ from inline")
    return {"checked": 3, "mismatches": mismatches}


def _histories(events) -> Dict[Any, List[Tuple[Any, Optional[str]]]]:
    """Per-problem (kind, status) sequences.  CENSOR_IDENTIFIED is left
    out: it is a global first-confirmation event whose anchor window
    depends on cross-shard close order."""
    history: Dict[Any, List[Tuple[Any, Optional[str]]]] = {}
    for event in events:
        if event.kind is VerdictKind.CENSOR_IDENTIFIED:
            continue
        status = event.solution.status.value if event.solution is not None else None
        history.setdefault(event.key, []).append((event.kind, status))
    return history


# -- shared ----------------------------------------------------------------


def _sample(
    *,
    setup_s: float,
    campaign_s: float,
    localize_s: float,
    ingest_s: float,
    drain_s: float,
    latencies: List[float],
    measurements: int,
    peak_rss_mb: float,
) -> Dict[str, Any]:
    """One timed iteration's raw end-to-end figures."""
    ordered = sorted(latencies)
    return {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "localize_s": localize_s,
        "ingest_s": ingest_s,
        "drain_s": drain_s,
        "measurements": measurements,
        "verdict_p50_ms": percentile(ordered, 0.50) * 1e3,
        "verdict_p99_ms": percentile(ordered, 0.99) * 1e3,
        "latency_samples": len(ordered),
        "peak_rss_mb": peak_rss_mb,
    }


REPS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "batch-paper": batch_rep,
    "serve-sweep": serve_rep,
}
