"""Micro-benchmarks for the performance-critical substrates.

Not paper artefacts — these guard the components whose cost dominates the
harness: the SAT solver, route computation, session simulation, and
traceroute-to-AS-path conversion.
"""

import contextlib
import gc
import itertools
import json
import statistics
import threading
import time

import pytest

from repro.api import ExecutionPolicy, SessionConfig
from repro.api.backends import BackendContext, ShardedBackend
from repro.core.aspath import convert_measurement
from repro.core.observations import build_observations
from repro.core.pipeline import PipelineConfig
from repro.routing.bgp import RouteComputer
from repro.sat.cnf import CNF, Clause
from repro.sat.solver import Solver
from repro.stream import StreamingLocalizer
from repro.stream.checkpoint import engine_state, restore_engine
from repro.util.rng import DeterministicRNG


def test_micro_sat_random_3sat(benchmark):
    """Solve a satisfiable-ish random 3-SAT instance at ratio 4.0."""
    rng = DeterministicRNG(7, "bench-3sat")
    num_vars = 60
    clauses = []
    for _ in range(240):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(
            Clause([v if rng.random() < 0.5 else -v for v in variables])
        )
    cnf = CNF(num_vars, clauses)

    def solve():
        return Solver(cnf).solve()

    result = benchmark(solve)
    assert result.satisfiable in (True, False)


def test_micro_route_computation(benchmark, bench_world):
    """One full per-destination routing table on the benchmark topology.

    Salts cycle over a fixed pool so the per-salt tie-break rank tables
    amortize (as they do in a real campaign) and the benchmark measures
    the three-phase propagation itself, not rank precomputation.
    """
    computer = RouteComputer(bench_world.graph, cache_size=0)
    destination = bench_world.test_list.urls[0].dest_asn
    salt_cycle = itertools.cycle(range(64))

    def compute():
        return computer.routing_table(destination, salt=next(salt_cycle))

    table = benchmark(compute)
    assert len(table) > 0


def test_micro_session_simulation(benchmark, bench_world):
    """One end-to-end censorship test (DNS + HTTP + 3 traceroutes)."""
    platform = bench_world.platform
    vantage = bench_world.vantage_points[0]
    test_url = bench_world.test_list.urls[0]
    timestamps = iter(range(1000, 10**9, 37))

    def run():
        return platform.run_test(vantage, test_url, next(timestamps))

    measurement = benchmark(run)
    assert measurement is not None


def test_micro_aspath_conversion(benchmark, bench_world, bench_dataset):
    """Traceroute-to-AS-path conversion over one measurement."""
    measurement = bench_dataset[0]

    def convert():
        return convert_measurement(measurement, bench_world.ip2as)

    conversion = benchmark(convert)
    assert conversion is not None


def test_micro_pipeline_solve(benchmark, bench_world, bench_dataset):
    """The tomography stage alone: observations → solved problems.

    Exercises the structural CNF dedup and propagation fast path over the
    paper-shaped problem mix (thousands of problems, hundreds of unique
    formulas); the perf-trajectory guard for the solver cache.
    """
    pipeline = bench_world.pipeline(PipelineConfig())
    observations, discard_stats = build_observations(
        bench_dataset, bench_world.ip2as
    )

    def solve():
        return pipeline.run_from_observations(observations, discard_stats)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    stats = pipeline.last_solve_stats
    assert stats is not None and stats.unique_cnfs < stats.problems
    assert len(result.solutions) == stats.problems


# The crossover study: the sharded drain is benchmarked against
# single-threaded ingest on the same slices.  6000 was the protocol-v0
# break-even point; 2000 pins that the batched wire protocol moved the
# crossover to (at latest) a third of that.
STREAM_SLICES = (2000, 6000)


@pytest.mark.parametrize("slice_size", STREAM_SLICES)
def test_micro_stream_ingest(benchmark, bench_world, bench_dataset,
                             slice_size):
    """Streaming ingestion throughput and verdict latency.

    Drains a slice of the paper-shaped campaign through the online engine
    with a (no-op) subscriber attached, so every ingested observation pays
    the full incremental-verdict path: ledger append, closure update,
    snapshot classification, and delta detection.  ``extra_info`` records
    events/sec and mean per-observation latency — the headline numbers of
    the streaming subsystem's perf trajectory.
    """
    observations, _ = build_observations(
        bench_dataset, bench_world.ip2as
    )
    slice_size = min(len(observations), slice_size)
    feed = observations[:slice_size]
    stats_holder = {}

    def drain():
        engine = StreamingLocalizer(
            bench_world.ip2as,
            bench_world.country_by_asn,
            config=PipelineConfig(),
        )
        engine.subscribe(lambda event: None)
        for observation in feed:
            engine.ingest_observation(observation)
        result = engine.drain()
        stats_holder["stats"] = engine.stats
        return result

    result = benchmark.pedantic(drain, rounds=3, iterations=1)
    stats = stats_holder["stats"]
    assert stats.observations == slice_size
    assert len(result.solutions) == stats.problems_closed
    assert stats.propagation_decided > stats.fallback_solves
    mean_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["observations"] = slice_size
    benchmark.extra_info["events_per_sec"] = round(
        slice_size / mean_seconds, 1
    )
    benchmark.extra_info["verdict_latency_us"] = round(
        mean_seconds / slice_size * 1e6, 2
    )
    benchmark.extra_info["verdict_events"] = stats.events_emitted


@pytest.mark.parametrize("slice_size", STREAM_SLICES)
def test_micro_sharded_drain(benchmark, bench_world, bench_dataset,
                             slice_size):
    """Sharded-backend drain: route → 4 worker processes → merge.

    The same observation slice ``test_micro_stream_ingest`` drains
    single-threaded goes through :class:`repro.api.ShardedBackend`
    instead, measuring the full distributed path — worker forks,
    per-chunk batched-wire IPC, parallel incremental solving, and the
    ordered merge — end to end.  The one-time equality check against the
    inline engine guards the merge itself.
    """
    observations, _ = build_observations(bench_dataset, bench_world.ip2as)
    slice_size = min(len(observations), slice_size)
    feed = observations[:slice_size]
    config = SessionConfig(
        preset="paper_shaped",
        execution=ExecutionPolicy(backend="sharded", shards=4),
    )

    def drain():
        backend = ShardedBackend(
            BackendContext(
                config=config,
                ip2as=bench_world.ip2as,
                country_by_asn=bench_world.country_by_asn,
            )
        )
        for observation in feed:
            backend.ingest_observation(observation)
        return backend.drain()

    result = benchmark.pedantic(drain, rounds=3, iterations=1)
    inline = StreamingLocalizer(
        bench_world.ip2as, bench_world.country_by_asn
    )
    for observation in feed:
        inline.ingest_observation(observation)
    assert result.to_dict() == inline.drain().to_dict()
    mean_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["observations"] = slice_size
    benchmark.extra_info["shards"] = 4
    benchmark.extra_info["events_per_sec"] = round(
        slice_size / mean_seconds, 1
    )


@pytest.mark.parametrize(
    "migration", ["grow_2_to_3", "pin_8_buckets"]
)
def test_micro_rebalance_commit(benchmark, bench_world, bench_dataset,
                                migration):
    """Live-rebalance latency: time-to-commit vs moved-bucket count.

    Each round loads a 2-shard backend with 2000 observations, then
    times one full migration — quiesce, slice extraction, transfer,
    epoch commit — for two movement profiles: a ring-driven grow
    (2 → 3 workers, ~1/3 of the buckets move) and a surgical 8-bucket
    override pin.  ``extra_info`` records the moved-bucket count next
    to the commit wall time, so the trajectory shows migration cost
    scaling with movement, not with fleet size.
    """
    observations, _ = build_observations(bench_dataset, bench_world.ip2as)
    feed = observations[:2000]
    config = SessionConfig(
        preset="paper_shaped",
        execution=ExecutionPolicy(backend="sharded", shards=2),
    )
    holder = {"backends": [], "report": None}

    def setup():
        backend = ShardedBackend(
            BackendContext(
                config=config,
                ip2as=bench_world.ip2as,
                country_by_asn=bench_world.country_by_asn,
            )
        )
        for observation in feed:
            backend.ingest_observation(observation)
        placement = backend.placement
        if migration == "grow_2_to_3":
            new_map = placement.with_shards(3)
        else:
            pairs = sorted(backend._known_pairs())[:8]
            new_map = placement.with_overrides(
                {
                    pair: (placement.shard_for(*pair) + 1) % 2
                    for pair in pairs
                }
            )
        holder["backends"].append(backend)
        return (backend, new_map), {}

    def commit(backend, new_map):
        holder["report"] = backend.rebalance(new_map)
        return holder["report"]

    benchmark.pedantic(commit, setup=setup, rounds=3, iterations=1)
    for backend in holder["backends"]:
        backend.close()
    report = holder["report"]
    assert report["moved_buckets"] > 0
    benchmark.extra_info["observations"] = len(feed)
    benchmark.extra_info["moved_buckets"] = report["moved_buckets"]
    benchmark.extra_info["commit_ms"] = round(
        benchmark.stats.stats.mean * 1e3, 2
    )


def _timed(function, times, context=contextlib.nullcontext):
    """Run ``function`` inside ``context`` with the collector paused,
    appending its wall time (the context's own setup untimed)."""
    with context():
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            result = function()
            times.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
    return result


def _overhead(benchmark, bare, instrumented, context=contextlib.nullcontext,
              rounds=7):
    """Relative cost of ``instrumented`` over ``bare``, measured alike.

    Each pedantic round times one instrumented call (the target) and one
    bare call, alternately just before it (setup) and just after it
    (teardown), both with GC paused whatever ``--benchmark-disable-gc``
    says.  The overhead is the median of the rounds' paired ratios, so
    host drift between rounds and a slow outlier on either side cancel
    instead of landing on one side alone.  ``context`` wraps each
    instrumented call outside its timer.  Returns the last instrumented
    result, the median bare time and the overhead.
    """
    bare_times, instrumented_times = [], []

    # pedantic reads a setup's return value as arguments: return None.
    def bare_before():
        if len(instrumented_times) % 2 == 0:
            _timed(bare, bare_times)

    def bare_after():
        if len(bare_times) < len(instrumented_times):
            _timed(bare, bare_times)

    bare()                              # warm caches before timing
    with context():
        instrumented()
    result = benchmark.pedantic(
        lambda: _timed(instrumented, instrumented_times, context),
        setup=bare_before,
        teardown=bare_after,
        rounds=rounds,
        iterations=1,
    )
    ratios = [i / b for i, b in zip(instrumented_times, bare_times)]
    return result, statistics.median(bare_times), (
        statistics.median(ratios) - 1.0
    )


def test_micro_metrics_overhead(benchmark, bench_world, bench_dataset):
    """Cost of a live metrics registry on the hot ingest path.

    Drains the same 2000-observation slice twice per round — registry
    attached (engine collector + per-event counters + SAT solve deltas)
    vs. bare — and reports the relative ingest overhead.  The registry's
    contract is "zero cost when absent, cheap when present": collectors
    defer all stats export to scrape time, so the only per-observation
    cost is the ``_emit`` counter bump.  The tripwire bound is generous
    (15%) to survive noisy CI machines; the recorded ``overhead_pct``
    is the budgeted number (<5% on an idle machine).
    """
    from repro.obs.metrics import MetricsRegistry

    observations, _ = build_observations(bench_dataset, bench_world.ip2as)
    feed = observations[: min(len(observations), 2000)]

    def drain(registry):
        engine = StreamingLocalizer(
            bench_world.ip2as,
            bench_world.country_by_asn,
            config=PipelineConfig(),
            metrics=registry,
        )
        engine.subscribe(lambda event: None)
        for observation in feed:
            engine.ingest_observation(observation)
        return engine.drain()

    instrumented, baseline, overhead = _overhead(
        benchmark, lambda: drain(None), lambda: drain(MetricsRegistry())
    )
    bare = drain(None)
    assert instrumented.to_dict() == bare.to_dict()
    assert overhead < 0.15, f"metrics overhead {overhead:.1%}"
    benchmark.extra_info["observations"] = len(feed)
    benchmark.extra_info["baseline_ms"] = round(baseline * 1000, 2)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)


def test_micro_obs_overhead(benchmark, bench_world, bench_dataset):
    """Cost of structured logging + span recording on the hot ingest path.

    Same protocol as ``test_micro_metrics_overhead``: the 2000-observation
    slice drains bare vs. with the full observability plane on — ``repro``
    logging configured at info into an in-memory sink and a
    :class:`SpanRecorder` attached to the engine.  Disabled is the
    default state (library ``NullHandler``, no recorder): its only cost
    is a level check and a ``None`` branch per event, i.e. noise.
    Enabled, the per-observation cost is bounded by the logging level
    gate (window closes log at debug, below the configured level) and
    one span per window close — the budget is <5% on an idle machine,
    with the same generous 15% tripwire as the metrics bench for noisy
    CI boxes.
    """
    import io
    import logging

    from repro.obs import log as obslog
    from repro.obs.spans import SpanRecorder

    observations, _ = build_observations(bench_dataset, bench_world.ip2as)
    feed = observations[: min(len(observations), 2000)]
    log = obslog.get_logger("bench.obs")

    def drain(spans):
        engine = StreamingLocalizer(
            bench_world.ip2as,
            bench_world.country_by_asn,
            config=PipelineConfig(),
        )
        if spans is not None:
            engine.attach_spans(spans)
        engine.subscribe(lambda event: None)
        for observation in feed:
            engine.ingest_observation(observation)
        result = engine.drain()
        log.info(
            "bench.drain", extra=obslog.fields(observations=len(feed))
        )
        return result

    recorders = []

    def instrumented_drain():
        recorders.append(SpanRecorder())
        return drain(recorders[-1])

    @contextlib.contextmanager
    def logging_on():
        root = obslog.configure(
            level="info", json_lines=True, stream=io.StringIO()
        )
        try:
            yield
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_configured", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    instrumented, baseline, overhead = _overhead(
        benchmark, lambda: drain(None), instrumented_drain, logging_on
    )
    bare = drain(None)
    assert instrumented.to_dict() == bare.to_dict()
    assert recorders[-1].snapshot(), "no spans recorded while enabled"
    assert overhead < 0.15, f"logging+span overhead {overhead:.1%}"
    benchmark.extra_info["observations"] = len(feed)
    benchmark.extra_info["baseline_ms"] = round(baseline * 1000, 2)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    benchmark.extra_info["spans"] = len(recorders[-1].snapshot())


def test_micro_checkpoint_roundtrip(benchmark, bench_world, bench_dataset):
    """Checkpoint/restore round-trip cost on a loaded engine.

    Serializes a mid-campaign engine (thousands of open/closed windows)
    through the full persistence path — state export, JSON encode/decode,
    and ledger/closure reconstruction by replay — the per-checkpoint tax
    a restartable consumer pays.  ``extra_info`` records the payload
    size, the other half of the checkpoint budget.
    """
    observations, _ = build_observations(bench_dataset, bench_world.ip2as)
    feed = observations[: min(len(observations), 4000)]
    engine = StreamingLocalizer(
        bench_world.ip2as, bench_world.country_by_asn
    )
    for observation in feed:
        engine.ingest_observation(observation)

    def roundtrip():
        payload = json.dumps(engine_state(engine))
        return restore_engine(
            json.loads(payload),
            bench_world.ip2as,
            bench_world.country_by_asn,
        )

    restored = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    assert restored.open_problems == engine.open_problems
    assert restored.closed_problems == engine.closed_problems
    benchmark.extra_info["observations"] = len(feed)
    benchmark.extra_info["state_bytes"] = len(
        json.dumps(engine_state(engine))
    )


# -- the serve daemon ---------------------------------------------------------
#
# The daemon's perf contract is "thin": its fixed per-frame overhead is
# the asyncio hop plus one executor hand-off, and concurrent campaigns
# scale by tenant because each one owns its queue and applier.  Both
# benches run against a real daemon on a background thread over
# localhost TCP — the deployment shape, not a mock.

SERVE_TENANTS = 4


@pytest.fixture(scope="module")
def serve_daemon():
    from repro.serve import AdmissionPolicy, start_in_thread

    handle = start_in_thread(policy=AdmissionPolicy(max_tenants=64))
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def serve_feed():
    """A tiny campaign pre-converted to observations (client-side shape)."""
    from repro.scenario.presets import tiny
    from repro.scenario.world import build_world

    world = build_world(tiny(seed=7))
    observations, _ = build_observations(
        world.run_campaign(), world.ip2as
    )
    return world, observations


def test_micro_serve_roundtrip(benchmark, serve_daemon):
    """One sequenced frame's round trip through the daemon.

    An ``advance`` frame on an empty tenant pays the serve path's entire
    fixed cost — frame encode/decode, the asyncio reader, the tenant
    queue, the executor hand-off, the watermark bump, and the ack back —
    with no solver work in the loop, so the number is the daemon's
    per-frame overhead floor.
    """
    from repro.serve import ServeClient

    client = ServeClient(
        serve_daemon.address,
        "bench-rtt",
        config=SessionConfig(preset="tiny", seed=7),
    )
    client.attach()
    timestamps = itertools.count(1000)

    def round_trip():
        client.advance(next(timestamps))
        client.wait_for_acks()

    benchmark(round_trip)
    client.close()
    mean_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["round_trips_per_sec"] = round(
        1.0 / mean_seconds, 1
    )


def test_micro_serve_concurrent_throughput(
    benchmark, serve_daemon, serve_feed
):
    """N concurrent campaigns streaming through one daemon.

    Each round attaches ``SERVE_TENANTS`` fresh tenants (world builds
    untimed, in setup), then every tenant's client ingests the same tiny
    observation feed from its own thread and drains — the multi-tenant
    hot path: interleaved frames on one event loop, per-tenant queues
    and appliers, chunked acks, concurrent engine folds.  The one-time
    equality check against the inline engine guards tenant isolation.
    """
    from repro.serve import ServeClient

    world, observations = serve_feed
    config = SessionConfig(preset="tiny", seed=7)
    rounds = itertools.count()
    holder = {}
    results = []

    def setup():
        clients = []
        tag = next(rounds)
        for index in range(SERVE_TENANTS):
            client = ServeClient(
                serve_daemon.address, f"bench-t{tag}-{index}", config=config
            )
            client.attach()
            clients.append(client)
        holder["clients"] = clients
        return (), {}

    def drain_all():
        failures = []

        def drive(client):
            try:
                for observation in observations:
                    client.ingest_observation(observation)
                results.append(client.drain())
            except Exception as exc:   # surfaces after the join
                failures.append(exc)

        threads = [
            threading.Thread(target=drive, args=(client,))
            for client in holder["clients"]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        for client in holder["clients"]:
            client.close()

    benchmark.pedantic(drain_all, setup=setup, rounds=3, iterations=1)
    inline = StreamingLocalizer(
        world.ip2as, world.country_by_asn, config=PipelineConfig()
    )
    for observation in observations:
        inline.ingest_observation(observation)
    expected = inline.drain().to_dict()
    assert all(
        result.to_dict() == expected
        for result in results[-SERVE_TENANTS:]
    )
    mean_seconds = benchmark.stats.stats.mean
    total = len(observations) * SERVE_TENANTS
    benchmark.extra_info["tenants"] = SERVE_TENANTS
    benchmark.extra_info["observations"] = total
    benchmark.extra_info["events_per_sec"] = round(total / mean_seconds, 1)
