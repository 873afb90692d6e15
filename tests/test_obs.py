"""repro.obs: registry semantics, export formats, and fabric telemetry.

The load-bearing pins live in ``TestDrainsUnchangedByTelemetry``: with a
registry attached (and therefore trace contexts on the wire and acks
coming back), every backend's drain must stay byte-identical to the
uninstrumented inline reference — telemetry is side-band by contract.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.api.config import ExecutionPolicy, SessionConfig
from repro.api.session import LocalizationSession
from repro.obs.export import (
    METRIC_CATALOG,
    MetricsServer,
    parse_prometheus,
    render_prometheus,
    validate_exposition,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    series_key,
)
from repro.obs.trace import TraceContext, Tracer
from repro.util.profiling import StageTimer


class FakeClock:
    """A deterministic clock: every reading advances by ``step``."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", {"shard": 0})
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # Get-or-create returns the same handle for the same series.
        assert registry.counter("hits_total", {"shard": "0"}) is counter
        assert registry.counter("hits_total", {"shard": 1}) is not counter

        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3

        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(99.0)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3

    def test_histogram_bounds_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())

    def test_series_key(self):
        assert series_key("n") == "n"
        assert series_key("n", {"b": 1, "a": "x"}) == 'n{a="x",b="1"}'

    def test_timer_uses_injected_clock(self):
        registry = MetricsRegistry(clock=FakeClock(step=1.5))
        histogram = registry.histogram("span", buckets=DEFAULT_BUCKETS)
        with registry.time(histogram):
            pass
        assert histogram.sum == pytest.approx(1.5)
        assert histogram.count == 1

    def test_snapshot_deterministic_and_sorted(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("b_total", {"shard": 1}).inc(2)
        registry.counter("b_total", {"shard": 0}).inc(1)
        registry.counter("a_total").inc(9)
        registry.gauge("depth").set(4)
        snapshot = registry.snapshot()
        assert snapshot["format"] == 1
        names = [
            (entry["name"], entry["labels"])
            for entry in snapshot["counters"]
        ]
        assert names == [
            ("a_total", {}),
            ("b_total", {"shard": "0"}),
            ("b_total", {"shard": "1"}),
        ]
        # Snapshots are JSON-compatible and stable across calls.
        assert json.loads(json.dumps(snapshot)) == registry.snapshot()

    def test_collector_runs_at_snapshot_and_key_replaces(self):
        registry = MetricsRegistry()
        calls = []
        registry.add_collector(
            lambda r: (calls.append("old"),
                       r.gauge("level").set(1))[-1],
            key="engine",
        )
        registry.add_collector(
            lambda r: (calls.append("new"),
                       r.gauge("level").set(2))[-1],
            key="engine",
        )
        snapshot = registry.snapshot()
        # The keyed re-registration replaced the first collector.
        assert calls == ["new"]
        assert snapshot["gauges"] == [
            {"name": "level", "labels": {}, "value": 2}
        ]


class TestMerge:
    def test_counters_add_gauges_overwrite(self):
        source = MetricsRegistry()
        source.counter("hits_total").inc(3)
        source.gauge("depth").set(5)
        target = MetricsRegistry()
        target.counter("hits_total").inc(10)
        target.gauge("depth").set(1)
        snapshot = source.snapshot()
        target.merge(snapshot)
        target.merge(snapshot)
        assert target.counter("hits_total").value == 16
        assert target.gauge("depth").value == 5  # not 10: last write wins

    def test_extra_labels_relabel_series(self):
        source = MetricsRegistry()
        source.counter("hits_total", {"role": "worker"}).inc(2)
        target = MetricsRegistry()
        target.merge(source.snapshot(), extra_labels={"shard": 3})
        merged = target.counter(
            "hits_total", {"role": "worker", "shard": "3"}
        )
        assert merged.value == 2

    def test_histograms_merge_elementwise(self):
        source = MetricsRegistry()
        source.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        source.histogram("lat", buckets=(1.0, 2.0)).observe(5.0)
        target = MetricsRegistry()
        target.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        target.merge(source.snapshot())
        merged = target.histogram("lat", buckets=(1.0, 2.0))
        assert merged.counts == [1, 1, 1]
        assert merged.count == 3
        assert merged.sum == pytest.approx(7.0)

    def test_histogram_bounds_mismatch_raises(self):
        source = MetricsRegistry()
        source.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        target = MetricsRegistry()
        target.histogram("lat", buckets=(1.0, 4.0))
        with pytest.raises(ValueError, match="bounds differ"):
            target.merge(source.snapshot())


class TestTracer:
    def test_span_round_trip(self):
        clock = FakeClock(start=10.0, step=2.0)
        registry = MetricsRegistry(clock=clock)
        tracer = Tracer(registry)
        context = tracer.start(watermark=86400)
        assert context.to_wire() == (1, 10.0, 86400)
        restored = TraceContext.from_wire(context.to_wire())
        assert restored == context
        histogram = registry.histogram("lat")
        duration = tracer.finish(restored, histogram)
        assert duration == pytest.approx(2.0)
        assert histogram.count == 1
        # Fresh ids per span.
        assert tracer.start().trace_id == 2


class TestExport:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_events_total", {"event_kind": "opened"}
        ).inc(3)
        registry.gauge(
            "repro_shard_queue_depth", {"shard": 0}
        ).set(2)
        registry.histogram(
            "repro_verdict_latency_seconds",
            {"shard": 0},
            buckets=(0.1, 1.0),
        ).observe(0.5)
        return registry

    def test_render_parse_round_trip(self):
        text = render_prometheus(self._populated().snapshot())
        series = parse_prometheus(text)
        assert series['repro_events_total{event_kind="opened"}'] == 3
        assert series['repro_shard_queue_depth{shard="0"}'] == 2
        assert (
            series['repro_verdict_latency_seconds_bucket{le="1.0",shard="0"}']
            == 1
        )
        assert series['repro_verdict_latency_seconds_count{shard="0"}'] == 1
        # Cumulative bucket counts end at the +Inf bucket == count.
        assert (
            series['repro_verdict_latency_seconds_bucket{le="+Inf",shard="0"}']
            == 1
        )

    def test_validate_accepts_catalog_series(self):
        text = render_prometheus(self._populated().snapshot())
        assert validate_exposition(text) == []

    def test_validate_flags_unknown_and_mistyped(self):
        registry = self._populated()
        registry.counter("made_up_total").inc()
        problems = validate_exposition(
            render_prometheus(registry.snapshot())
        )
        assert any("made_up_total" in problem for problem in problems)

    def test_catalog_entries_are_typed(self):
        for name, (kind, help_text) in METRIC_CATALOG.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert help_text

    def test_http_server_serves_both_endpoints(self):
        registry = self._populated()
        server = MetricsServer(registry, port=0)
        try:
            with urllib.request.urlopen(server.url, timeout=5.0) as r:
                text = r.read().decode()
            assert "repro_events_total" in text
            assert validate_exposition(text) == []
            json_url = f"http://{server.address}/metrics.json"
            with urllib.request.urlopen(json_url, timeout=5.0) as r:
                payload = json.loads(r.read().decode())
            assert payload["format"] == 1
            assert payload["counters"][0]["name"] == "repro_events_total"
        finally:
            server.close()


class TestStageTimerAdapter:
    def test_merge_does_not_double_count_gauges(self):
        """The historical bug: ``set_counter`` levels merged additively,
        so aggregating N job snapshots reported N× the cache size."""
        timer = StageTimer()
        timer.count("solves", 5)          # a true counter: adds
        timer.set_counter("cache_size", 40)  # a level: overwrites
        snapshot = timer.snapshot()
        aggregate = StageTimer()
        aggregate.merge(snapshot)
        aggregate.merge(snapshot)
        assert aggregate.counter("solves") == 10
        assert aggregate.counter("cache_size") == 40

    def test_legacy_snapshot_shape_still_merges(self):
        aggregate = StageTimer()
        aggregate.merge(
            {"stages": {"s": {"seconds": 1.0, "calls": 2}},
             "counters": {"n": 3}}
        )
        snapshot = aggregate.snapshot()
        assert snapshot["stages"]["s"] == {"seconds": 1.0, "calls": 2}
        assert snapshot["counters"] == {"n": 3}
        assert snapshot["gauges"] == {}

    def test_shared_registry_exposes_stages(self):
        registry = MetricsRegistry(clock=FakeClock())
        timer = StageTimer(registry=registry)
        with timer.stage("solve"):
            pass
        snapshot = registry.snapshot()
        stage_series = [
            entry
            for entry in snapshot["counters"]
            if entry["name"] == "repro_stage_seconds"
        ]
        assert stage_series == [
            {
                "name": "repro_stage_seconds",
                "labels": {"stage": "solve"},
                "value": 1.0,
            }
        ]


def _tiny_config(execution=None):
    return SessionConfig(
        preset="tiny",
        seed=7,
        execution=execution if execution is not None else ExecutionPolicy(),
    )


def _sharded(shards, transport="pipe"):
    return ExecutionPolicy(
        backend="sharded", shards=shards, transport=transport
    )


class TestSessionMetrics:
    def test_enable_metrics_must_precede_backend(self, tiny_world,
                                                 tiny_dataset):
        session = LocalizationSession.for_world(
            tiny_world, _tiny_config()
        )
        session.replay(tiny_dataset)
        with pytest.raises(RuntimeError, match="precede backend"):
            session.enable_metrics()

    def test_inline_engine_exports_gauges(self, tiny_world, tiny_dataset):
        session = LocalizationSession.for_world(
            tiny_world, _tiny_config()
        )
        session.subscribe(lambda event: None)
        registry = session.enable_metrics()
        assert session.metrics is registry
        result = session.replay(tiny_dataset)
        snapshot = registry.snapshot()
        gauges = {
            series_key(g["name"], g["labels"]): g["value"]
            for g in snapshot["gauges"]
        }
        assert gauges["repro_stream_observations"] > 0
        assert gauges["repro_stream_closed_problems"] == len(
            result.solutions
        )
        counters = {
            series_key(c["name"], c["labels"]): c["value"]
            for c in snapshot["counters"]
        }
        # Live event counters (subscriber attached) and solve gauges.
        assert sum(
            value
            for key, value in counters.items()
            if key.startswith("repro_events_total")
        ) > 0
        # Every window close is one solve; verdict snapshots, residual
        # ones included, classify the closure and never touch the memo.
        assert gauges["repro_stream_fallback_solves"] > 0
        assert gauges["repro_solve_problems"] == len(result.solutions)
        assert gauges["repro_solve_unique_cnfs"] > 0
        assert validate_exposition(render_prometheus(snapshot)) == []


class TestDrainsUnchangedByTelemetry:
    """Telemetry on the wire must never change canonical results."""

    @pytest.fixture(scope="class")
    def inline_reference(self, tiny_world, tiny_dataset):
        session = LocalizationSession.for_world(
            tiny_world, _tiny_config()
        )
        return session.replay(tiny_dataset).to_dict()

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_drain_byte_identical_with_metrics(
        self, tiny_world, tiny_dataset, inline_reference, shards, transport
    ):
        session = LocalizationSession.for_world(
            tiny_world, _tiny_config(_sharded(shards, transport))
        )
        session.subscribe(lambda event: None)
        registry = session.enable_metrics()
        result = session.replay(tiny_dataset)
        assert result.to_dict() == inline_reference
        snapshot = registry.snapshot()
        lag = [
            g
            for g in snapshot["gauges"]
            if g["name"] == "repro_shard_ingest_lag_seconds"
        ]
        assert sorted(g["labels"]["shard"] for g in lag) == sorted(
            str(index) for index in range(shards)
        )
        latency = [
            h
            for h in snapshot["histograms"]
            if h["name"] == "repro_verdict_latency_seconds"
        ]
        assert len(latency) == shards
        assert sum(h["count"] for h in latency) > 0
        assert validate_exposition(render_prometheus(snapshot)) == []

    @pytest.mark.parametrize("churn", ["with", "without"])
    def test_small_drain_byte_identical_with_metrics(
        self, small_world, small_dataset, churn
    ):
        def run(execution, metrics):
            session = LocalizationSession.for_world(
                small_world,
                SessionConfig(
                    preset="small", seed=3, churn=churn,
                    execution=execution,
                ),
            )
            session.subscribe(lambda event: None)
            registry = session.enable_metrics() if metrics else None
            return session.replay(small_dataset).to_dict(), registry

        reference, _ = run(ExecutionPolicy(), metrics=False)
        instrumented, registry = run(_sharded(2), metrics=True)
        assert instrumented == reference
        assert registry.snapshot()["histograms"]

    def test_drain_telemetry_without_subscribers(self, tiny_world,
                                                 tiny_dataset):
        """Worker solve stats ride the drain frame even when nobody
        subscribed — sharded ``session.solve_stats`` is no longer None."""
        inline = LocalizationSession.for_world(
            tiny_world, _tiny_config()
        )
        inline.replay(tiny_dataset)
        sharded = LocalizationSession.for_world(
            tiny_world, _tiny_config(_sharded(2))
        )
        registry = sharded.enable_metrics()
        sharded.replay(tiny_dataset)
        merged = sharded.solve_stats
        assert merged is not None
        assert merged.problems == inline.solve_stats.problems
        # Worker registries landed shard-labeled in the parent registry.
        # Chunk-ingest histograms are the robust witness: every shard
        # that owns any pair records them, whatever the placement layout
        # routes where (sat counters only appear on shards whose
        # problems needed the CDCL path).
        snapshot = registry.snapshot()
        worker_series = [
            h
            for h in snapshot["histograms"]
            if h["name"] == "repro_worker_chunk_seconds"
        ]
        assert sorted(
            entry["labels"]["shard"] for entry in worker_series
        ) == ["0", "1"]
