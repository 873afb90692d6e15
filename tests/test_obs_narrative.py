"""The observability narrative plane: logs, spans, flight recorder,
health endpoints — and the contract that none of it changes results.

Pins:
- structured JSON log lines carry bound context, extras, and the active
  trace id; configure() is idempotent;
- span recording is deterministic under an injected clock (the Chrome
  trace export is a pure function of the recorded spans, pinned exactly);
- the flight recorder's ring bounds, metric deltas, dump format, and
  never-raises dump contract;
- Prometheus exposition edge cases: escaped label values, empty
  registries, zero-observation histograms, mangled payloads;
- /healthz flips unhealthy (HTTP 503) when a shard stops acking, the
  404 body lists every endpoint;
- sharded drains stay byte-identical to inline with logging, spans, and
  the flight recorder ALL enabled, at 1/2/4 shards on both transports;
- a killed worker leaves a parent-side flight dump whose frame tail
  matches the replay log recovery used to rebuild the shard.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import urllib.error
import urllib.request

import pytest

from repro.api.backends import BackendContext, ShardedBackend
from repro.api.config import ExecutionPolicy, SessionConfig
from repro.core.observations import build_observations
from repro.core.pipeline import PipelineConfig
from repro.obs import log as obslog
from repro.obs import recorder as obsrecorder
from repro.obs.export import (
    ENDPOINTS,
    MetricsServer,
    escape_label_value,
    health_document,
    health_problems,
    parse_prometheus,
    render_prometheus,
    shard_status,
    status_document,
    unescape_label_value,
    validate_exposition,
)
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import (
    SpanRecorder,
    TRACK_ENGINE,
    shard_track,
)
from repro.stream.engine import StreamingLocalizer


class FakeClock:
    """Deterministic clock: every reading advances by ``step``."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        reading = self.now
        self.now += self.step
        return reading


@pytest.fixture(scope="module")
def tiny_observations(tiny_world, tiny_dataset):
    observations, _ = build_observations(tiny_dataset, tiny_world.ip2as)
    return observations


def _inline_drain(tiny_world, feed):
    engine = StreamingLocalizer(
        tiny_world.ip2as, tiny_world.country_by_asn, config=PipelineConfig()
    )
    for observation in feed:
        engine.ingest_observation(observation)
    return engine.drain()


def _sharded_backend(tiny_world, policy, **context_extras):
    return ShardedBackend(
        BackendContext(
            config=SessionConfig(preset="tiny", seed=7, execution=policy),
            ip2as=tiny_world.ip2as,
            country_by_asn=tiny_world.country_by_asn,
            **context_extras,
        )
    )


# -- structured logging ------------------------------------------------------


class TestStructuredLogging:
    def _capture(self):
        """A fresh handler capturing formatted JSON lines."""
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(json.loads(obslog.JsonFormatter().format(record)))

        handler = _Capture(level=logging.DEBUG)
        root = obslog.get_logger()
        root.addHandler(handler)
        previous = root.level
        root.setLevel(logging.DEBUG)
        return records, handler, previous

    def _release(self, handler, previous):
        root = obslog.get_logger()
        root.removeHandler(handler)
        root.setLevel(previous)

    def test_json_lines_carry_extras_and_bound_context(self):
        records, handler, previous = self._capture()
        try:
            log = obslog.get_logger("test.narrative")
            with obslog.bound(campaign="c1", shard=3):
                log.info("thing.happened", extra=obslog.fields(count=7))
            log.info("after.block")
        finally:
            self._release(handler, previous)
        first, second = records
        assert first["event"] == "thing.happened"
        assert first["logger"] == "repro.test.narrative"
        assert first["level"] == "info"
        assert first["campaign"] == "c1"
        assert first["shard"] == 3
        assert first["count"] == 7
        # bound() context must not leak past the block
        assert "campaign" not in second

    def test_active_trace_id_rides_records(self):
        records, handler, previous = self._capture()
        try:
            obslog.set_active_trace(41)
            obslog.get_logger("test.trace").info("traced")
        finally:
            obslog.set_active_trace(None)
            self._release(handler, previous)
        assert records[0]["trace_id"] == 41

    def test_configure_is_idempotent(self):
        root = obslog.configure(level="warning")
        obslog.configure(level="warning")
        configured = [
            handler
            for handler in root.handlers
            if getattr(handler, "_repro_configured", False)
        ]
        assert len(configured) == 1
        for handler in configured:
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_configure_rejects_bad_level(self):
        with pytest.raises(ValueError):
            obslog.configure(level="chatty")

    def test_configure_from_args_noop_without_flags(self):
        class Args:
            log_level = None
            log_json = False

        root = obslog.get_logger()
        before = list(root.handlers)
        obslog.configure_from_args(Args())
        assert root.handlers == before

    def test_text_formatter_includes_fields(self):
        record = logging.LogRecord(
            "repro.x", logging.INFO, "f.py", 1, "evt", (), None
        )
        record.shard = 2
        line = obslog.TextFormatter().format(record)
        assert "evt" in line and "shard=2" in line


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_span_contextmanager_uses_injected_clock(self):
        recorder = SpanRecorder(clock=FakeClock(start=10.0, step=2.0))
        with recorder.span("work", category="test", answer=1) as args:
            args["late"] = True
        (span,) = recorder.snapshot()
        assert span == {
            "name": "work",
            "cat": "test",
            "start": 10.0,
            "duration": 2.0,
            "track": "parent",
            "args": {"answer": 1, "late": True},
        }

    def test_span_recorded_when_block_raises(self):
        recorder = SpanRecorder(clock=FakeClock(start=0.0, step=1.0))
        with pytest.raises(ValueError):
            with recorder.span("work", n=2):
                raise ValueError("boom")
        (span,) = recorder.snapshot()
        assert (span["name"], span["duration"], span["args"]) == (
            "work", 1.0, {"n": 2}
        )

    def test_span_is_slotted(self):
        recorder = SpanRecorder(clock=FakeClock())
        span = recorder.record("a", start=0.0, duration=1.0)
        assert not hasattr(span, "__dict__")

    def test_chrome_trace_pinned_under_fake_clock(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.record("a", start=0.0, duration=1.0, track="parent")
        recorder.record(
            "b", start=0.5, duration=0.25, track=shard_track(0), n=3
        )
        document = recorder.to_chrome_trace()
        assert document == {
            "traceEvents": [
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                 "args": {"name": "parent"}},
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
                 "args": {"name": "shard 0"}},
                {"name": "a", "cat": "fabric", "ph": "X", "pid": 1,
                 "tid": 1, "ts": 0.0, "dur": 1000000.0},
                {"name": "b", "cat": "fabric", "ph": "X", "pid": 1,
                 "tid": 2, "ts": 500000.0, "dur": 250000.0,
                 "args": {"n": 3}},
            ],
            "displayTimeUnit": "ms",
            "otherData": {
                "format": 1,
                "spans": 2,
                "dropped": 0,
                "note": (
                    "timestamps are per-process clock offsets; "
                    "cross-process tracks share a zero, not a wall clock"
                ),
            },
        }

    def test_merge_relabels_track(self):
        worker = SpanRecorder(clock=FakeClock())
        worker.record("chunk.ingest", start=1.0, duration=0.5,
                      track="worker")
        parent = SpanRecorder(clock=FakeClock())
        parent.merge(worker.snapshot(), track=shard_track(2))
        (span,) = parent.snapshot()
        assert span["track"] == "shard 2"
        assert span["name"] == "chunk.ingest"

    def test_ring_bound_counts_drops(self):
        recorder = SpanRecorder(clock=FakeClock(), capacity=2)
        for index in range(5):
            recorder.record(f"s{index}", start=float(index), duration=1.0)
        assert len(recorder) == 2
        assert recorder.dropped == 3
        assert [span["name"] for span in recorder.snapshot()] == ["s3", "s4"]

    def test_engine_spans_deterministic_run_to_run(
        self, tiny_world, tiny_observations
    ):
        """Two identical inline runs under FakeClocks record identical
        span trees — what makes exported traces pinnable."""

        def run():
            recorder = SpanRecorder(clock=FakeClock())
            engine = StreamingLocalizer(
                tiny_world.ip2as,
                tiny_world.country_by_asn,
                config=PipelineConfig(),
            )
            engine.attach_spans(recorder, track=TRACK_ENGINE)
            for observation in tiny_observations[:60]:
                engine.ingest_observation(observation)
            engine.drain()
            return recorder.snapshot()

        first, second = run(), run()
        assert first == second
        assert any(span["name"] == "engine.drain" for span in first)
        assert any(span["name"] == "window.close" for span in first)


# -- flight recorder ---------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_tail_filter(self):
        recorder = FlightRecorder(capacity=3, clock=FakeClock())
        for index in range(5):
            recorder.note_frame("send", 100 + index, shard=index % 2)
        assert len(recorder) == 3
        sizes = [entry["size"] for entry in recorder.tail(kind="frame")]
        assert sizes == [102, 103, 104]
        assert [
            entry["size"] for entry in recorder.tail(shard=0)
        ] == [102, 104]

    def test_dump_writes_document_and_never_raises(self, tmp_path):
        recorder = FlightRecorder(capacity=4, clock=FakeClock())
        recorder.note_frame("send", 42, shard=1)
        path = recorder.dump(
            str(tmp_path / "flight"), reason="unit/test!", extra={"k": 1}
        )
        assert path
        with open(path) as handle:
            document = json.load(handle)
        assert document["reason"] == "unit/test!"
        assert document["capacity"] == 4
        assert document["extra"] == {"k": 1}
        assert document["entries"][0]["size"] == 42
        assert "unit-test-" in path  # unsafe chars sanitized
        # unwritable target: returns "" instead of raising
        assert recorder.dump("/proc/definitely/not/writable", "x") == ""

    def test_install_captures_repro_logs(self):
        recorder = FlightRecorder(clock=FakeClock())
        obsrecorder.install(recorder)
        try:
            obslog.get_logger("test.flight").warning(
                "spooky", extra=obslog.fields(detail="d")
            )
            (entry,) = recorder.tail(kind="log")
            assert entry["event"] == "spooky"
            assert entry["fields"]["detail"] == "d"
        finally:
            obsrecorder.install(None)
        assert obsrecorder.get() is None

    @pytest.mark.skipif(
        not hasattr(signal, "SIGUSR1"), reason="no SIGUSR1 here"
    )
    def test_sigusr1_dumps(self, tmp_path):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.note_frame("recv", 7)
        obsrecorder.install(recorder, capture_logs=False)
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            assert obsrecorder.install_signal_handler(str(tmp_path))
            os.kill(os.getpid(), signal.SIGUSR1)
            dumps = list(tmp_path.glob("*/flight.json"))
            assert len(dumps) == 1
            assert "sigusr1" in dumps[0].parent.name
        finally:
            signal.signal(signal.SIGUSR1, previous)
            obsrecorder.install(None)


# -- exposition edge cases ---------------------------------------------------


class TestExpositionEdgeCases:
    def test_escape_round_trip(self):
        for value in ('we"ird', "back\\slash", "new\nline", 'all\\"\n'):
            assert unescape_label_value(escape_label_value(value)) == value

    def test_render_parse_escaped_labels(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter(
            "repro_events_total", {"event_kind": 'we"ird\\\n}x'}
        ).inc(2)
        text = render_prometheus(registry.snapshot())
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        series = parse_prometheus(text)
        (key,) = [k for k in series if k.startswith("repro_events_total")]
        assert 'we\\"ird' in key
        assert series[key] == 2.0
        assert validate_exposition(text) == []

    def test_empty_registry_renders_and_is_flagged_empty(self):
        text = render_prometheus(MetricsRegistry(clock=FakeClock()).snapshot())
        assert parse_prometheus(text) == {}
        # a scrape with no samples is itself a finding, not a pass
        assert validate_exposition(text) == ["exposition contains no samples"]

    def test_zero_observation_histogram(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.histogram(
            "repro_verdict_latency_seconds", buckets=DEFAULT_BUCKETS
        )
        text = render_prometheus(registry.snapshot())
        series = parse_prometheus(text)
        assert series["repro_verdict_latency_seconds_count"] == 0.0
        assert series["repro_verdict_latency_seconds_sum"] == 0.0
        assert validate_exposition(text) == []

    def test_mangled_payload_is_flagged(self):
        # an unparsable line (unclosed label block) fails the whole scrape
        unparsable = (
            "# TYPE repro_events_total counter\n"
            'repro_events_total{event_kind="x" 3\n'
        )
        (problem,) = validate_exposition(unparsable)
        assert "unparsable" in problem
        # a parseable scrape with a name outside the catalog is flagged
        unknown = "repro_made_up_total 1\n"
        problems = validate_exposition(unknown)
        assert any("repro_made_up_total" in p for p in problems)


# -- health + endpoints ------------------------------------------------------


def _shardful_registry(
    up=1.0, silence=0.0, queue_depth=0.0
) -> MetricsRegistry:
    registry = MetricsRegistry(clock=FakeClock())
    labels = {"shard": "0"}
    registry.gauge("repro_shard_up", labels).set(up)
    registry.gauge("repro_shard_seconds_since_ack", labels).set(silence)
    registry.gauge("repro_shard_queue_depth", labels).set(queue_depth)
    return registry


class TestHealth:
    def test_healthy_by_default(self):
        snapshot = _shardful_registry().snapshot()
        assert health_problems(snapshot) == []
        assert health_document(snapshot, uptime=2.0) == {
            "status": "ok",
            "problems": [],
            "shards": 1,
            "uptime_seconds": 2.0,
        }

    def test_down_shard_is_unhealthy(self):
        snapshot = _shardful_registry(up=0.0).snapshot()
        assert health_problems(snapshot) == ["shard 0: worker down"]

    def test_silent_shard_with_outstanding_frames_is_unhealthy(self):
        snapshot = _shardful_registry(
            silence=120.0, queue_depth=3.0
        ).snapshot()
        (problem,) = health_problems(snapshot, max_silence=60.0)
        assert "no ack for 120s" in problem and "3 frames" in problem
        # silence alone (no outstanding frames) is idle, not unhealthy
        idle = _shardful_registry(silence=120.0).snapshot()
        assert health_problems(idle, max_silence=60.0) == []

    def test_status_document_rolls_up_shards_and_events(self):
        registry = _shardful_registry(queue_depth=2.0)
        registry.counter(
            "repro_events_total", {"event_kind": "window_closed"}
        ).inc(5)
        document = status_document(
            registry.snapshot(), uptime=1.0, snapshot_age=0.5
        )
        assert document["status"] == "ok"
        assert document["events"] == {"window_closed": 5.0}
        assert document["shards"]["0"]["queue_depth"] == 2.0
        assert document["uptime_seconds"] == 1.0
        assert document["snapshot_age_seconds"] == 0.5

    def test_healthz_flips_unhealthy_when_shard_stops_acking(self):
        registry = _shardful_registry()
        silence = registry.gauge(
            "repro_shard_seconds_since_ack", {"shard": "0"}
        )
        queue_depth = registry.gauge(
            "repro_shard_queue_depth", {"shard": "0"}
        )
        server = MetricsServer(registry, port=0, max_silence=60.0)
        try:
            with urllib.request.urlopen(
                f"http://{server.address}/healthz", timeout=5.0
            ) as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            # the shard goes silent with frames outstanding
            silence.set(90.0)
            queue_depth.set(2.0)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{server.address}/healthz", timeout=5.0
                )
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["status"] == "unhealthy"
            assert body["problems"]
            # /statusz stays 200 either way (it is the detail view)
            with urllib.request.urlopen(
                f"http://{server.address}/statusz", timeout=5.0
            ) as response:
                document = json.loads(response.read())
            assert document["status"] == "unhealthy"
            assert document["shards"]["0"]["seconds_since_ack"] == 90.0
        finally:
            server.close()

    def test_404_body_lists_every_endpoint(self):
        server = MetricsServer(MetricsRegistry(clock=FakeClock()), port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{server.address}/nope", timeout=5.0
                )
            assert excinfo.value.code == 404
            body = excinfo.value.read().decode()
            for endpoint in ENDPOINTS:
                assert endpoint in body
        finally:
            server.close()


# -- results are invariant under full observability --------------------------


class TestDrainsUnchangedByObservability:
    @pytest.fixture(scope="class")
    def feed(self, tiny_observations):
        return tiny_observations[:48]

    @pytest.fixture(scope="class")
    def reference(self, tiny_world, feed):
        return _inline_drain(tiny_world, feed)

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_byte_identical_with_everything_on(
        self, tiny_world, feed, reference, transport, shards, tmp_path
    ):
        root = obslog.configure(level="debug")
        flight = FlightRecorder(capacity=128)
        obsrecorder.install(flight)
        try:
            backend = _sharded_backend(
                tiny_world,
                ExecutionPolicy(
                    backend="sharded", shards=shards, transport=transport
                ),
                metrics=MetricsRegistry(),
                spans=SpanRecorder(),
                flight=flight,
                flight_dir=str(tmp_path),
            )
            for observation in feed:
                backend.ingest_observation(observation)
            result = backend.drain()
        finally:
            obsrecorder.install(None)
            for handler in list(root.handlers):
                if getattr(handler, "_repro_configured", False):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
        assert result.to_dict(include_observations=True) == (
            reference.to_dict(include_observations=True)
        )

    def test_worker_spans_come_home_on_shard_tracks(
        self, tiny_world, feed
    ):
        spans = SpanRecorder()
        backend = _sharded_backend(
            tiny_world,
            ExecutionPolicy(backend="sharded", shards=2),
            metrics=MetricsRegistry(),
            spans=spans,
        )
        for observation in feed:
            backend.ingest_observation(observation)
        backend.drain()
        tracks = {span["track"] for span in spans.snapshot()}
        assert shard_track(0) in tracks and shard_track(1) in tracks
        names = {span["name"] for span in spans.snapshot()}
        assert {"chunk.ingest", "engine.drain", "drain.collect",
                "drain.merge"} <= names


# -- runner CLI: status / top / trace / metrics errors -----------------------


class TestRunnerObsCli:
    def test_endpoint_url_normalization(self):
        from repro.runner.cli import _endpoint_url

        assert _endpoint_url("127.0.0.1:9464", "/statusz") == (
            "http://127.0.0.1:9464/statusz"
        )
        assert _endpoint_url("http://h:1/metrics", "/healthz") == (
            "http://h:1/healthz"
        )

    def test_status_and_top_against_live_server(self, capsys):
        from repro.runner.cli import main

        registry = _shardful_registry(queue_depth=1.0)
        registry.counter(
            "repro_events_total", {"event_kind": "window_closed"}
        ).inc(4)
        server = MetricsServer(registry, port=0)
        try:
            assert main(["status", server.address]) == 0
            out = capsys.readouterr().out
            assert "status: ok" in out
            assert "window_closed=4" in out
            assert "shard" in out     # the per-shard table rendered
            assert main(["top", server.address, "--once"]) == 0
            out = capsys.readouterr().out
            assert "ev/s" in out
            # flip a shard down: status exits 1 and names the problem
            registry.gauge("repro_shard_up", {"shard": "0"}).set(0)
            assert main(["status", server.address]) == 1
            out = capsys.readouterr().out
            assert "worker down" in out
        finally:
            server.close()

    def test_scrape_errors_are_one_friendly_line(self, capsys):
        from repro.runner.cli import main

        assert main(["metrics", "http://127.0.0.1:1/metrics"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read" in err
        assert main(["status", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot scrape" in err

    def test_trace_subcommand_writes_chrome_trace(self, tmp_path, capsys):
        from repro.runner.cli import main

        out = str(tmp_path / "trace.json")
        assert main(
            ["trace", out, "--preset", "tiny", "--backend", "inline"]
        ) == 0
        with open(out) as handle:
            document = json.load(handle)
        names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M"
        }
        assert TRACK_ENGINE in names
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "session.drain" for e in spans)
        assert any(e["name"] == "window.close" for e in spans)


# -- flight dump on worker death ---------------------------------------------


class TestFlightDumpOnDeath:
    def test_killed_worker_dump_tail_matches_replay_log(
        self, tiny_world, tiny_observations, tmp_path
    ):
        flight = FlightRecorder(capacity=256)
        obsrecorder.install(flight)
        try:
            backend = _sharded_backend(
                tiny_world,
                ExecutionPolicy(backend="sharded", shards=1, chunk_size=8),
                metrics=MetricsRegistry(),
                flight=flight,
                flight_dir=str(tmp_path),
            )
            # 24 observations at chunk_size 8: three full chunks, an
            # empty buffer — so the replay log is stable at kill time.
            feed = tiny_observations[:24]
            for observation in feed:
                backend.ingest_observation(observation)
            worker = backend._ensure_workers()[0]
            replay_sizes = [len(frame) for frame, _ in worker.log]
            assert replay_sizes
            worker.process.kill()
            worker.process.join()
            result = backend.drain()       # hits the corpse, recovers
            assert backend.recoveries == 1
        finally:
            obsrecorder.install(None)
        # exactly one dump, written by the parent at death time
        (dump_path,) = list(tmp_path.glob("*/flight.json"))
        assert "shard-0-death" in dump_path.parent.name
        document = json.loads(dump_path.read_text())
        assert document["reason"] == "shard-0-death"
        # its replay-log summary is the exact log recovery replayed
        assert [
            entry["size"] for entry in document["extra"]["replay_log"]
        ] == replay_sizes
        # and the ring's sent frames for the shard are hello + exactly
        # those logged frames (+ the drain request that found the
        # corpse) — the dump's tail matches the parent's replay log
        sent = [
            entry["size"]
            for entry in document["entries"]
            if entry["kind"] == "frame"
            and entry["direction"] == "send"
            and entry.get("shard") == 0
        ]
        assert sent[1:1 + len(replay_sizes)] == replay_sizes
        # death + recovery narration reached the recorder's log feed
        events = [
            entry["event"] for entry in flight.tail(kind="log")
        ]
        assert "shard.death" in events and "shard.recovery" in events
        # the drain is still correct after all of it
        reference = _inline_drain(tiny_world, feed)
        assert result.to_dict() == reference.to_dict()
