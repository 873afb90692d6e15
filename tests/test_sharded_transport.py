"""The shard transport overhaul: wire protocol, socket shards, recovery.

Three layers under test:

- **wire codec** (`repro.api.wire`) — tuple-encoded observations/events
  and the hello handshake round-trip exactly; version mismatches fail
  loudly;
- **transports** (`repro.api.transport`) — the same frames flow over a
  multiprocessing pipe and over length-prefixed TCP, including the
  external ``repro-runner shard-worker --connect`` path, with
  byte-identical drains at every worker count and chunk boundary;
- **dead-shard recovery** — killing a worker mid-stream respawns it from
  its checkpoint slice plus the parent's replay log, the drain stays
  byte-identical, and subscribers see each verdict event exactly once
  (the shard-local sequence dedup); a shard that keeps dying fails the
  stream once the recovery budget is spent.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.anomaly import Anomaly
from repro.api import (
    AutoscalePolicy,
    ExecutionPolicy,
    LocalizationSession,
    SessionConfig,
)
from repro.api import backends as backends_module
from repro.api import transport as transport_module
from repro.api import wire
from repro.api.backends import (
    BackendContext,
    BackendError,
    ShardedBackend,
)
from repro.api.transport import (
    PipeTransport,
    ShardListener,
    TransportError,
    parse_address,
)
from repro.core.observations import (
    Observation,
    _observation,
    build_observations,
)
from repro.core.pipeline import PipelineConfig
from repro.stream.engine import StreamingLocalizer
from repro.stream.events import VerdictKind, candidates_of


def _policy(shards, **overrides):
    return ExecutionPolicy(backend="sharded", shards=shards, **overrides)


@pytest.fixture(scope="module")
def tiny_observations(tiny_world, tiny_dataset):
    observations, _ = build_observations(tiny_dataset, tiny_world.ip2as)
    return observations


@pytest.fixture(scope="module")
def tiny_batch(tiny_world, tiny_dataset):
    return tiny_world.pipeline().run(tiny_dataset)


def _inline_drain(tiny_world, feed, advance_to=None):
    engine = StreamingLocalizer(
        tiny_world.ip2as, tiny_world.country_by_asn, config=PipelineConfig()
    )
    for observation in feed:
        engine.ingest_observation(observation)
    if advance_to is not None:
        engine.advance(advance_to)
    return engine.drain()


def _sharded_backend(tiny_world, policy, subscribers=()):
    return ShardedBackend(
        BackendContext(
            config=SessionConfig(preset="tiny", seed=7, execution=policy),
            ip2as=tiny_world.ip2as,
            country_by_asn=tiny_world.country_by_asn,
            subscribers=list(subscribers),
        )
    )


class TestWireCodec:
    def test_observation_round_trip(self, tiny_observations):
        records = [
            wire.observation_to_wire(observation)
            for observation in tiny_observations[:50]
        ]
        decoded = list(wire.ObservationDecoder().decode(records))
        assert decoded == tiny_observations[:50]

    def test_event_round_trip(self, tiny_world, tiny_dataset):
        engine = StreamingLocalizer(
            tiny_world.ip2as, tiny_world.country_by_asn
        )
        events = []
        engine.subscribe(events.append)
        for measurement in tiny_dataset[:40]:
            engine.ingest_measurement(measurement)
        engine.drain()
        assert events
        kinds = set()
        for event in events:
            payload = wire.event_to_wire(event)
            assert payload[wire.EVENT_SEQUENCE_INDEX] == event.sequence
            assert wire.event_from_wire(payload) == event
            kinds.add(event.kind)
        assert VerdictKind.WINDOW_CLOSED in kinds

    def test_event_decodes_one_key_and_shares_its_candidates(
        self, tiny_world, tiny_dataset
    ):
        """Format 10: an event tuple carries its key once and no
        candidates; the decoded solution shares the event's key, and the
        candidates are the solution's own set."""
        engine = StreamingLocalizer(
            tiny_world.ip2as, tiny_world.country_by_asn
        )
        events = []
        engine.subscribe(events.append)
        for measurement in tiny_dataset[:40]:
            engine.ingest_measurement(measurement)
        shared = 0
        for event in events:
            payload = wire.event_to_wire(event)
            assert len(payload[6]) == 9   # the solution, without a key
            decoded = wire.event_from_wire(payload)
            assert decoded.solution.key is decoded.key
            if decoded.candidates:
                assert decoded.candidates is candidates_of(decoded.solution)
                shared += 1
        assert shared

    def test_message_frame_round_trip(self, tiny_observations):
        chunk = tuple(
            wire.observation_to_wire(observation)
            for observation in tiny_observations[:10]
        )
        message = ("obs", chunk)
        assert wire.decode(wire.encode(message)) == message

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_codec_leaves_gc_as_found(self, enabled, tiny_observations):
        """encode/decode pause the collector and restore its prior state,
        never turning it on for a caller that had it off — also when
        decoding raises."""
        message = ("result", tuple(tiny_observations[:10]))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert wire.decode(wire.encode(message)) == message
            assert gc.isenabled() is enabled
            with pytest.raises(pickle.UnpicklingError):
                wire.decode(b"garbage")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_empty_path_refused_on_every_construction_path(self):
        class HandBuilt:
            def __reduce__(self):
                return (
                    _observation,
                    ("u", Anomaly.DNS, True, (), 0, 1),
                )

        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(HandBuilt()))
        with pytest.raises(ValueError):
            list(
                wire.ObservationDecoder().decode(
                    [("u", Anomaly.DNS.value, True, (), 0, 1)]
                )
            )

    def test_hello_handshake(self):
        config = SessionConfig(preset="tiny").to_dict()
        frame = wire.hello_frame(3, config, True)
        index, payload, want_events, options = wire.check_hello(frame)
        assert (index, want_events, options) == (3, True, {})
        assert SessionConfig.from_dict(payload) == SessionConfig(
            preset="tiny"
        )
        wire.check_hello_ack(("hello", wire.WIRE_FORMAT))

    def test_hello_options_round_trip(self):
        config = SessionConfig(preset="tiny").to_dict()
        frame = wire.hello_frame(
            0, config, False, {"metrics": True, "ack": True}
        )
        _, _, _, options = wire.check_hello(frame)
        assert options == {"metrics": True, "ack": True}
        # Format-1 shaped hellos (no options element) still parse.
        _, _, _, options = wire.check_hello(
            ("hello", wire.WIRE_FORMAT, 1, config, True)
        )
        assert options == {}

    def test_frame_trace(self):
        assert wire.frame_trace(("obs", ())) is None
        assert wire.frame_trace(("obs", (), (7, 1.5, 900))) == (7, 1.5, 900)

    def test_version_mismatch_rejected(self):
        bad = ("hello", wire.WIRE_FORMAT + 1, 0, {}, False)
        with pytest.raises(wire.WireFormatError):
            wire.check_hello(bad)
        with pytest.raises(wire.WireFormatError):
            wire.check_hello_ack(("hello", wire.WIRE_FORMAT + 1))
        with pytest.raises(wire.WireFormatError):
            wire.check_hello(("obs", ()))
        # A format-7 build's config still carries ``optimized``; its hello
        # and attach frames are refused before that config is built.
        config = {**SessionConfig(preset="tiny").to_dict(), "optimized": True}
        with pytest.raises(
            wire.WireFormatError, match="wire format 7; this build speaks 10"
        ):
            wire.check_hello(("hello", 7, 0, config, False, {}))
        with pytest.raises(
            wire.WireFormatError, match="wire format 7; this daemon speaks 10"
        ):
            wire.check_attach(("attach", 7, "old", config, False, None, {}))
        # A format-8 build sends today's config but reads a drain's
        # ``result`` frame as a whole PipelineResult, and a format-9 build
        # reads its parts as observations and event tuples one element
        # off; both refused all the same.
        config = SessionConfig(preset="tiny").to_dict()
        for old in (8, 9):
            with pytest.raises(
                wire.WireFormatError,
                match=f"wire format {old}; this build speaks 10",
            ):
                wire.check_hello(("hello", old, 0, config, False, {}))
            with pytest.raises(
                wire.WireFormatError,
                match=f"wire format {old}; this daemon speaks 10",
            ):
                wire.check_attach(
                    ("attach", old, "old", config, False, None, {})
                )


class TestServedRecords:
    """Each served record held once; the drain encoded pair by pair
    (format 9) as records, one per observation (format 10)."""

    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_result_round_trips_pair_by_pair(self, preset, request):
        result = request.getfixturevalue(
            "tiny_batch" if preset == "tiny" else "small_result"
        )
        payload = wire.result_to_wire(result)
        head, keys, parts = payload
        assert not head.observations_by_key
        assert len(parts) == len(
            {(key.url, key.anomaly) for key in result.observations_by_key}
        )
        # Each part holds its pair's groups as wire records, and a record
        # sits in every group of its observation, not a copy per group.
        entries = sum(map(len, result.observations_by_key.values()))
        held = {
            id(record): record
            for part in parts
            for group in pickle.loads(part)
            for record in group
        }
        assert all(type(record) is tuple for record in held.values())
        assert len(held) < entries
        decoded = wire.result_from_wire(
            wire.decode(wire.encode(("result", payload)))[1]
        )
        assert decoded.to_dict(include_observations=True) == result.to_dict(
            include_observations=True
        )
        assert list(decoded.observations_by_key) == list(
            result.observations_by_key
        )
        # An observation sits in one group per granularity; after the
        # round trip those groups still hold one object for it.
        by_original = {}
        for key, group in result.observations_by_key.items():
            for original, copy in zip(
                group, decoded.observations_by_key[key]
            ):
                assert by_original.setdefault(id(original), copy) is copy
        assert len(by_original) < entries

    def test_frames_of_one_path_decode_to_one_tuple(self, tiny_observations):
        record = wire.observation_to_wire(tiny_observations[0])
        first, second = (
            wire.decode(wire.encode(("obs", [record])))[1][0]
            for _ in range(2)
        )
        assert first[3] is not second[3] and first[0] is not second[0]
        decoder = wire.ObservationDecoder()
        (a,) = decoder.decode([first])
        (b,) = decoder.decode([second])
        assert a == b == tiny_observations[0]
        assert a.as_path is b.as_path
        assert a.url is b.url

    def test_records_of_one_measurement_share_their_ints(
        self, tiny_observations
    ):
        measurement = tiny_observations[0].measurement_id
        records = [
            wire.observation_to_wire(observation)
            for observation in tiny_observations
            if observation.measurement_id == measurement
        ]
        assert len(records) > 1
        records = wire.decode(wire.encode(("obs", records)))[1]
        assert records[0][4] is not records[1][4]
        observations = list(wire.ObservationDecoder().decode(records))
        assert len({id(o.timestamp) for o in observations}) == 1
        assert len({id(o.measurement_id) for o in observations}) == 1

    def test_worker_engine_decodes_afresh_after_restore(
        self, monkeypatch, tiny_observations
    ):
        """A shard worker's decoder belongs to its current engine: a
        restore builds the engine anew, and the decoder with it."""
        decoders = []

        class Recording(wire.ObservationDecoder):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                decoders.append(self)

        monkeypatch.setattr(wire, "ObservationDecoder", Recording)
        records = [
            wire.observation_to_wire(observation)
            for observation in tiny_observations
        ]
        before, after = records[:40], records[-40:]
        parent_end, worker_end = multiprocessing.Pipe()
        parent = PipeTransport(parent_end)
        worker = threading.Thread(
            target=backends_module.run_shard_worker,
            args=(PipeTransport(worker_end),),
        )
        worker.start()
        try:
            parent.send(
                wire.hello_frame(
                    0, SessionConfig(preset="tiny").to_dict(), False
                )
            )
            assert parent.recv() == ("hello", wire.WIRE_FORMAT)
            parent.send(("obs", before))
            parent.send(("state",))
            kind, state = parent.recv()
            assert kind == "state"
            assert len(decoders) == 1
            assert set(decoders[0].paths) == {r[3] for r in before}
            parent.send(("restore", state))
            assert parent.recv() == ("ok",)
            parent.send(("obs", after))
            parent.send(("state",))
            parent.recv()
        finally:
            parent.send(("stop",))
            worker.join(timeout=30)
            parent.close()
        assert len(decoders) == 2
        assert set(decoders[1].paths) == {r[3] for r in after}


class TestTransportPlumbing:
    def test_parse_address(self):
        assert parse_address("10.0.0.1:7000") == ("10.0.0.1", 7000)
        with pytest.raises(ValueError):
            parse_address("7000")
        with pytest.raises(ValueError):
            parse_address("host:notaport")

    def test_socket_frames_round_trip(self):
        listener = ShardListener("127.0.0.1:0")
        try:
            client = transport_module.connect_worker(
                listener.address, retry_for=5.0
            )
            server = listener.accept(timeout=5.0)
            # Established transports must be fully blocking: a timeout
            # left over from connect()/accept() would turn an idle gap
            # in the frame stream into a spurious EOF.
            assert client._sock.gettimeout() is None
            assert server._sock.gettimeout() is None
            for blob in (b"", b"x", b"y" * 300_000):
                client.send_bytes(blob)
                assert server.recv_bytes() == blob
            server.send(("events", ()))
            assert client.recv() == ("events", ())
            client.close()
            with pytest.raises(EOFError):
                server.recv_bytes()
            server.close()
        finally:
            listener.close()

    def test_accept_timeout(self):
        listener = ShardListener("127.0.0.1:0")
        try:
            with pytest.raises(TransportError):
                listener.accept(timeout=0.05)
        finally:
            listener.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ExecutionPolicy(shard_hosts=("127.0.0.1:1",))  # pipe transport
        with pytest.raises(ValueError):
            ExecutionPolicy(
                transport="socket",
                shards=2,
                shard_hosts=("127.0.0.1:1",),  # one address, two shards
            )
        with pytest.raises(ValueError):
            ExecutionPolicy(connect_timeout=0)

    def test_policy_wire_round_trip(self):
        policy = ExecutionPolicy(
            backend="sharded",
            shards=2,
            transport="socket",
            shard_hosts=("0.0.0.0:7100", "0.0.0.0:7101"),
            chunk_size=64,
            late_policy="error",
            connect_timeout=12.5,
            autoscale=AutoscalePolicy(enabled=False, max_shards=3),
        )
        payload = json.loads(json.dumps(policy.to_dict()))
        assert sorted(payload) == [
            "autoscale",
            "backend",
            "chunk_size",
            "connect_timeout",
            "late_policy",
            "shard_hosts",
            "shards",
            "transport",
        ]
        assert payload["autoscale"] == {"enabled": False, "max_shards": 3}
        assert ExecutionPolicy.from_dict(payload) == policy


class TestChunkBoundaries:
    """Byte-identical drains at every buffer/chunk alignment.

    The feed length is pinned against chunk sizes of exactly the feed
    length, one less (an overflowing final chunk of one), and one more
    (everything rides in the final partial buffer) — at 1, 2, and 4
    workers on both transports.
    """

    @pytest.fixture(scope="class")
    def feed(self, tiny_observations):
        return tiny_observations[:40]

    @pytest.fixture(scope="class")
    def reference(self, tiny_world, feed):
        return _inline_drain(tiny_world, feed)

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_boundary_drains(
        self, tiny_world, feed, reference, transport, shards, offset
    ):
        backend = _sharded_backend(
            tiny_world,
            _policy(
                shards,
                chunk_size=len(feed) + offset,
                transport=transport,
            ),
        )
        for observation in feed:
            backend.ingest_observation(observation)
        assert backend.drain().to_dict(include_observations=True) == (
            reference.to_dict(include_observations=True)
        )

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    def test_partial_buffer_flushes_on_advance(
        self, tiny_world, feed, transport
    ):
        """An advance() between a partial buffer and drain must flush
        the buffer first — watermark motion may close windows, and the
        buffered observations belong before the close."""
        advance_to = max(o.timestamp for o in feed) + 86_400 * 40
        reference = _inline_drain(tiny_world, feed, advance_to=advance_to)
        backend = _sharded_backend(
            tiny_world,
            _policy(2, chunk_size=len(feed) + 7, transport=transport),
        )
        for observation in feed:
            backend.ingest_observation(observation)
        backend.advance(advance_to)
        assert backend.drain().to_dict(include_observations=True) == (
            reference.to_dict(include_observations=True)
        )

    def test_exact_chunk_multiple_stream(self, tiny_world, tiny_observations,
                                         tiny_batch, tiny_dataset):
        """A whole campaign at a chunk size dividing the stream exactly
        (no trailing partial buffer at drain)."""
        feed = tiny_observations
        size = len(feed) // 4
        backend = _sharded_backend(tiny_world, _policy(4, chunk_size=size))
        for observation in feed[: size * 4]:
            backend.ingest_observation(observation)
        for observation in feed[size * 4:]:
            backend.ingest_observation(observation)
        reference = _inline_drain(tiny_world, feed)
        assert backend.drain().to_dict() == reference.to_dict()


def _event_history(events):
    """Per-problem (kind, status) history — CENSOR_IDENTIFIED excluded,
    as its anchor window depends on cross-shard close order."""
    history = {}
    for event in events:
        if event.kind is VerdictKind.CENSOR_IDENTIFIED:
            continue
        history.setdefault(event.key, []).append(
            (
                event.kind,
                event.solution.status.value
                if event.solution is not None
                else None,
            )
        )
    return history


class TestDeadShardRecovery:
    @pytest.fixture(scope="class")
    def inline_events(self, tiny_world, tiny_dataset):
        session = LocalizationSession.for_world(
            tiny_world, SessionConfig(preset="tiny", seed=7)
        )
        events = []
        session.subscribe(events.append)
        session.replay(tiny_dataset)
        return events

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chunk_size": 32},
            {"chunk_size": 32, "transport": "socket"},
        ],
        ids=["pipe-genesis", "socket"],
    )
    def test_kill_mid_stream_recovers(
        self, tiny_world, tiny_dataset, tiny_batch, inline_events, overrides
    ):
        """SIGKILL one worker halfway: the stream must finish, drain
        byte-identical to the batch pipeline, and deliver every verdict
        event exactly once (histories equal to the inline engine's, with
        strictly increasing merged sequences)."""
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(
                preset="tiny", seed=7, execution=_policy(2, **overrides)
            ),
        )
        events = []
        session.subscribe(events.append)
        half = len(tiny_dataset) // 2
        for index, measurement in enumerate(tiny_dataset):
            session.ingest_measurement(measurement)
            if index == half:
                worker = session.backend._ensure_workers()[0]
                worker.process.kill()
                time.sleep(0.05)
        result = session.drain()
        assert session.backend.recoveries >= 1
        assert result.to_dict() == tiny_batch.to_dict()
        sequences = [event.sequence for event in events]
        assert all(a < b for a, b in zip(sequences, sequences[1:]))
        assert _event_history(events) == _event_history(inline_events)

    def test_kill_during_drain_recovers(
        self, tiny_world, tiny_observations, tiny_batch
    ):
        """A worker dying between the last chunk and the drain request
        is rebuilt and re-drained."""
        feed = tiny_observations
        backend = _sharded_backend(tiny_world, _policy(2, chunk_size=64))
        for observation in feed:
            backend.ingest_observation(observation)
        backend._ensure_workers()[1].process.kill()
        time.sleep(0.05)
        reference = _inline_drain(tiny_world, feed)
        assert backend.drain().to_dict() == reference.to_dict()
        assert backend.recoveries >= 1

    def test_exhausted_recovery_budget_raises(
        self, tiny_world, tiny_observations, monkeypatch
    ):
        """With no rebuild attempts left, a dead shard fails the stream
        instead of respawning."""
        monkeypatch.setattr(backends_module, "RECOVERY_ATTEMPTS", 0)
        backend = _sharded_backend(tiny_world, _policy(2, chunk_size=16))
        for observation in tiny_observations[:64]:
            backend.ingest_observation(observation)
        backend._ensure_workers()[0].process.kill()
        with pytest.raises(BackendError, match="kept failing"):
            for observation in tiny_observations[64:]:
                backend.ingest_observation(observation)
            backend.drain()
        backend.close()

    def test_recovery_after_session_restore(
        self, tiny_world, tiny_dataset, tiny_batch, tmp_path
    ):
        """A worker killed *after* a checkpoint restore recovers from
        its restore slice (the baseline) plus the replay log."""
        config = SessionConfig(
            preset="tiny", seed=7, execution=_policy(2, chunk_size=32)
        )
        session = LocalizationSession.for_world(tiny_world, config)
        third = len(tiny_dataset) // 3
        for measurement in tiny_dataset[:third]:
            session.ingest_measurement(measurement)
        path = tmp_path / "mid.ckpt"
        session.checkpoint(path)
        session.close()
        restored = LocalizationSession.restore(path, world=tiny_world)
        for index, measurement in enumerate(tiny_dataset[third:]):
            restored.ingest_measurement(measurement)
            if index == third:
                worker = restored.backend._ensure_workers()[0]
                assert worker.baseline is not None
                worker.process.kill()
                time.sleep(0.05)
        assert restored.drain().to_dict() == tiny_batch.to_dict()
        assert restored.backend.recoveries >= 1


class TestWorkerErrorReporting:
    def test_traceback_and_buffered_events_survive(self, tiny_world,
                                                   tiny_observations):
        """An engine exception mid-chunk ships the events buffered before
        the failure, then the full formatted traceback — not a one-line
        summary."""
        received = []
        backend = _sharded_backend(
            tiny_world, _policy(1), subscribers=[received.append]
        )
        worker = backend._ensure_workers()[0]
        good = wire.observation_to_wire(tiny_observations[0])
        poison = ("http://x/", "no-such-anomaly", False, (1, 2), 100, 9)
        backend._post_frame(worker, wire.encode(("obs", (good, poison))))
        with pytest.raises(BackendError) as excinfo:
            while True:
                backend._handle_reply(worker, backend._next_reply(worker))
        message = str(excinfo.value)
        assert "Traceback (most recent call last)" in message
        assert "no-such-anomaly" in message
        # The good observation's verdict events arrived before the error.
        assert received
        assert all(
            event.key.url == tiny_observations[0].url for event in received
        )
        backend.close()

    def test_engine_errors_are_not_retried(self, tiny_world):
        """Recovery is for dead processes; a deterministic engine error
        must surface, not respawn-loop."""
        backend = _sharded_backend(
            tiny_world, _policy(1, late_policy="error", chunk_size=1)
        )
        def observation(timestamp, url):
            return Observation(
                url=url, anomaly=Anomaly.DNS, detected=False,
                as_path=(1, 2), timestamp=timestamp, measurement_id=1,
            )
        backend.ingest_observation(observation(40 * 86_400, "http://a/"))
        with pytest.raises(Exception):
            backend.ingest_observation(observation(0, "http://b/"))
            backend.drain()
        assert backend.recoveries == 0
        backend.close()


class TestSocketShardHosts:
    def test_external_cli_workers(self, tiny_world, tiny_observations):
        """The operator deployment shape: `repro-runner shard-worker
        --connect` processes dial the parent's per-shard listen
        addresses; the drain is byte-identical."""
        import socket as socket_lib

        reserved = []
        hosts = []
        for _ in range(2):
            probe = socket_lib.socket()
            probe.bind(("127.0.0.1", 0))
            reserved.append(probe)
            hosts.append("127.0.0.1:%d" % probe.getsockname()[1])
        for probe in reserved:
            probe.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.runner", "shard-worker",
                    "--connect", host, "--retry-for", "30",
                ],
                env=env,
                cwd=os.path.dirname(os.path.dirname(__file__)),
                stdout=subprocess.DEVNULL,
            )
            for host in hosts
        ]
        try:
            feed = tiny_observations[:120]
            backend = _sharded_backend(
                tiny_world,
                _policy(
                    2,
                    chunk_size=32,
                    transport="socket",
                    shard_hosts=tuple(hosts),
                ),
            )
            for observation in feed:
                backend.ingest_observation(observation)
            reference = _inline_drain(tiny_world, feed)
            assert backend.drain().to_dict() == reference.to_dict()
            for proc in procs:
                assert proc.wait(timeout=20) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()

    def test_self_hosted_socket_uses_ephemeral_ports(
        self, tiny_world, tiny_observations
    ):
        backend = _sharded_backend(
            tiny_world, _policy(2, transport="socket", chunk_size=16)
        )
        for observation in tiny_observations[:40]:
            backend.ingest_observation(observation)
        addresses = [listener.address for listener in backend._listeners]
        assert len(addresses) == 2
        assert all(
            int(address.rsplit(":", 1)[1]) > 0 for address in addresses
        )
        backend.drain()
