"""The serve daemon: multi-tenant ingest, reconnects, durable resume.

What this module pins:

- **byte-identity** — a campaign streamed through the daemon drains to
  the same ``PipelineResult.to_dict()`` as the batch pipeline, for a
  lone tenant, for concurrent tenants, across a mid-stream TCP drop
  (client reconnects and resends only the unacknowledged suffix), and
  across a full daemon stop/start (tenants checkpoint to the state dir
  and resume);
- **isolation** — concurrent campaigns on one daemon never bleed into
  each other's verdicts;
- **the event plane** — subscribers replay buffered verdict events from
  any cursor and never see a duplicate, even across their own
  reconnects;
- **admission + health** — malformed campaign ids, token mismatches,
  config-less attaches, a full daemon and an old-format state file are
  refused; a tenant whose shard fleet dies past its recovery budget flips
  ``/healthz`` to 503 with tenant-labelled reasons while other tenants
  stay usable; ``/statusz`` carries the per-tenant watermark rollup.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.api import ExecutionPolicy, LocalizationSession, SessionConfig
from repro.api import backends as backends_module
from repro.api import wire
from repro.api.transport import TransportError
from repro.api.transport import FRAME_LENGTH
from repro.core import observations as observations_module
from repro.core.observations import DiscardStats, observations_of
from repro.serve import (
    AdmissionPolicy,
    ServeClient,
    ServeSubscriber,
    ServeError,
    dial_daemon,
    start_in_thread,
    stream_campaign,
)
from repro.serve.server import JOIN_BELOW, healthz_snapshot, write_frame
from repro.stream.checkpoint import discard_to_dict
from repro.serve.tenants import (
    SERVE_STATE_FORMAT,
    Tenant,
    TenantRegistry,
    state_path,
)


def _config(seed=7, **overrides):
    return SessionConfig(
        preset="tiny", seed=seed, execution=ExecutionPolicy(**overrides)
    )


@pytest.fixture(scope="module")
def tiny_batch(tiny_world, tiny_dataset):
    return tiny_world.pipeline().run(tiny_dataset)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    handle = start_in_thread(
        state_dir=tmp_path_factory.mktemp("serve-state"), metrics_port=0
    )
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def solo_outcome(daemon, tiny_world, tiny_dataset):
    """One full campaign through the module daemon, events collected."""
    events = []
    client = ServeClient(
        daemon.address,
        "solo",
        config=_config(),
        ip2as=tiny_world.ip2as,
        want_events=True,
        on_event=events.append,
    )
    client.attach()
    for measurement in tiny_dataset:
        client.ingest_measurement(measurement)
    result = client.drain()
    client.close()
    return result, events, client


class TestByteIdentity:
    def test_single_campaign_matches_inline(self, solo_outcome, tiny_batch):
        result, events, client = solo_outcome
        assert client.reconnects == 0
        assert result.to_dict() == tiny_batch.to_dict()
        assert events
        sequences = [event.sequence for event in events]
        assert sequences == sorted(set(sequences))

    def test_served_drain_carries_observation_groups(
        self, solo_outcome, tiny_batch
    ):
        """The drained result crosses the wire with every observation
        group that forced its verdicts, not only the verdicts."""
        result, _, _ = solo_outcome
        assert result.observations_by_key
        assert result.to_dict(
            include_observations=True
        ) == tiny_batch.to_dict(include_observations=True)

    def test_ingest_frames_carry_exactly_chunk_size(
        self, daemon, tiny_world, tiny_dataset, tiny_batch
    ):
        """A measurement converts straight to its five wire tuples, yet
        every ingest frame but the last carries exactly ``chunk_size``
        of them (7 here, so frames fill mid-measurement)."""
        client = ServeClient(
            daemon.address,
            "frames",
            config=_config(chunk_size=7),
            ip2as=tiny_world.ip2as,
        )
        sizes = []
        post = client._post

        def recording_post(frame):
            if frame[0] == "ingest":
                sizes.append(len(frame[2]))
            post(frame)

        client._post = recording_post
        client.attach()
        for measurement in tiny_dataset:
            client.ingest_measurement(measurement)
        result = client.drain()
        client.close()
        assert sum(sizes) == 5 * client.discard.converted
        assert sizes[:-1] == [7] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= 7
        assert result.to_dict(
            include_observations=True
        ) == tiny_batch.to_dict(include_observations=True)

    def test_concurrent_tenants_isolated(
        self, daemon, tiny_world, tiny_dataset, tiny_batch
    ):
        """Two campaigns with different seeds, interleaved live on one
        daemon, each drain byte-identical to its own inline run."""
        other_config = _config(seed=11)
        inline_other = (
            LocalizationSession(other_config).run().result.to_dict()
        )
        results, failures = {}, []

        def drive_manual():
            try:
                client = ServeClient(
                    daemon.address,
                    "iso-a",
                    config=_config(),
                    ip2as=tiny_world.ip2as,
                )
                client.attach()
                for measurement in tiny_dataset:
                    client.ingest_measurement(measurement)
                results["iso-a"] = client.drain().to_dict()
                client.close()
            except Exception as exc:   # surfaces in the main thread
                failures.append(exc)

        def drive_streamed():
            try:
                result, _client = stream_campaign(
                    daemon.address, "iso-b", other_config
                )
                results["iso-b"] = result.to_dict()
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=drive_manual),
            threading.Thread(target=drive_streamed),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not failures, failures
        assert results["iso-a"] == tiny_batch.to_dict()
        assert results["iso-b"] == inline_other
        assert results["iso-a"] != results["iso-b"]

    def test_configless_client_joins_and_drains(
        self, daemon, tiny_world, tiny_dataset, tiny_batch
    ):
        """A client without a config joins a campaign another client
        created, adopts its anomalies and chunk size from the attach
        reply, and ingests the rest of the feed: the drain equals the
        batch run on the whole feed, conversion tallies included (each
        client's ride its own ingest frames)."""
        creator = ServeClient(
            daemon.address,
            "joined",
            config=_config(chunk_size=16),
            ip2as=tiny_world.ip2as,
        )
        creator.attach()
        half = len(tiny_dataset) // 2
        for measurement in tiny_dataset[:half]:
            creator.ingest_measurement(measurement)
        creator.flush()
        creator.wait_for_acks()
        creator.close()
        joiner = ServeClient(daemon.address, "joined", ip2as=tiny_world.ip2as)
        for measurement in tiny_dataset[half:]:
            joiner.ingest_measurement(measurement)   # attaches first
        assert joiner._chunk_size == 16
        result = joiner.drain()
        joiner.close()
        assert joiner.reconnects == 0
        assert result.to_dict(
            include_observations=True
        ) == tiny_batch.to_dict(include_observations=True)

    def test_tallies_of_a_trailing_discard_ship_without_drain(
        self, daemon, tiny_world, tiny_dataset, tiny_batch
    ):
        """A client whose last measurements are all discarded by
        conversion, and which leaves without draining, still delivers
        their tallies: its flush ships a record-less ingest frame."""
        config = _config(chunk_size=16)
        anomalies = config.pipeline_config().anomalies
        discarded = [
            m for m in tiny_dataset
            if not observations_of(m, tiny_world.ip2as, anomalies=anomalies)
        ]
        assert discarded, "the tiny feed must discard something"
        dropped = {id(m) for m in discarded}
        kept = [m for m in tiny_dataset if id(m) not in dropped]
        half = len(kept) // 2
        creator = ServeClient(
            daemon.address, "trailing", config=config, ip2as=tiny_world.ip2as
        )
        creator.attach()
        for measurement in kept[:half]:
            creator.ingest_measurement(measurement)
        creator.flush()
        for measurement in discarded:      # tallies only, no records
            creator.ingest_measurement(measurement)
        assert not creator._pending
        creator.flush()
        creator.wait_for_acks()
        creator.close()
        assert creator.discard.total == half + len(discarded)
        joiner = ServeClient(
            daemon.address, "trailing", ip2as=tiny_world.ip2as
        )
        for measurement in kept[half:]:
            joiner.ingest_measurement(measurement)
        result = joiner.drain()
        joiner.close()
        assert result.discard_stats == tiny_batch.discard_stats
        assert result.to_dict(
            include_observations=True
        ) == tiny_batch.to_dict(include_observations=True)

    def test_midstream_disconnect_resumes(
        self, daemon, tiny_world, tiny_dataset, tiny_batch
    ):
        """Kill the TCP stream mid-campaign: the client re-attaches with
        its resume token and the drain stays byte-identical."""
        client = ServeClient(
            daemon.address,
            "drop",
            config=_config(chunk_size=16),
            ip2as=tiny_world.ip2as,
        )
        client.attach()
        half = len(tiny_dataset) // 2
        for measurement in tiny_dataset[:half]:
            client.ingest_measurement(measurement)
        client._transport.close()   # the wire dies under the client
        for measurement in tiny_dataset[half:]:
            client.ingest_measurement(measurement)
        result = client.drain()
        client.close()
        assert client.reconnects >= 1
        assert result.to_dict() == tiny_batch.to_dict()

    def test_daemon_restart_resumes_tenants(
        self, tmp_path, tiny_world, tiny_dataset, tiny_batch
    ):
        """Stop the daemon mid-campaign (checkpointing every tenant),
        start a fresh one on the same state dir, reconnect, finish:
        byte-identical — and the drained tenant's state file goes."""
        state_dir = tmp_path / "state"
        first = start_in_thread(state_dir=state_dir)
        client = ServeClient(
            first.address,
            "phoenix",
            config=_config(chunk_size=16),
            ip2as=tiny_world.ip2as,
        )
        client.attach()
        half = len(tiny_dataset) // 2
        for measurement in tiny_dataset[:half]:
            client.ingest_measurement(measurement)
        client.flush()
        client.wait_for_acks()
        first.stop()
        assert state_path(state_dir, "phoenix").exists()
        second = start_in_thread(state_dir=state_dir)
        try:
            client.address = second.address
            for measurement in tiny_dataset[half:]:
                client.ingest_measurement(measurement)
            result = client.drain()
            client.close()
            assert client.reconnects >= 1
            assert result.to_dict() == tiny_batch.to_dict()
        finally:
            second.stop()
        # A drained campaign costs nothing on the next restart.  The
        # daemon drops the state file just after sending the result, so
        # look once it has stopped: its shutdown waits for that step.
        assert not state_path(state_dir, "phoenix").exists()


class TestSubscribers:
    def test_replay_from_zero_sees_every_event(self, daemon, solo_outcome):
        _result, events, _client = solo_outcome
        subscriber = ServeSubscriber(daemon.address, "solo")
        replayed = list(subscriber.events(stop_after=len(events)))
        subscriber.close()
        assert [e.sequence for e in replayed] == [
            e.sequence for e in events
        ]
        assert replayed == events

    def test_cursor_survives_reconnect_without_duplicates(
        self, daemon, solo_outcome
    ):
        _result, events, _client = solo_outcome
        half = len(events) // 2
        subscriber = ServeSubscriber(daemon.address, "solo")
        seen = list(subscriber.events(stop_after=half))
        subscriber.close()   # stream dies; cursor survives in the client
        seen += list(subscriber.events(stop_after=len(events) - half))
        subscriber.close()
        sequences = [e.sequence for e in seen]
        assert sequences == sorted(set(sequences))
        assert sequences == [e.sequence for e in events]

    def test_from_sequence_skips_the_past(self, daemon, solo_outcome):
        _result, events, _client = solo_outcome
        cursor = events[len(events) // 2].sequence
        expected = [e for e in events if e.sequence > cursor]
        subscriber = ServeSubscriber(
            daemon.address, "solo", from_sequence=cursor
        )
        tail = list(subscriber.events(stop_after=len(expected)))
        subscriber.close()
        assert tail == expected

    def test_unknown_campaign_is_refused(self, daemon):
        subscriber = ServeSubscriber(daemon.address, "nobody-here")
        with pytest.raises(ServeError, match="not attached"):
            with subscriber:
                pass


class TestEventRing:
    """The per-tenant replay ring and the newest-first cursor scan."""

    RING = 64

    @pytest.fixture(scope="class")
    def ring(self, tiny_world, tiny_dataset):
        session = LocalizationSession.for_world(tiny_world, _config())
        tenant = Tenant(
            "ring", session, AdmissionPolicy(event_buffer=self.RING)
        )
        session.subscribe(tenant._capture_event)
        emitted = []
        session.subscribe(lambda event: emitted.append(event.sequence))
        for measurement in tiny_dataset:
            session.ingest_measurement(measurement)
        yield tenant, emitted
        tenant.close()

    def test_capture_appends_increasing_sequences(self, ring):
        tenant, emitted = ring
        assert len(emitted) > self.RING  # the ring has evicted
        buffered = [seq for seq, _ in tenant.events]
        assert buffered == sorted(set(buffered))
        assert buffered == emitted[-self.RING:]
        assert tenant.last_event_seq == emitted[-1]

    def test_events_after_equals_a_full_scan(self, ring):
        tenant, emitted = ring
        oldest = tenant.events[0][0]
        newest = tenant.last_event_seq
        cursors = {
            -1, 0, emitted[0], oldest - 1, oldest, oldest + 1,
            (oldest + newest) // 2, newest - 1, newest, newest + 10,
        }
        for cursor in sorted(cursors):
            assert tenant.events_after(cursor) == [
                payload for seq, payload in tenant.events if seq > cursor
            ], cursor
        assert tenant.events_after(newest) == []
        assert len(tenant.events_after(0)) == self.RING


class TestTenantDecoder:
    def test_each_tenant_and_each_resume_decodes_afresh(
        self, tmp_path, tiny_world, tiny_dataset
    ):
        """A tenant's backend owns its decoder: a second tenant's starts
        empty while the first holds every path it applied, and so does
        the tenant a restart resumes from the first one's state file."""
        records = [
            record
            for measurement in tiny_dataset[:30]
            for record in observations_of(
                measurement, tiny_world.ip2as, record=wire.observation_record
            )
        ]
        assert records
        registry = TenantRegistry()
        first = registry._wire_up(
            "first", LocalizationSession.for_world(tiny_world, _config())
        )
        second = registry._wire_up(
            "second", LocalizationSession.for_world(tiny_world, _config())
        )
        try:
            assert first.apply(("ingest", 1, records, None)) == ("ack", 1)
            decoder = first.session.backend.decoder
            assert set(decoder.paths) == {r[3] for r in records}
            fresh = second.session.backend.decoder
            assert fresh.paths == {} and fresh.urls == {}
            first.checkpoint(tmp_path)
            resumed = registry.resume(state_path(tmp_path, "first"))
            try:
                assert resumed.applied_seq == 1
                assert resumed.session.backend.decoder.paths == {}
            finally:
                resumed.close()
        finally:
            first.close()
            second.close()


class TestTenantRelaysRecords:
    def test_sharded_tenant_builds_no_observation(
        self, monkeypatch, tiny_world, tiny_dataset, tiny_batch
    ):
        """A sharded tenant routes ingest records as they arrive: the
        daemon builds no observation, holds each path and URL once
        however many frames carried a copy, and drains the records it
        holds into the batch result."""
        stats = DiscardStats()
        records = [
            record
            for measurement in tiny_dataset
            for record in observations_of(
                measurement,
                tiny_world.ip2as,
                stats=stats,
                record=wire.observation_record,
            )
        ]
        # Each frame through its own pickle: its own copy of each path.
        frames = [
            wire.decode(
                wire.encode(("ingest", seq, records[start:start + 64], None))
            )
            for seq, start in enumerate(range(0, len(records), 64), 1)
        ]
        built = []
        new_observation = observations_module._new_observation
        monkeypatch.setattr(
            observations_module,
            "_new_observation",
            lambda cls: built.append(cls) or new_observation(cls),
        )
        tenant = TenantRegistry()._wire_up(
            "relay",
            LocalizationSession.for_world(
                tiny_world, _config(backend="sharded", shards=2)
            ),
        )
        try:
            for frame in frames:
                assert tenant.apply(frame) == ("ack", frame[1])
            held = [
                record
                for group in tenant.session.backend._tracker.groups.values()
                for record in group
            ]
            assert len(held) > len(records)
            assert len({id(record[3]) for record in held}) == len(
                {record[3] for record in records}
            )
            assert len({id(record[0]) for record in held}) == len(
                {record[0] for record in records}
            )
            kind, payload = tenant.apply(
                ("drain", len(frames) + 1, discard_to_dict(stats))
            )
            assert kind == "result"
            assert not built
        finally:
            tenant.close()
        result = wire.result_from_wire(
            wire.decode(wire.encode((kind, payload)))[1]
        )
        assert result.to_dict(
            include_observations=True
        ) == tiny_batch.to_dict(include_observations=True)


class TestFraming:
    class _RecordingWriter:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(bytes(data))

        async def drain(self):
            pass

    def test_small_frames_go_out_in_one_write(self):
        """An ack costs one send; a large frame (a drained result) keeps
        its header and payload apart instead of copying the payload."""
        for message, writes in (
            (("ack", 7), 1),
            (("result", b"x" * JOIN_BELOW), 2),
        ):
            writer = self._RecordingWriter()
            asyncio.run(write_frame(writer, message))
            assert len(writer.writes) == writes
            data = b"".join(writer.writes)
            (length,) = FRAME_LENGTH.unpack(data[: FRAME_LENGTH.size])
            assert length == len(data) - FRAME_LENGTH.size
            assert wire.decode(data[FRAME_LENGTH.size:]) == message


class TestAdmission:
    def test_bad_campaign_id(self, daemon):
        client = ServeClient(daemon.address, "no spaces!", config=_config())
        with pytest.raises(ServeError, match="campaign id must match"):
            client.attach()

    def test_unknown_campaign_without_config(self, daemon):
        client = ServeClient(daemon.address, "never-attached")
        with pytest.raises(ServeError, match="no config"):
            client.attach()

    def test_resume_token_mismatch(self, daemon, solo_outcome):
        client = ServeClient(daemon.address, "solo", config=_config())
        client.resume_token = "0000000000000000"   # not solo's token
        with pytest.raises(ServeError, match="different .* token"):
            client.attach()

    def test_capacity_refusal(self, tmp_path):
        handle = start_in_thread(
            state_dir=tmp_path / "state",
            policy=AdmissionPolicy(max_tenants=1),
        )
        try:
            first = ServeClient(handle.address, "only", config=_config())
            first.attach()
            first.close()
            second = ServeClient(handle.address, "extra", config=_config())
            with pytest.raises(ServeError, match="at capacity"):
                second.attach()
        finally:
            handle.stop()

    @pytest.mark.parametrize("old_format", [1, 2])
    def test_old_checkpoint_format_state_file_is_refused(
        self, tmp_path, tiny_world, tiny_dataset, old_format
    ):
        """A tenant state file whose embedded checkpoint is in another
        format fails to resume with a message naming both formats."""
        session = LocalizationSession.for_world(tiny_world, _config())
        for measurement in tiny_dataset[:20]:
            session.ingest_measurement(measurement)
        checkpoint = tmp_path / "old.ckpt"
        session.checkpoint(checkpoint)
        session.close()
        document = json.loads(checkpoint.read_text())
        document["format"] = old_format
        document["serve"] = {
            "format": SERVE_STATE_FORMAT,
            "campaign": "old",
            "resume_token": "0000000000000000",
            "applied_seq": 3,
            "event_seq": 0,
        }
        path = state_path(tmp_path, "old")
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError, match=f"format {old_format} .*format 3"
        ):
            TenantRegistry().resume(path)

    def test_connect_failure_is_one_actionable_line(self):
        with pytest.raises(TransportError) as err:
            dial_daemon("127.0.0.1:9", retry_for=0.05)
        message = str(err.value)
        assert "127.0.0.1:9" in message
        assert "repro-serve" in message       # the actionable hint
        assert "\n" not in message            # one line, not a traceback


class TestHealthPlane:
    def test_statusz_carries_tenant_rollup(self, daemon, solo_outcome):
        _result, _events, client = solo_outcome
        address = daemon.daemon.metrics_server.address
        with urllib.request.urlopen(
            f"http://{address}/statusz", timeout=5.0
        ) as reply:
            document = json.loads(reply.read().decode("utf-8"))
        assert document["status"] == "ok"
        tenant = document["tenants"]["solo"]
        assert tenant["up"] == 1.0
        assert tenant["applied_seq"] == client._seq
        assert tenant["received_seq"] == client._seq
        assert tenant["lag_frames"] == 0
        assert tenant["queue_depth"] == 0

    def test_healthz_flips_503_when_a_tenant_dies(
        self, tiny_world, tiny_dataset, monkeypatch
    ):
        """A sharded tenant with no recovery attempts left loses a
        worker: its apply fails, /healthz goes unhealthy with
        tenant-labelled reasons, and a healthy tenant on the same daemon
        keeps working."""
        monkeypatch.setattr(backends_module, "RECOVERY_ATTEMPTS", 0)
        handle = start_in_thread(metrics_port=0)
        client = ServeClient(
            handle.address,
            "doomed",
            config=_config(backend="sharded", shards=2, chunk_size=16),
            ip2as=tiny_world.ip2as,
        )
        try:
            client.attach()
            for measurement in tiny_dataset[: len(tiny_dataset) // 2]:
                client.ingest_measurement(measurement)
            client.flush()
            client.wait_for_acks()   # quiesce before touching internals
            tenant = handle.daemon.tenants.tenants["doomed"]
            tenant.executor.submit(
                lambda: tenant.session.backend._ensure_workers()[
                    0
                ].process.kill()
            ).result()
            with pytest.raises(ServeError, match="kept failing"):
                for measurement in tiny_dataset[len(tiny_dataset) // 2 :]:
                    client.ingest_measurement(measurement)
                client.flush()
                client.drain()
            snapshot = healthz_snapshot(
                handle.daemon.metrics_server.address
            )
            assert snapshot["status"] == "unhealthy"
            assert any(
                "tenant doomed" in problem
                for problem in snapshot["problems"]
            )
            assert any(
                "doomed/0" in problem for problem in snapshot["problems"]
            )
            # The daemon itself is fine: a fresh campaign still drains.
            survivor, _client = stream_campaign(
                handle.address, "survivor", _config(seed=11)
            )
            assert survivor.to_dict()
        finally:
            client.close()
            handle.stop()
