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
  config-less attaches, and a full daemon are refused with one error
  frame; a tenant whose shard fleet dies (recovery off) flips
  ``/healthz`` to 503 with tenant-labelled reasons while other tenants
  stay usable; ``/statusz`` carries the per-tenant watermark rollup.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.api import ExecutionPolicy, LocalizationSession, SessionConfig
from repro.api.transport import TransportError
from repro.serve import (
    AdmissionPolicy,
    ServeClient,
    ServeSubscriber,
    ServeError,
    dial_daemon,
    start_in_thread,
    stream_campaign,
)
from repro.serve.server import healthz_snapshot
from repro.serve.tenants import state_path


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
        self, tiny_world, tiny_dataset
    ):
        """A sharded tenant with recovery off loses a worker: its apply
        fails, /healthz goes unhealthy with tenant-labelled reasons,
        and a healthy tenant on the same daemon keeps working."""
        handle = start_in_thread(metrics_port=0)
        client = ServeClient(
            handle.address,
            "doomed",
            config=_config(
                backend="sharded", shards=2, chunk_size=16, recovery=False
            ),
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
            with pytest.raises(ServeError, match="recovery is disabled"):
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
