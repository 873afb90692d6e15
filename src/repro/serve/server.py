"""The always-on localization daemon: one asyncio loop, many campaigns.

Where the sharded backend dedicates a blocking thread per worker
channel, :class:`ServeDaemon` multiplexes *every* client connection —
ingest streams, verdict subscribers, reconnecting stragglers — onto a
single event loop; hundreds of connections cost file descriptors, not
threads.  The CPU-bound work (engine ingestion, drains, checkpoint
serialization) runs on one single-thread executor per tenant, so the
loop never blocks and each tenant's session stays effectively
single-threaded.

The conversation per ingest connection::

    client                            daemon
    attach(campaign, config, token) ->
                                    <- attached(token, applied_seq)
    ingest(seq, [obs...], tallies)  ->
                                    <- [events([...])] ack(seq)
    ...                             <- checkpoint_ack(seq)   (periodic)
    drain(seq, tallies)             ->
                                    <- result(records_to_wire(...))

Subscriber connections instead open with ``subscribe(campaign,
from_sequence)`` and receive ``events`` frames — first the buffered
replay past their cursor, then live pushes.

Backpressure is two bounded stages: a per-tenant ``asyncio.Queue``
(apply backlog) that suspends the connection's reader coroutine when
full — which stops consuming the socket, which is TCP backpressure all
the way to the client — and the client library's own outstanding-ack
window.  Acks mean "applied in memory"; the periodic
``checkpoint_ack`` is the only durable watermark, and the only thing
that lets a client forget its resend buffer.

SIGTERM/SIGINT drain every tenant's queue, checkpoint every tenant to
``--state-dir``, and exit; a restarted daemon resumes each tenant from
its state file, byte-identically (pinned in ``tests/test_serve.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.api import wire
from repro.api.transport import FRAME_LENGTH, parse_address
from repro.obs import log as obslog
from repro.obs.export import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.serve.tenants import (
    AdmissionPolicy,
    ServeError,
    Tenant,
    TenantRegistry,
)

_log = obslog.get_logger("serve.server")

# A frame above this is a protocol error, not a workload — refuse it
# before allocating (matches the transport's 4-byte length prefix cap
# in spirit; far below it in practice).
MAX_FRAME = 256 << 20


async def read_frame(reader: asyncio.StreamReader) -> Tuple:
    """One length-prefixed frame off an asyncio stream."""
    header = await reader.readexactly(FRAME_LENGTH.size)
    (length,) = FRAME_LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise wire.WireFormatError(f"frame of {length} bytes refused")
    return wire.decode(await reader.readexactly(length))


# Frames below this go out in one write, header and payload joined:
# acks and event batches then cost one send each.  Larger ones (a
# drained result) are written in two, since joining would copy the
# whole frame once more.
JOIN_BELOW = 64 << 10


async def write_frame(
    writer: asyncio.StreamWriter, message: Tuple
) -> None:
    """Ship one frame; awaits the transport's own backpressure."""
    data = wire.encode(message)
    header = FRAME_LENGTH.pack(len(data))
    if len(data) < JOIN_BELOW:
        writer.write(header + data)
    else:
        writer.write(header)
        writer.write(data)
    await writer.drain()


class _Subscription:
    """One subscriber connection's cursor + wakeup."""

    def __init__(self, tenant: Tenant, cursor: int) -> None:
        self.tenant = tenant
        self.cursor = cursor
        self.wakeup = asyncio.Event()


class ServeDaemon:
    """The multi-tenant localization service.

    ``listen`` is the wire-protocol address; ``state_dir`` (optional
    but recommended) is where tenant checkpoints live; ``metrics_port``
    (None disables) serves ``/metrics`` + ``/healthz`` + ``/statusz``
    with per-tenant labels and rollups.  Use :func:`start_in_thread`
    from tests and :mod:`repro.serve.cli` from operations.
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        state_dir: Optional[os.PathLike] = None,
        policy: Optional[AdmissionPolicy] = None,
        metrics_port: Optional[int] = None,
        pidfile: Optional[os.PathLike] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._listen = listen
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.tenants = TenantRegistry(self.policy, registry=self.registry)
        self._metrics_port = metrics_port
        self._pidfile = Path(pidfile) if pidfile is not None else None
        self.metrics_server: Optional[MetricsServer] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._queues: Dict[str, asyncio.Queue] = {}
        self._appliers: Dict[str, asyncio.Task] = {}
        self._subscriptions: set = set()
        self._writers: set = set()
        self._conn_gauge = self.registry.gauge("repro_serve_connections")
        self._conn_total = self.registry.counter(
            "repro_serve_connections_total"
        )
        self._apply_seconds = self.registry.histogram(
            "repro_serve_apply_seconds"
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind, resume tenants from the state dir, start serving."""
        loop = asyncio.get_running_loop()
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            for path in self.tenants.state_files(self.state_dir):
                tenant = await loop.run_in_executor(
                    None, self.tenants.resume, path
                )
                self.tenants.register(tenant)
                self._ensure_applier(tenant)
        host, port = parse_address(self._listen)
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if self._metrics_port is not None:
            self.metrics_server = MetricsServer(
                self.registry, port=self._metrics_port
            )
        if self._pidfile is not None:
            self._pidfile.parent.mkdir(parents=True, exist_ok=True)
            self._pidfile.write_text(f"{os.getpid()}\n", encoding="utf-8")
        _log.info(
            "serve.start",
            extra=obslog.fields(
                address=self.address,
                tenants=len(self.tenants.tenants),
                state_dir=(
                    str(self.state_dir) if self.state_dir else None
                ),
            ),
        )

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger (idempotent)."""
        self._stop.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`request_stop`; then checkpoint and exit."""
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain apply queues, checkpoint every tenant."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Hang up on every client first: readers stop feeding the apply
        # queues, so the joins below are a backlog drain, not a wait on
        # clients that keep streaming.
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        # Let each applier finish its backlog, then stop it.
        for campaign, queue in list(self._queues.items()):
            await queue.join()
        for task in self._appliers.values():
            task.cancel()
        for task in list(self._appliers.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._appliers.clear()
        loop = asyncio.get_running_loop()
        if self.state_dir is not None:
            for tenant in list(self.tenants.tenants.values()):
                try:
                    await loop.run_in_executor(
                        tenant.executor, tenant.checkpoint, self.state_dir
                    )
                except Exception as exc:
                    _log.error(
                        "serve.checkpoint.failed",
                        extra=obslog.fields(
                            tenant=tenant.campaign, reason=str(exc)
                        ),
                    )
        self.tenants.close()
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None
        if self._pidfile is not None:
            try:
                self._pidfile.unlink()
            except FileNotFoundError:
                pass
        _log.info("serve.stop", extra=obslog.fields(address=self.address))

    # -- tenant plumbing ---------------------------------------------------

    def _ensure_applier(self, tenant: Tenant) -> asyncio.Queue:
        queue = self._queues.get(tenant.campaign)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.policy.queue_depth)
            self._queues[tenant.campaign] = queue
            self._appliers[tenant.campaign] = asyncio.ensure_future(
                self._apply_loop(tenant, queue)
            )
            depth_gauge = self.registry.gauge(
                "repro_serve_queue_depth", {"tenant": tenant.campaign}
            )
            queue._depth_gauge = depth_gauge  # type: ignore[attr-defined]
        return queue

    def _wake_subscribers(self, tenant: Tenant) -> None:
        for subscription in self._subscriptions:
            if subscription.tenant is tenant:
                subscription.wakeup.set()

    async def _apply_loop(
        self, tenant: Tenant, queue: asyncio.Queue
    ) -> None:
        """One tenant's applier: queue → executor → reply, in order."""
        loop = asyncio.get_running_loop()
        clock = self.registry.clock
        while True:
            message, connection = await queue.get()
            try:
                queue._depth_gauge.set(queue.qsize())  # type: ignore
                started = clock()
                try:
                    kind, value = await loop.run_in_executor(
                        tenant.executor, tenant.apply, message
                    )
                except ServeError as exc:
                    await connection.send_error(str(exc))
                    continue
                except Exception as exc:   # engine/backend failure
                    await connection.send_error(
                        f"tenant {tenant.campaign} failed: {exc}"
                    )
                    continue
                finally:
                    self._apply_seconds.observe(clock() - started)
                    # Once per applied frame, on the loop: the frame's
                    # events are all captured by now.
                    self._wake_subscribers(tenant)
                await connection.push_events(tenant)
                if kind == "result":
                    await connection.send_frame(("result", value))
                    if self.state_dir is not None:
                        tenant.discard_state(self.state_dir)
                else:
                    await connection.send_frame((kind, value))
                if (
                    self.state_dir is not None
                    and tenant.due_for_checkpoint()
                ):
                    durable = await loop.run_in_executor(
                        tenant.executor, tenant.checkpoint, self.state_dir
                    )
                    await connection.send_frame(
                        wire.checkpoint_ack_frame(durable)
                    )
            except asyncio.CancelledError:
                # Only at shutdown, after queue.join() emptied us.
                raise
            except (ConnectionError, OSError):
                # The requesting client vanished mid-reply: the work IS
                # applied; the reconnecting client resyncs off the
                # applied_seq in its next attached reply.  The applier
                # must outlive any one connection.
                pass
            finally:
                queue.task_done()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_total.inc()
        self._conn_gauge.inc(1)
        self._writers.add(writer)
        connection = _Connection(writer)
        try:
            try:
                opening = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if opening and opening[0] == "subscribe":
                await self._serve_subscriber(reader, connection, opening)
            elif opening and opening[0] == "attach":
                await self._serve_ingest(reader, connection, opening)
            else:
                await connection.send_error(
                    f"expected attach or subscribe, got {opening[:1]!r}"
                )
        except wire.WireFormatError as exc:
            try:
                await connection.send_error(str(exc))
            except ConnectionError:
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass   # client dropped; tenant state is untouched by design
        finally:
            self._conn_gauge.inc(-1)
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_ingest(
        self,
        reader: asyncio.StreamReader,
        connection: "_Connection",
        opening: Tuple,
    ) -> None:
        campaign, config_payload, want_events, token, _options = (
            wire.check_attach(opening)
        )
        loop = asyncio.get_running_loop()
        try:
            tenant = self.tenants.admit(campaign, config_payload, token)
            if tenant is None:
                built = await loop.run_in_executor(
                    None, self.tenants.build, campaign, config_payload
                )
                tenant = self.tenants.register(built)
        except Exception as exc:
            # Admission refusals and config/world build failures alike:
            # the client gets one error frame, never a hang.
            await connection.send_error(str(exc))
            return
        queue = self._ensure_applier(tenant)
        connection.want_events = want_events
        connection.events_cursor = tenant.last_event_seq
        config = tenant.session.config
        await connection.send_frame(
            wire.attached_frame(
                campaign,
                tenant.resume_token,
                tenant.applied_seq,
                options={
                    "anomalies": [
                        anomaly.value
                        for anomaly in config.pipeline_config().anomalies
                    ],
                    "chunk_size": config.execution.chunk_size,
                },
            )
        )
        while True:
            message = await read_frame(reader)
            kind = message[0]
            if kind in ("ingest", "advance", "drain"):
                tenant.note_received(message[1])
                await queue.put((message, connection))
                queue._depth_gauge.set(queue.qsize())  # type: ignore
            elif kind == "detach":
                return
            else:
                await connection.send_error(
                    f"unexpected frame {kind!r} on an ingest connection"
                )
                return

    async def _serve_subscriber(
        self,
        reader: asyncio.StreamReader,
        connection: "_Connection",
        opening: Tuple,
    ) -> None:
        campaign, from_sequence = wire.check_subscribe(opening)
        tenant = self.tenants.tenants.get(campaign)
        if tenant is None:
            await connection.send_error(
                f"campaign {campaign!r} is not attached"
            )
            return
        subscription = _Subscription(tenant, from_sequence)
        self._subscriptions.add(subscription)
        closed = asyncio.ensure_future(self._watch_close(reader))
        try:
            await connection.send_frame(
                wire.subscribed_frame(campaign, tenant.last_event_seq)
            )
            while True:
                batch = tenant.events_after(subscription.cursor)
                if batch:
                    last = batch[-1][wire.EVENT_SEQUENCE_INDEX]
                    await connection.send_frame(("events", batch))
                    subscription.cursor = last
                subscription.wakeup.clear()
                if closed.done():
                    return
                waiter = asyncio.ensure_future(subscription.wakeup.wait())
                await asyncio.wait(
                    (waiter, closed),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                waiter.cancel()
                if closed.done() and not subscription.wakeup.is_set():
                    return
        finally:
            self._subscriptions.discard(subscription)
            closed.cancel()

    @staticmethod
    async def _watch_close(reader: asyncio.StreamReader) -> None:
        """Resolve when the subscriber hangs up (it never speaks again)."""
        try:
            await reader.read()
        except (ConnectionError, OSError):
            pass


class _Connection:
    """Write-side of one client connection, serialized by a lock.

    The applier task and the reader coroutine both write (replies vs.
    error frames); one lock keeps frames whole.  Event pushes ride the
    ingest connection only when the client attached with
    ``want_events`` — each connection tracks its own event cursor.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._lock = asyncio.Lock()
        self.want_events = False
        self.events_cursor = 0

    async def send_frame(self, message: Tuple) -> None:
        async with self._lock:
            await write_frame(self._writer, message)

    async def send_error(self, message: str) -> None:
        await self.send_frame(("error", message))

    async def push_events(self, tenant: Tenant) -> None:
        if not self.want_events:
            return
        batch = tenant.events_after(self.events_cursor)
        if not batch:
            return
        self.events_cursor = batch[-1][wire.EVENT_SEQUENCE_INDEX]
        await self.send_frame(("events", batch))


class DaemonHandle:
    """A daemon running on a background thread (tests, notebooks)."""

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=60.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            await self.daemon.start()
            self._started.set()
            await self.daemon.serve_forever()

        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    @property
    def address(self) -> str:
        return self.daemon.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.daemon.request_stop)
            self._thread.join(timeout=timeout)


def start_in_thread(**kwargs: Any) -> DaemonHandle:
    """Run a :class:`ServeDaemon` on a background thread; returns once
    it is accepting connections."""
    return DaemonHandle(ServeDaemon(**kwargs))


def healthz_snapshot(address: str, timeout: float = 5.0) -> Dict[str, Any]:
    """Fetch and decode a daemon's ``/healthz`` (operator helper)."""
    from urllib.request import urlopen
    from urllib.error import HTTPError

    try:
        with urlopen(f"http://{address}/healthz", timeout=timeout) as reply:
            return json.loads(reply.read().decode("utf-8"))
    except HTTPError as exc:   # 503 still carries the health body
        return json.loads(exc.read().decode("utf-8"))


__all__ = [
    "MAX_FRAME",
    "DaemonHandle",
    "ServeDaemon",
    "healthz_snapshot",
    "read_frame",
    "start_in_thread",
    "write_frame",
]
