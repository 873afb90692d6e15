"""Tenant sessions: the daemon's synchronous, per-campaign core.

A :class:`Tenant` is one campaign's :class:`~repro.api.session.
LocalizationSession` plus the bookkeeping that makes it safe to drive
over a lossy network: a client-monotone *chunk sequence* with an
applied watermark (re-sent chunks at or below it are acknowledged but
skipped — exactly-once application under at-least-once delivery), a
bounded ring of verdict events for subscriber replay, and a durable
state document that embeds the ordinary session checkpoint next to the
serve-side watermarks, so a restarted daemon resumes every tenant and a
reconnecting client learns precisely which buffered chunks to re-send.

Everything here is synchronous and single-threaded *per tenant*: the
asyncio server (:mod:`repro.serve.server`) gives each tenant a
one-thread executor and funnels every session-touching call through it,
so the engine never sees concurrent ingestion.  The byte-identity
argument is the same one the sharded backend's recovery tests pin: the
engine is a pure fold over the observation sequence, the sequence
numbers guarantee the daemon applies the same sequence exactly once,
and checkpoint/restore re-emits identical state — so a drain through
the daemon, through any number of client reconnects and daemon
restarts, equals an uninterrupted inline drain byte for byte.
"""

from __future__ import annotations

import json
import re
import secrets
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api import wire
from repro.api.checkpoint import CHECKPOINT_FORMAT
from repro.api.config import SessionConfig
from repro.api.session import LocalizationSession
from repro.obs import log as obslog
from repro.stream.checkpoint import (
    discard_from_dict,
    state_summary,
)
from repro.stream.events import VerdictEvent
from repro.util.fsio import atomic_write_bytes

_log = obslog.get_logger("serve.tenants")

# Versions the "serve" section of a tenant state document (the embedded
# config/engine payload is versioned by CHECKPOINT_FORMAT).
SERVE_STATE_FORMAT = 1

# Tenant state files in --state-dir: one per campaign.
STATE_SUFFIX = ".serve.json"

# Campaign ids become file names, label values, and log fields — keep
# them to one unambiguous shape instead of escaping in three places.
_CAMPAIGN_OK = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ServeError(RuntimeError):
    """A tenant-level protocol violation (reported to the client)."""


class AdmissionError(ServeError):
    """The daemon refused an attach (capacity, ownership, bad id)."""


class AdmissionPolicy:
    """The daemon's capacity and durability knobs, in one place.

    ``max_tenants`` bounds concurrent campaigns; ``queue_depth`` bounds
    each tenant's apply queue in frames (the reader stops consuming the
    socket when it is full — backpressure reaches the client as TCP
    flow control); ``checkpoint_every`` is the durable-checkpoint
    cadence in applied frames (0 checkpoints only at shutdown);
    ``event_buffer`` bounds the per-tenant verdict-event replay ring.
    """

    def __init__(
        self,
        max_tenants: int = 16,
        queue_depth: int = 32,
        checkpoint_every: int = 32,
        event_buffer: int = 65536,
    ) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if event_buffer < 1:
            raise ValueError("event_buffer must be positive")
        self.max_tenants = max_tenants
        self.queue_depth = queue_depth
        self.checkpoint_every = checkpoint_every
        self.event_buffer = event_buffer


class Tenant:
    """One campaign's session plus its serve-side bookkeeping.

    Construct through :class:`TenantRegistry` — it enforces admission
    and knows how to resume from a state document.  All methods that
    touch the session (:meth:`apply`, :meth:`checkpoint`) must run on
    :attr:`executor` — the server guarantees that.
    """

    def __init__(
        self,
        campaign: str,
        session: LocalizationSession,
        policy: AdmissionPolicy,
        resume_token: Optional[str] = None,
        applied_seq: int = 0,
        registry=None,
    ) -> None:
        self.campaign = campaign
        self.session = session
        self.policy = policy
        self.resume_token = (
            resume_token
            if resume_token is not None
            else secrets.token_hex(8)
        )
        self.applied_seq = applied_seq
        self.received_seq = applied_seq
        self.checkpoint_seq = applied_seq
        self.frames_since_checkpoint = 0
        self.failed: Optional[str] = None
        # The drained result as its ``result`` frame payload.
        self.result: Optional[Tuple] = None
        # (event sequence, wire tuple) — replay source for subscribers.
        self.events: deque = deque(maxlen=policy.event_buffer)
        self.last_event_seq = 0
        # One thread: the session is single-threaded by construction.
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"tenant-{campaign}"
        )
        # Per-tenant elasticity: polled on the tenant executor after
        # every applied frame, so a rebalance can never race ingestion.
        self.autoscaler = (
            session.autoscaler()
            if session.config.execution.autoscale.enabled
            else None
        )
        self._gauges = None
        if registry is not None:
            labels = {"tenant": campaign}
            self._gauges = {
                "up": registry.gauge("repro_serve_tenant_up", labels),
                "received": registry.gauge(
                    "repro_serve_received_seq", labels
                ),
                "applied": registry.gauge(
                    "repro_serve_applied_seq", labels
                ),
                "checkpointed": registry.gauge(
                    "repro_serve_checkpoint_seq", labels
                ),
                "lag": registry.gauge("repro_serve_lag_frames", labels),
                "events": registry.gauge(
                    "repro_serve_events_buffered", labels
                ),
                "checkpoints": registry.counter(
                    "repro_serve_checkpoints_total", labels
                ),
                "frames": {},
            }
            self._frame_labels = labels
            self._registry = registry
            self._gauges["up"].set(1)
        else:
            self._registry = None

    # -- event capture -----------------------------------------------------

    def _capture_event(self, event: VerdictEvent) -> None:
        self.events.append((event.sequence, wire.event_to_wire(event)))
        if event.sequence > self.last_event_seq:
            self.last_event_seq = event.sequence
        if self._gauges is not None:
            self._gauges["events"].set(len(self.events))

    def events_after(self, sequence: int) -> List[Tuple]:
        """Buffered event tuples with sequence strictly above
        ``sequence``, oldest first.

        The ring holds increasing sequences (:meth:`_capture_event`
        appends them in emission order), so the scan walks back from the
        newest event and stops at the cursor: an up-to-date subscriber
        costs one comparison, not a pass over the whole ring.
        """
        newer: List[Tuple] = []
        for seq, payload in reversed(self.events):
            if seq <= sequence:
                break
            newer.append(payload)
        newer.reverse()
        return newer

    # -- gauge upkeep ------------------------------------------------------

    def note_received(self, seq: int) -> None:
        """Record a frame's arrival (called off the reader, pre-apply)."""
        if seq > self.received_seq:
            self.received_seq = seq
        if self._gauges is not None:
            self._gauges["received"].set(self.received_seq)
            self._gauges["lag"].set(
                max(0, self.received_seq - self.applied_seq)
            )

    def _note_applied(self, kind: str) -> None:
        if self._gauges is None:
            return
        self._gauges["applied"].set(self.applied_seq)
        self._gauges["lag"].set(
            max(0, self.received_seq - self.applied_seq)
        )
        counters = self._gauges["frames"]
        counter = counters.get(kind)
        if counter is None:
            counter = counters[kind] = self._registry.counter(
                "repro_serve_frames_total",
                {**self._frame_labels, "kind": kind},
            )
        counter.inc()

    # -- the apply surface (tenant-executor only) --------------------------

    def apply(self, message: Tuple) -> Tuple[str, Any]:
        """Apply one sequenced frame; returns the reply ``(kind, value)``.

        ``("ack", seq)`` for ingest/advance, ``("result", payload)`` for
        drain, where ``payload`` is the drained result's
        :func:`repro.api.wire.records_to_wire` form.  Ingest records go
        to the backend as they are: a sharded backend routes them
        without building an observation.  A frame at or below
        the applied watermark is skipped but still answered — that
        idempotence is the whole reconnect story, and it is why an ingest
        frame's conversion tallies are merged here, after the skip check:
        a resent frame counts once.
        Raises :class:`ServeError` on a sequence gap (the client and
        daemon have irreconcilably diverged — better loud than subtly
        wrong).
        """
        if self.failed is not None:
            raise ServeError(
                f"tenant {self.campaign} failed: {self.failed}"
            )
        kind = message[0]
        seq = message[1]
        if kind == "drain":
            return ("result", self._drain(seq, message[2]))
        if seq <= self.applied_seq:
            return ("ack", seq)
        if seq != self.applied_seq + 1:
            raise ServeError(
                f"sequence gap for {self.campaign}: expected "
                f"{self.applied_seq + 1}, got {seq} — the client "
                f"truncated past the daemon's durable watermark"
            )
        try:
            if kind == "ingest":
                self.session.backend.ingest_records(message[2])
                self._merge_tallies(message[3])
            elif kind == "advance":
                self.session.advance(message[2])
            else:
                raise ServeError(f"unknown serve frame kind {kind!r}")
        except ServeError:
            raise
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            raise ServeError(
                f"tenant {self.campaign} failed applying {kind} "
                f"{seq}: {exc}"
            ) from exc
        self.applied_seq = seq
        self.frames_since_checkpoint += 1
        self._note_applied(kind)
        self._autoscale()
        return ("ack", seq)

    def _autoscale(self) -> None:
        scaler = self.autoscaler
        if scaler is None or self.drained or self.failed is not None:
            return
        try:
            action = scaler.poll()
        except Exception as exc:
            # A rebalance that died mid-flight may have extracted state
            # into worker stashes without committing — better loud than
            # a subtly wrong drain (the byte-identity contract).
            self.fail(f"autoscale: {type(exc).__name__}: {exc}")
            return
        if action is not None:
            _log.info(
                "serve.tenant.autoscale",
                extra=obslog.fields(
                    tenant=self.campaign,
                    direction=action,
                    shards=scaler.actions[-1][1],
                ),
            )

    def _merge_tallies(self, discard_payload) -> None:
        if discard_payload:
            self.session.backend.merge_discard_stats(
                discard_from_dict(discard_payload)
            )

    def _drain(self, seq: int, discard_payload) -> Tuple:
        if self.result is not None:
            return self.result
        try:
            self._merge_tallies(discard_payload)
            self.result = self.session.backend.drain_wire()
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            raise ServeError(
                f"tenant {self.campaign} failed draining: {exc}"
            ) from exc
        if seq > self.applied_seq:
            self.applied_seq = seq
            self._note_applied("drain")
        head = self.result[0]
        _log.info(
            "serve.tenant.drain",
            extra=obslog.fields(
                tenant=self.campaign,
                problems=len(head.solutions),
                censors=len(head.identified_censor_asns),
            ),
        )
        return self.result

    def fail(self, reason: str) -> None:
        """Mark the tenant failed; ``/healthz`` flips 503 on the gauge."""
        self.failed = reason
        if self._gauges is not None:
            self._gauges["up"].set(0)
        _log.error(
            "serve.tenant.failed",
            extra=obslog.fields(tenant=self.campaign, reason=reason),
        )

    # -- durability (tenant-executor only) ---------------------------------

    @property
    def drained(self) -> bool:
        return self.result is not None

    def due_for_checkpoint(self) -> bool:
        every = self.policy.checkpoint_every
        return (
            every > 0
            and self.frames_since_checkpoint >= every
            and not self.drained
            and self.failed is None
        )

    def state_document(self) -> Dict[str, Any]:
        """The durable form: an ordinary checkpoint document plus the
        serve watermarks, one JSON object."""
        return {
            "format": CHECKPOINT_FORMAT,
            "config": self.session.config.to_dict(),
            "engine": self.session.backend.state(),
            "serve": {
                "format": SERVE_STATE_FORMAT,
                "campaign": self.campaign,
                "resume_token": self.resume_token,
                "applied_seq": self.applied_seq,
                "event_seq": self.last_event_seq,
            },
        }

    def checkpoint(self, state_dir: Path) -> int:
        """Write the tenant's state atomically; returns the durable seq.

        Skipped (returning the previous watermark) once drained or
        failed — there is nothing left worth resuming.
        """
        if self.drained or self.failed is not None:
            return self.checkpoint_seq
        document = self.state_document()
        atomic_write_bytes(
            state_path(state_dir, self.campaign),
            json.dumps(document, sort_keys=True).encode("utf-8"),
        )
        self.checkpoint_seq = self.applied_seq
        self.frames_since_checkpoint = 0
        if self._gauges is not None:
            self._gauges["checkpointed"].set(self.checkpoint_seq)
            self._gauges["checkpoints"].inc()
        _log.info(
            "serve.tenant.checkpoint",
            extra=obslog.fields(
                tenant=self.campaign, applied_seq=self.applied_seq
            ),
        )
        return self.checkpoint_seq

    def discard_state(self, state_dir: Path) -> None:
        """Drop the durable state (after a successful drain — a
        restarted daemon must not resurrect a finished campaign)."""
        try:
            state_path(state_dir, self.campaign).unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        try:
            self.session.close()
        finally:
            self.executor.shutdown(wait=False)


def state_path(state_dir: Path, campaign: str) -> Path:
    return Path(state_dir) / f"{campaign}{STATE_SUFFIX}"


class TenantRegistry:
    """Admission control plus campaign-id → :class:`Tenant` lookup.

    Not thread-safe by itself: the server calls it from the event loop
    only (tenant *construction* — world build, engine restore — is
    pushed to an executor by the caller; see :meth:`admit` /
    :meth:`build`).
    """

    def __init__(
        self, policy: Optional[AdmissionPolicy] = None, registry=None
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.tenants: Dict[str, Tenant] = {}
        self.metrics = registry
        self._tenants_gauge = (
            registry.gauge("repro_serve_tenants")
            if registry is not None
            else None
        )
        self._rejected: Dict[str, Any] = {}

    def _reject(self, reason: str, message: str) -> AdmissionError:
        if self.metrics is not None:
            counter = self._rejected.get(reason)
            if counter is None:
                counter = self._rejected[reason] = self.metrics.counter(
                    "repro_serve_rejected_total", {"reason": reason}
                )
            counter.inc()
        return AdmissionError(message)

    def admit(
        self,
        campaign: str,
        config_payload: Optional[Dict[str, Any]],
        resume_token: Optional[str],
    ) -> Optional[Tenant]:
        """Validate an attach; returns the existing tenant or ``None``
        when a new one must be built (via :meth:`build`, off-loop).

        Raises :class:`AdmissionError` on a malformed campaign id, a
        resume-token mismatch (the campaign belongs to another client),
        a config-less attach to an unknown campaign, or a full daemon.
        """
        if not _CAMPAIGN_OK.match(campaign or ""):
            raise self._reject(
                "bad_campaign",
                f"campaign id must match {_CAMPAIGN_OK.pattern}, got "
                f"{campaign!r}",
            )
        tenant = self.tenants.get(campaign)
        if tenant is not None:
            if resume_token is not None and (
                resume_token != tenant.resume_token
            ):
                raise self._reject(
                    "token_mismatch",
                    f"campaign {campaign!r} exists with a different "
                    f"resume token — pick another campaign id",
                )
            return tenant
        if config_payload is None:
            raise self._reject(
                "unknown_campaign",
                f"campaign {campaign!r} is not attached and no config "
                f"was supplied to create it",
            )
        if len(self.tenants) >= self.policy.max_tenants:
            raise self._reject(
                "capacity",
                f"daemon is at capacity ({self.policy.max_tenants} "
                f"tenants); detach one or raise --max-tenants",
            )
        return None

    def build(
        self,
        campaign: str,
        config_payload: Dict[str, Any],
    ) -> Tenant:
        """Construct a fresh tenant (expensive: builds the world).

        Call off the event loop; then :meth:`register` on it.
        """
        config = SessionConfig.from_dict(config_payload)
        session = LocalizationSession(config)
        return self._wire_up(campaign, session)

    def _wire_up(
        self,
        campaign: str,
        session: LocalizationSession,
    ) -> Tenant:
        if self.metrics is not None:
            session.enable_metrics(self.metrics.view({"tenant": campaign}))
        tenant = Tenant(
            campaign,
            session,
            self.policy,
            registry=self.metrics,
        )
        # Always capture verdict events: any connection may subscribe
        # later, and event emission never changes drained bytes (the
        # pinned with-subscribers invariant).
        session.subscribe(tenant._capture_event)
        # Touch the backend now, on the caller's (executor) thread:
        # world build / engine restore happen here, not under the first
        # ingest chunk's latency.
        session.backend
        return tenant

    def register(self, tenant: Tenant) -> Tenant:
        """Publish a built tenant (event-loop side).  If a concurrent
        attach won the race, the duplicate is discarded and the winner
        returned."""
        existing = self.tenants.get(tenant.campaign)
        if existing is not None:
            tenant.close()
            return existing
        self.tenants[tenant.campaign] = tenant
        if self._tenants_gauge is not None:
            self._tenants_gauge.set(len(self.tenants))
        _log.info(
            "serve.tenant.attach",
            extra=obslog.fields(
                tenant=tenant.campaign,
                preset=tenant.session.config.preset,
                backend=tenant.session.config.execution.backend,
            ),
        )
        return tenant

    def remove(self, campaign: str) -> None:
        tenant = self.tenants.pop(campaign, None)
        if tenant is not None:
            tenant.close()
            if self._tenants_gauge is not None:
                self._tenants_gauge.set(len(self.tenants))

    # -- durability --------------------------------------------------------

    def resume(self, path: Path) -> Tenant:
        """Rebuild one tenant from its state file (expensive; call off
        the event loop) — then :meth:`register` it."""
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
        serve = document.get("serve", {})
        if serve.get("format") != SERVE_STATE_FORMAT:
            raise ValueError(
                f"unsupported serve state format "
                f"{serve.get('format')!r} in {path}"
            )
        campaign = serve["campaign"]
        session = LocalizationSession.restore_document(document)
        tenant = self._wire_up(campaign, session)
        tenant.resume_token = serve["resume_token"]
        tenant.applied_seq = serve["applied_seq"]
        tenant.received_seq = serve["applied_seq"]
        tenant.checkpoint_seq = serve["applied_seq"]
        tenant.last_event_seq = serve.get("event_seq", 0)
        if self.metrics is not None:
            self.metrics.counter("repro_serve_resumes_total").inc()
        _log.info(
            "serve.tenant.resume",
            extra=obslog.fields(
                tenant=campaign,
                applied_seq=tenant.applied_seq,
                **state_summary(document["engine"]),
            ),
        )
        return tenant

    def state_files(self, state_dir: Path) -> List[Path]:
        directory = Path(state_dir)
        if not directory.is_dir():
            return []
        return sorted(directory.glob(f"*{STATE_SUFFIX}"))

    def close(self) -> None:
        for campaign in list(self.tenants):
            self.remove(campaign)


__all__ = [
    "SERVE_STATE_FORMAT",
    "STATE_SUFFIX",
    "AdmissionError",
    "AdmissionPolicy",
    "ServeError",
    "Tenant",
    "TenantRegistry",
    "state_path",
]
