"""Session simulation: DNS lookups and HTTP fetches across a censored path.

These functions produce the *client-side packet capture* of one test, with
on-path middleboxes given the chance to inject.  Timing and TTL arithmetic
follow from router-hop distances on the :class:`~repro.netsim.path.RouterPath`:

- a packet injected by a middlebox at router-hop ``h`` arrives at the client
  about ``2*h*per_hop_rtt`` after the triggering client packet, always ahead
  of the genuine response from the farther server — which is exactly why
  censors win races and why ICLab sees *two* DNS responses;
- the received TTL of a packet equals the sender's initial TTL minus the
  router hops travelled, so injected packets carry a tell-tale TTL step
  unless the censor deliberately mimics (``mimic_server_ttl``).

Organic noise (spurious server RSTs, one-off TTL jitter, packet loss) is
injected with caller-controlled probabilities; the RST noise rate is how the
reproduction recreates the paper's "RST measurements are low fidelity"
finding (≈30% of RST CNFs unsolvable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.netsim.middlebox import (
    OnPathMiddlebox,
    SessionContext,
    SeqTamperMode,
    TcpAction,
    TcpActionKind,
)
from repro.netsim.packets import (
    DEFAULT_TTL,
    DnsRecord,
    DnsResponse,
    HttpResponse,
    PacketCapture,
    TcpFlags,
    TcpPacket,
)
from repro.netsim.path import RouterPath
from repro.util.rng import DeterministicRNG

_SEGMENT_SIZE = 1460


@dataclass(frozen=True)
class SessionParams:
    """Tunable physics and noise of a session."""

    per_hop_rtt: float = 0.004          # one-way per-router-hop delay, seconds
    server_think_time: float = 0.030    # server processing before first byte
    resolver_think_time: float = 0.015  # resolver processing delay
    server_initial_ttl: int = DEFAULT_TTL
    injector_initial_ttl: int = DEFAULT_TTL
    organic_rst_probability: float = 0.0     # server-side spurious resets
    ttl_jitter_probability: float = 0.0      # one-off TTL wobble (route flap)
    segment_loss_probability: float = 0.0    # a data segment never arrives
    duplicate_dns_probability: float = 0.0   # resolver answer duplicated


@dataclass
class DnsSessionResult:
    """Outcome of a simulated DNS lookup."""

    capture: PacketCapture
    resolved_address: Optional[int]
    injector_asns: Set[int] = field(default_factory=set)


@dataclass
class HttpSessionResult:
    """Outcome of a simulated HTTP fetch."""

    capture: PacketCapture
    delivered_page: Optional[HttpResponse]
    completed: bool
    injector_asns: Set[int] = field(default_factory=set)


def _round_trip(hops: int, params: SessionParams) -> float:
    return 2.0 * hops * params.per_hop_rtt


def simulate_dns_lookup(
    domain: str,
    url: str,
    router_path: RouterPath,
    middleboxes: Sequence[OnPathMiddlebox],
    legitimate_address: int,
    resolver_address: int,
    rng: DeterministicRNG,
    timestamp: int = 0,
    params: SessionParams = SessionParams(),
) -> DnsSessionResult:
    """Simulate one DNS lookup for ``domain`` across ``router_path``.

    The resolver is modelled at the far end of the path (ICLab's Google-DNS
    probe crosses the same national boundary as the destination traffic).
    Every on-path middlebox sees the query; injectors race the resolver.
    The client resolves to the *first* response's address, as a stub
    resolver does — injected answers therefore win.
    """
    capture = PacketCapture()
    total_hops = router_path.hop_count
    txid = rng.randrange(1, 2**16)
    injectors: Set[int] = set()

    responses: List[DnsResponse] = []
    for middlebox, hop_index in sorted(middleboxes, key=lambda pair: pair[1]):
        context = SessionContext(
            domain=domain,
            url=url,
            client_asn=router_path.as_path[0],
            server_asn=router_path.as_path[-1],
            router_path=router_path,
            hop_index=hop_index,
            timestamp=timestamp,
            rng=rng,
        )
        injection = middlebox.on_dns_query(context)
        if injection is None:
            continue
        injectors.add(injection.injector_asn)
        arrival = _round_trip(hop_index + 1, params)
        responses.append(
            DnsResponse(
                time=arrival,
                txid=txid,
                qname=domain,
                answers=(DnsRecord(domain, injection.forged_address),),
                resolver_address=resolver_address,
                ttl=params.injector_initial_ttl - (hop_index + 1),
                injected_by=injection.injector_asn,
            )
        )

    legit_arrival = _round_trip(total_hops, params) + params.resolver_think_time
    legit = DnsResponse(
        time=legit_arrival,
        txid=txid,
        qname=domain,
        answers=(DnsRecord(domain, legitimate_address),),
        resolver_address=resolver_address,
        ttl=params.server_initial_ttl - total_hops,
    )
    responses.append(legit)
    if rng.chance(params.duplicate_dns_probability):
        responses.append(
            DnsResponse(
                time=legit_arrival + 0.4,
                txid=txid,
                qname=domain,
                answers=legit.answers,
                resolver_address=resolver_address,
                ttl=legit.ttl,
            )
        )
    for response in sorted(responses, key=lambda r: r.time):
        capture.add_dns(response)
    resolved = capture.dns[0].addresses[0] if capture.dns else None
    return DnsSessionResult(
        capture=capture, resolved_address=resolved, injector_asns=injectors
    )


def simulate_http_fetch(
    domain: str,
    url: str,
    router_path: RouterPath,
    middleboxes: Sequence[OnPathMiddlebox],
    server_page: HttpResponse,
    rng: DeterministicRNG,
    timestamp: int = 0,
    params: SessionParams = SessionParams(),
) -> HttpSessionResult:
    """Simulate one HTTP GET for ``url`` across ``router_path``.

    Materializes middlebox actions into packets (see module docstring) and
    returns the capture plus the page the client's HTTP parser would
    accept — for TCP that is the first in-sequence payload, so a racing
    injected blockpage displaces the genuine page.
    """
    capture = PacketCapture()
    total_hops = router_path.hop_count
    injectors: Set[int] = set()
    client_isn = rng.randrange(1, 2**31)
    server_isn = rng.randrange(1, 2**31)
    server_ttl = params.server_initial_ttl - total_hops

    # Collect actions from every on-path middlebox, nearest first.
    actions: List[Tuple[int, TcpAction]] = []
    for middlebox, hop_index in sorted(middleboxes, key=lambda pair: pair[1]):
        context = SessionContext(
            domain=domain,
            url=url,
            client_asn=router_path.as_path[0],
            server_asn=router_path.as_path[-1],
            router_path=router_path,
            hop_index=hop_index,
            timestamp=timestamp,
            rng=rng,
        )
        action = middlebox.on_tcp_session(context)
        if action is not None:
            actions.append((hop_index, action))

    # A transparent proxy terminates the connection: middleboxes beyond the
    # nearest proxy never see the session.
    proxy: Optional[Tuple[int, TcpAction]] = next(
        (
            (hop, action)
            for hop, action in actions
            if action.kind is TcpActionKind.BLOCKPAGE_PROXY
        ),
        None,
    )
    if proxy is not None:
        proxy_hop = proxy[0]
        actions = [(hop, action) for hop, action in actions if hop <= proxy_hop]

    # --- handshake -----------------------------------------------------
    capture.add(
        TcpPacket(
            time=0.0,
            from_client=True,
            ttl=DEFAULT_TTL,
            seq=client_isn,
            ack=0,
            flags=TcpFlags.SYN,
        )
    )
    if proxy is not None:
        proxy_hop, proxy_action = proxy
        injectors.add(proxy_action.injector_asn)
        endpoint_hops = proxy_hop + 1
        endpoint_ttl = params.injector_initial_ttl - endpoint_hops
        endpoint_injected_by: Optional[int] = proxy_action.injector_asn
    else:
        endpoint_hops = total_hops
        endpoint_ttl = server_ttl
        endpoint_injected_by = None
    synack_time = _round_trip(endpoint_hops, params)
    capture.add(
        TcpPacket(
            time=synack_time,
            from_client=False,
            ttl=endpoint_ttl,
            seq=server_isn,
            ack=client_isn + 1,
            flags=_SYNACK,
            injected_by=endpoint_injected_by,
        )
    )

    # --- request ---------------------------------------------------------
    # len("GET " + url + " HTTP/1.1\r\nHost: " + domain + "\r\n\r\n")
    request_len = 25 + len(url) + len(domain)
    request_time = synack_time + 0.001
    capture.add(
        TcpPacket(
            time=request_time,
            from_client=True,
            ttl=DEFAULT_TTL,
            seq=client_isn + 1,
            ack=server_isn + 1,
            flags=_ACK_PSH,
            payload_len=request_len,
        )
    )

    data_seq = server_isn + 1
    suppress_server = proxy is not None

    # --- middlebox injections -------------------------------------------
    if proxy is not None:
        proxy_hop, proxy_action = proxy
        page = _blockpage_response(proxy_action)
        _emit_segments(
            capture,
            page,
            start_time=request_time + _round_trip(proxy_hop + 1, params) + 0.005,
            ttl=endpoint_ttl,
            start_seq=data_seq,
            params=params,
            rng=rng,
            injected_by=proxy_action.injector_asn,
        )
    else:
        for hop_index, action in actions:
            injectors.add(action.injector_asn)
            injected_hops = hop_index + 1
            injected_ttl = (
                server_ttl
                if action.mimic_server_ttl
                else params.injector_initial_ttl - injected_hops
            )
            arrival = request_time + _round_trip(injected_hops, params)
            if action.suppress_server:
                suppress_server = True
            if action.kind is TcpActionKind.RST_INJECT:
                capture.add(
                    TcpPacket(
                        time=arrival,
                        from_client=False,
                        ttl=injected_ttl,
                        seq=data_seq,
                        ack=client_isn + 1 + request_len,
                        flags=TcpFlags.RST,
                        injected_by=action.injector_asn,
                    )
                )
            elif action.kind is TcpActionKind.SEQ_TAMPER:
                if action.seq_mode is SeqTamperMode.OVERLAP:
                    seq = data_seq  # collides with the genuine first segment
                else:
                    seq = data_seq + 4 * _SEGMENT_SIZE  # leaves a hole
                capture.add(
                    TcpPacket(
                        time=arrival,
                        from_client=False,
                        ttl=injected_ttl,
                        seq=seq,
                        ack=client_isn + 1 + request_len,
                        flags=TcpFlags.ACK | TcpFlags.PSH,
                        payload_len=512,
                        injected_by=action.injector_asn,
                    )
                )
            elif action.kind is TcpActionKind.BLOCKPAGE_INJECT:
                page = _blockpage_response(action)
                _emit_segments(
                    capture,
                    page,
                    start_time=arrival,
                    ttl=injected_ttl,
                    start_seq=data_seq,
                    params=params,
                    rng=rng,
                    injected_by=action.injector_asn,
                )
                capture.add(
                    TcpPacket(
                        time=arrival + 0.002,
                        from_client=False,
                        ttl=injected_ttl,
                        seq=data_seq + page.body_length,
                        ack=client_isn + 1 + request_len,
                        flags=TcpFlags.RST,
                        injected_by=action.injector_asn,
                    )
                )
            elif action.kind is TcpActionKind.THROTTLE:
                # Throttling does not alter packet contents; it stretches
                # server timing (handled below via throttle_factor).
                pass

    throttle = min(
        (a.throttle_factor for _, a in actions if a.kind is TcpActionKind.THROTTLE),
        default=1.0,
    )

    # --- genuine server response ------------------------------------------
    if not suppress_server:
        first_byte = (
            request_time + _round_trip(total_hops, params) + params.server_think_time
        )
        jitter_ttl = server_ttl
        if rng.chance(params.ttl_jitter_probability):
            jitter_ttl = server_ttl + rng.pick([-2, -1, 1, 2])
        _emit_segments(
            capture,
            server_page,
            start_time=first_byte,
            ttl=server_ttl,
            start_seq=data_seq,
            params=params,
            rng=rng,
            inter_segment=0.002 / throttle,
            jitter_ttl_once=jitter_ttl if jitter_ttl != server_ttl else None,
        )
        if rng.chance(params.organic_rst_probability):
            segments = max(1, -(-server_page.body_length // _SEGMENT_SIZE))
            capture.add(
                TcpPacket(
                    time=first_byte + segments * 0.002 + 0.010,
                    from_client=False,
                    ttl=server_ttl,
                    seq=data_seq + server_page.body_length,
                    ack=client_isn + 1 + request_len,
                    flags=TcpFlags.RST,
                )
            )

    delivered = _first_in_sequence_page(capture, data_seq)
    completed = delivered is not None
    return HttpSessionResult(
        capture=capture,
        delivered_page=delivered,
        completed=completed,
        injector_asns=injectors,
    )


def _blockpage_response(action: TcpAction) -> HttpResponse:
    assert action.blockpage_html is not None
    return HttpResponse(status=403, body=action.blockpage_html, server_header="filter")


_ACK = TcpFlags.ACK
_ACK_PSH = TcpFlags.ACK | TcpFlags.PSH
_SYNACK = TcpFlags.SYN | TcpFlags.ACK


def _emit_segments(
    capture: PacketCapture,
    page: HttpResponse,
    start_time: float,
    ttl: int,
    start_seq: int,
    params: SessionParams,
    rng: DeterministicRNG,
    inter_segment: float = 0.002,
    injected_by: Optional[int] = None,
    jitter_ttl_once: Optional[int] = None,
) -> None:
    """Emit a page as a train of data segments; the page object rides on
    the first segment (payload bodies are not re-assembled by detectors)."""
    remaining = page.body_length
    seq = start_seq
    time = start_time
    first = True
    jitter_target = rng.randrange(1, 1 + max(1, remaining // _SEGMENT_SIZE))
    segment_index = 0
    # chance() inlined for the per-segment loop; degenerate probabilities
    # keep chance()'s no-draw behaviour so the RNG stream is unchanged.
    loss_probability = params.segment_loss_probability
    draw_loss = 0.0 < loss_probability < 1.0
    loss_always = loss_probability >= 1.0
    uniform = rng.random
    while remaining > 0 or first:
        size = min(_SEGMENT_SIZE, remaining) if remaining else 0
        segment_index += 1
        lost = (uniform() < loss_probability) if draw_loss else loss_always
        if lost and not first:
            # lost on the wire: advance seq without a capture entry
            seq += size
            remaining -= size
            time += inter_segment
            continue
        segment_ttl = ttl
        if jitter_ttl_once is not None and segment_index == jitter_target:
            segment_ttl = jitter_ttl_once
        capture.add(
            TcpPacket(
                time=time,
                from_client=False,
                ttl=segment_ttl,
                seq=seq,
                ack=0,
                flags=_ACK_PSH if first else _ACK,
                payload_len=size,
                payload=page if first else None,
                injected_by=injected_by,
            )
        )
        seq += size
        remaining -= size
        time += inter_segment
        first = False


def _first_in_sequence_page(
    capture: PacketCapture, expected_seq: int
) -> Optional[HttpResponse]:
    """The page whose first segment arrives earliest at the expected seq."""
    best: Optional[TcpPacket] = None
    for packet in capture.server_packets():
        if packet.payload is None or packet.seq != expected_seq:
            continue
        if best is None or packet.time < best.time:
            best = packet
    return best.payload if best is not None else None


__all__ = [
    "SessionParams",
    "DnsSessionResult",
    "HttpSessionResult",
    "simulate_dns_lookup",
    "simulate_http_fetch",
]
