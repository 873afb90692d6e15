"""Packet records as seen by a client-side capture.

These are *observations*, not wire formats: each record carries exactly the
fields ICLab's pcap analysis reads.  Times are floats in seconds relative to
the session start; addresses are integer IPv4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

DEFAULT_TTL = 64


class TcpFlags(enum.IntFlag):
    """The TCP flags the detectors care about."""

    NONE = 0
    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8
    PSH = 16

    def short(self) -> str:
        """Compact tcpdump-style flag string, e.g. ``SA`` for SYN|ACK."""
        letters = [
            ("S", TcpFlags.SYN),
            ("A", TcpFlags.ACK),
            ("F", TcpFlags.FIN),
            ("R", TcpFlags.RST),
            ("P", TcpFlags.PSH),
        ]
        return "".join(letter for letter, flag in letters if flag in self) or "."


@dataclass(frozen=True)
class TcpPacket:
    """One TCP/IP packet observed at the client.

    ``from_client`` gives direction; ``ttl`` is the *received* IP TTL (the
    sender's initial TTL minus router hops travelled), which is the field
    the TTL-anomaly detector compares across packets.  ``payload_len`` and
    ``payload`` describe the TCP segment body (HTTP bytes, typically).
    """

    time: float
    from_client: bool
    ttl: int
    seq: int
    ack: int
    flags: TcpFlags
    payload_len: int = 0
    payload: Optional["HttpResponse"] = None
    injected_by: Optional[int] = None  # ground truth: censor ASN, hidden
    #                                    from detectors; used for validation

    def __post_init__(self) -> None:
        if not (0 <= self.ttl <= 255):
            raise ValueError(f"TTL out of range: {self.ttl}")
        if self.payload_len < 0:
            raise ValueError("negative payload length")

    # The detectors test flags on every captured packet; masking the plain
    # int skips IntFlag's Python-level __and__/__contains__ dispatch.

    @property
    def is_rst(self) -> bool:
        """Whether the RST flag is set."""
        return int(self.flags) & _RST_BIT != 0

    @property
    def is_synack(self) -> bool:
        """Whether this is the handshake SYNACK."""
        return int(self.flags) & _SYNACK_BITS == _SYNACK_BITS

    @property
    def seq_end(self) -> int:
        """Sequence number just past this segment's payload."""
        return self.seq + self.payload_len


_RST_BIT = int(TcpFlags.RST)
_SYNACK_BITS = int(TcpFlags.SYN | TcpFlags.ACK)


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response body observation (status line + body summary)."""

    status: int
    body: str
    server_header: str = "nginx"
    redirect_location: Optional[str] = None

    @property
    def body_length(self) -> int:
        """Body length in characters (proxy for bytes)."""
        return len(self.body)


@dataclass(frozen=True)
class DnsRecord:
    """One answer record in a DNS response."""

    name: str
    address: int
    ttl: int = 300


@dataclass(frozen=True)
class DnsResponse:
    """A DNS response packet observed at the client."""

    time: float
    txid: int
    qname: str
    answers: Tuple[DnsRecord, ...]
    resolver_address: int
    ttl: int  # received IP TTL
    injected_by: Optional[int] = None  # ground truth, as in TcpPacket

    @property
    def addresses(self) -> Tuple[int, ...]:
        """All answer addresses."""
        return tuple(record.address for record in self.answers)


@dataclass
class PacketCapture:
    """A client-side capture of one session (DNS lookup or TCP connection).

    ``server_packets``/``synack`` are asked for by every detector of every
    test, so their answers are cached and invalidated on ``add`` — captures
    are append-then-analyze, making the cache a pure win.
    """

    tcp: List[TcpPacket] = field(default_factory=list)
    dns: List[DnsResponse] = field(default_factory=list)
    _server_cache: Optional[List[TcpPacket]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, packet: TcpPacket) -> None:
        """Record a TCP packet."""
        self.tcp.append(packet)
        self._server_cache = None

    def add_dns(self, response: DnsResponse) -> None:
        """Record a DNS response."""
        self.dns.append(response)

    def server_packets(self) -> List[TcpPacket]:
        """TCP packets flowing toward the client, in time order.

        The returned list is shared and must not be mutated by callers.
        """
        cached = self._server_cache
        if cached is None:
            cached = self._server_cache = sorted(
                (p for p in self.tcp if not p.from_client),
                key=lambda p: p.time,
            )
        return cached

    def synack(self) -> Optional[TcpPacket]:
        """The first SYNACK of the capture, if any."""
        for packet in self.server_packets():
            if packet.is_synack:
                return packet
        return None


__all__ = [
    "TcpFlags",
    "TcpPacket",
    "HttpResponse",
    "DnsRecord",
    "DnsResponse",
    "PacketCapture",
    "DEFAULT_TTL",
]
