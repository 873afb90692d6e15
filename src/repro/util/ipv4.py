"""Minimal IPv4 address and prefix arithmetic.

Addresses are plain ``int`` in ``[0, 2**32)`` everywhere in the simulator —
formatting to dotted-quad happens only at presentation boundaries.  This
module is dependency-free and is shared by the topology layer (prefix
allocation, IP-to-AS mapping) and the packet simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_ADDRESS = 2**32 - 1


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad notation to an integer address.

    >>> parse_ipv4("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not (0 <= octet <= 255):
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(address: int) -> str:
    """Format an integer address as dotted-quad.

    >>> format_ipv4(167772161)
    '10.0.0.1'
    """
    if not (0 <= address <= MAX_ADDRESS):
        raise ValueError(f"address out of range: {address}")
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mask_of(prefix_len: int) -> int:
    """The netmask for a prefix length.

    >>> hex(mask_of(24))
    '0xffffff00'
    """
    if not (0 <= prefix_len <= 32):
        raise ValueError(f"prefix length out of range: {prefix_len}")
    if prefix_len == 0:
        return 0
    return (MAX_ADDRESS << (32 - prefix_len)) & MAX_ADDRESS


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix ``network/length`` with the host bits zeroed."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not (0 <= self.length <= 32):
            raise ValueError(f"prefix length out of range: {self.length}")
        if self.network & ~mask_of(self.length) & MAX_ADDRESS:
            raise ValueError(
                f"host bits set in {format_ipv4(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation.

        >>> Prefix.parse("192.0.2.0/24").length
        24
        """
        address, _, length = text.partition("/")
        if not length:
            raise ValueError(f"missing prefix length: {text!r}")
        return cls(parse_ipv4(address), int(length))

    def __contains__(self, address: int) -> bool:
        return (address & mask_of(self.length)) == self.network

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> int:
        """Lowest covered address (the network address)."""
        return self.network

    @property
    def last(self) -> int:
        """Highest covered address (the broadcast address)."""
        return self.network | (~mask_of(self.length) & MAX_ADDRESS)

    def host(self, index: int) -> int:
        """The ``index``-th address within the prefix (0-based).

        >>> format_ipv4(Prefix.parse("192.0.2.0/24").host(7))
        '192.0.2.7'
        """
        if not (0 <= index < self.num_addresses):
            raise ValueError(f"host index {index} outside /{self.length}")
        return self.network + index

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"


__all__ = [
    "parse_ipv4",
    "format_ipv4",
    "mask_of",
    "Prefix",
    "MAX_ADDRESS",
]
