"""Tests for repro.util.ipv4."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.ipv4 import (
    MAX_ADDRESS,
    Prefix,
    format_ipv4,
    mask_of,
    parse_ipv4,
)

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)
prefix_lengths = st.integers(min_value=0, max_value=32)


class TestParseFormat:
    def test_parse_known(self):
        assert parse_ipv4("10.0.0.1") == 0x0A000001
        assert parse_ipv4("255.255.255.255") == MAX_ADDRESS
        assert parse_ipv4("0.0.0.0") == 0

    def test_format_known(self):
        assert format_ipv4(0x0A000001) == "10.0.0.1"

    @given(addresses)
    def test_roundtrip(self, address):
        assert parse_ipv4(format_ipv4(address)) == address

    def test_parse_rejects_bad_shapes(self):
        for bad in ("1.2.3", "1.2.3.4.5", "1.2.3.256", "1.2.3.-1", "a.b.c.d"):
            with pytest.raises(ValueError):
                parse_ipv4(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(-1)
        with pytest.raises(ValueError):
            format_ipv4(MAX_ADDRESS + 1)


class TestMask:
    def test_known_masks(self):
        assert mask_of(0) == 0
        assert mask_of(8) == 0xFF000000
        assert mask_of(24) == 0xFFFFFF00
        assert mask_of(32) == MAX_ADDRESS

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mask_of(33)
        with pytest.raises(ValueError):
            mask_of(-1)

    @given(prefix_lengths)
    def test_mask_has_length_leading_ones(self, length):
        mask = mask_of(length)
        assert bin(mask & MAX_ADDRESS).count("1") == length


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.length == 24
        assert prefix.num_addresses == 256

    def test_parse_requires_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("192.0.2.0")

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(parse_ipv4("192.0.2.1"), 24)

    def test_contains(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert parse_ipv4("192.0.2.200") in prefix
        assert parse_ipv4("192.0.3.1") not in prefix

    def test_first_last(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.first == parse_ipv4("192.0.2.0")
        assert prefix.last == parse_ipv4("192.0.2.255")

    def test_host_indexing(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert format_ipv4(prefix.host(7)) == "192.0.2.7"
        with pytest.raises(ValueError):
            prefix.host(256)
        with pytest.raises(ValueError):
            prefix.host(-1)

    def test_str(self):
        assert str(Prefix.parse("10.0.0.0/8")) == "10.0.0.0/8"

    @given(addresses, st.integers(min_value=0, max_value=32))
    def test_every_address_in_its_own_prefix(self, address, length):
        network = address & mask_of(length)
        prefix = Prefix(network, length)
        assert address in prefix
