"""Tests for traceroute-to-AS-path conversion and the four discard rules."""

import pytest

from repro.anomaly import Anomaly
from repro.core.aspath import (
    ConversionOutcome,
    InconclusiveReason,
    convert_measurement,
    convert_traceroute,
)
from repro.iclab.measurement import Measurement
from repro.topology.ip2as import IpToAsEpoch, IpToAsDatabase
from repro.traceroute.simulate import Traceroute
from repro.util.ipv4 import Prefix
from repro.util.timeutil import DAY


def make_db(mapping):
    """mapping: {prefix_str: asn} valid over [0, DAY)."""
    epoch = IpToAsEpoch(0, DAY)
    for prefix_text, asn in mapping.items():
        epoch.table.insert(Prefix.parse(prefix_text), asn)
    return IpToAsDatabase([epoch])


DB = make_db(
    {
        "10.1.0.0/16": 101,
        "10.2.0.0/16": 102,
        "10.3.0.0/16": 103,
    }
)


def addr(prefix_index, host=1):
    return (10 << 24) | (prefix_index << 16) | host


def trace(addresses, reached=True, error=False):
    hops = tuple(
        (i, a, 0.01 if a else None)
        for i, a in enumerate(addresses)
    )
    return Traceroute(hops=hops, destination_reached=reached, error=error)


def measurement(traceroutes, vantage=101):
    return Measurement(
        measurement_id=0,
        timestamp=100,
        vantage_asn=vantage,
        vantage_country="US",
        url="http://x.com/",
        domain="x.com",
        category="News",
        dest_asn=103,
        anomalies={a: False for a in Anomaly.all()},
        traceroutes=tuple(traceroutes),
    )


class TestConvertTraceroute:
    def test_simple_conversion_collapses_runs(self):
        run = trace([addr(1), addr(1, 2), addr(2), addr(3)])
        path, reason = convert_traceroute(run, DB, 0)
        assert reason is None
        assert path == (101, 102, 103)

    def test_error_run_is_rule_2(self):
        path, reason = convert_traceroute(trace([], error=True), DB, 0)
        assert path is None
        assert reason is InconclusiveReason.TRACEROUTE_ERROR

    def test_unreached_destination_is_rule_2(self):
        run = trace([addr(1), addr(2)], reached=False)
        path, reason = convert_traceroute(run, DB, 0)
        assert reason is InconclusiveReason.TRACEROUTE_ERROR

    def test_nothing_mappable_is_rule_1(self):
        unmapped = (99 << 24) | 1
        run = trace([unmapped, unmapped + 1])
        path, reason = convert_traceroute(run, DB, 0)
        assert reason is InconclusiveReason.UNMAPPABLE

    def test_gap_between_same_as_bridged(self):
        run = trace([addr(1), None, addr(1, 5), addr(2)])
        path, reason = convert_traceroute(run, DB, 0)
        assert reason is None
        assert path == (101, 102)

    def test_gap_between_different_ases_is_rule_3(self):
        run = trace([addr(1), None, addr(2)])
        path, reason = convert_traceroute(run, DB, 0)
        assert path is None
        assert reason is InconclusiveReason.AMBIGUOUS_GAP

    def test_unmappable_hop_acts_as_gap(self):
        unmapped = (99 << 24) | 1
        run = trace([addr(1), unmapped, addr(2)])
        path, reason = convert_traceroute(run, DB, 0)
        assert reason is InconclusiveReason.AMBIGUOUS_GAP

    def test_leading_gap_tolerated(self):
        run = trace([None, addr(2), addr(3)])
        path, reason = convert_traceroute(run, DB, 0)
        assert reason is None
        assert path == (102, 103)


class TestConvertMeasurement:
    def test_agreeing_traceroutes_ok(self):
        runs = [trace([addr(1), addr(2), addr(3)])] * 3
        result = convert_measurement(measurement(runs), DB)
        assert result.ok
        assert result.as_path == (101, 102, 103)

    def test_vantage_as_prepended_when_missing(self):
        runs = [trace([addr(2), addr(3)])] * 3
        result = convert_measurement(measurement(runs, vantage=101), DB)
        assert result.ok
        assert result.as_path == (101, 102, 103)

    def test_disagreeing_traceroutes_is_rule_4(self):
        runs = [
            trace([addr(1), addr(2), addr(3)]),
            trace([addr(1), addr(3)]),
            trace([addr(1), addr(2), addr(3)]),
        ]
        result = convert_measurement(measurement(runs), DB)
        assert not result.ok
        assert result.reason is InconclusiveReason.MULTIPLE_PATHS

    def test_single_surviving_run_suffices(self):
        runs = [
            trace([], error=True),
            trace([addr(1), addr(2), addr(3)]),
            trace([], error=True),
        ]
        result = convert_measurement(measurement(runs), DB)
        assert result.ok

    def test_all_failed_reports_most_severe_reason(self):
        runs = [
            trace([], error=True),
            trace([addr(1), None, addr(2)]),  # ambiguous
            trace([], error=True),
        ]
        result = convert_measurement(measurement(runs), DB)
        assert not result.ok
        assert result.reason is InconclusiveReason.TRACEROUTE_ERROR

    def test_all_ambiguous(self):
        runs = [trace([addr(1), None, addr(2)])] * 3
        result = convert_measurement(measurement(runs), DB)
        assert result.reason is InconclusiveReason.AMBIGUOUS_GAP

    def test_historical_epoch_used(self):
        # second epoch maps the prefix to a different AS
        epoch1 = IpToAsEpoch(0, DAY)
        epoch1.table.insert(Prefix.parse("10.1.0.0/16"), 101)
        epoch2 = IpToAsEpoch(DAY, 2 * DAY)
        epoch2.table.insert(Prefix.parse("10.1.0.0/16"), 999)
        db = IpToAsDatabase([epoch1, epoch2])
        run = trace([addr(1)])
        path_then, _ = convert_traceroute(run, db, 0)
        path_later, _ = convert_traceroute(run, db, DAY + 5)
        assert path_then == (101,)
        assert path_later == (999,)
