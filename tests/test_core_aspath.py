"""Tests for traceroute-to-AS-path conversion and the four discard rules."""

import dataclasses

import pytest

from repro.anomaly import Anomaly
from repro.api import wire
from repro.api.config import SessionConfig
from repro.core.aspath import (
    ConversionOutcome,
    InconclusiveReason,
    _convert,
    convert_measurement,
    convert_traceroute,
)
from repro.core.observations import DiscardStats, observations_of
from repro.iclab.measurement import Measurement
from repro.scenario.world import build_world
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


class TestRunMemo:
    """The per-run memo is keyed by (epoch, addresses) only: a run's
    ``error`` and ``destination_reached`` flags apply on every hit."""

    PATH = [addr(1), addr(2), addr(3)]
    AMBIGUOUS = [addr(1), None, addr(2)]

    def convert(self, cache, runs, vantage=101):
        return convert_measurement(measurement(runs, vantage), DB, cache)

    def test_reached_hit_then_unreached_is_rule_2(self):
        cache = {}
        assert self.convert(cache, [trace(self.PATH)] * 3).ok
        result = self.convert(cache, [trace(self.PATH, reached=False)] * 3)
        assert result.reason is InconclusiveReason.TRACEROUTE_ERROR

    def test_unreached_first_does_not_poison_the_memo(self):
        cache = {}
        first = self.convert(cache, [trace(self.PATH, reached=False)] * 3)
        assert first.reason is InconclusiveReason.TRACEROUTE_ERROR
        result = self.convert(cache, [trace(self.PATH)] * 3)
        assert result.ok
        assert result.as_path == (101, 102, 103)

    def test_errored_run_with_memoized_addresses_is_rule_2(self):
        cache = {}
        assert self.convert(cache, [trace(self.PATH)] * 3).ok
        result = self.convert(cache, [trace(self.PATH, error=True)] * 3)
        assert result.reason is InconclusiveReason.TRACEROUTE_ERROR
        assert self.convert(cache, [trace(self.PATH)] * 3).ok

    def test_address_rules_outrank_an_unreached_destination(self):
        cache = {}
        reached = self.convert(cache, [trace(self.AMBIGUOUS)] * 3)
        unreached = self.convert(
            cache, [trace(self.AMBIGUOUS, reached=False)] * 3
        )
        assert reached.reason is InconclusiveReason.AMBIGUOUS_GAP
        assert unreached.reason is InconclusiveReason.AMBIGUOUS_GAP
        errored = self.convert(cache, [trace(self.AMBIGUOUS, error=True)] * 3)
        assert errored.reason is InconclusiveReason.TRACEROUTE_ERROR

    def test_one_memoized_run_serves_every_vantage(self):
        cache = {}
        runs = [trace([addr(2), addr(3)])] * 3
        assert self.convert(cache, runs, vantage=102).as_path == (102, 103)
        assert self.convert(cache, runs, vantage=101).as_path == (
            101, 102, 103,
        )

    def test_distinct_runs_that_anchor_alike_agree(self):
        # (101, 102) and (102,) differ, but both anchor to (101, 102).
        runs = [trace([addr(1), addr(2)]), trace([addr(2)])] * 2
        result = self.convert({}, runs[:3])
        assert result.ok
        assert result.as_path == (101, 102)

    def test_memo_separates_epochs(self):
        epoch1 = IpToAsEpoch(0, DAY)
        epoch1.table.insert(Prefix.parse("10.1.0.0/16"), 101)
        epoch2 = IpToAsEpoch(DAY, 2 * DAY)
        epoch2.table.insert(Prefix.parse("10.1.0.0/16"), 999)
        db = IpToAsDatabase([epoch1, epoch2])
        cache = {}
        runs = [trace([addr(1)])] * 3
        then = convert_measurement(measurement(runs), db, cache)
        later = convert_measurement(
            dataclasses.replace(measurement(runs), timestamp=DAY + 5),
            db,
            cache,
        )
        assert then.as_path == (101,)
        assert later.as_path == (101, 999)


def _reference_run(run, ip2as, timestamp):
    """One run converted hop by hop through ``ip2as.lookup`` (the
    documented rules, written out without the memo or the fused walk)."""
    if run.error:
        return None, InconclusiveReason.TRACEROUTE_ERROR
    mapped = [
        None if address is None else ip2as.lookup(address, timestamp)
        for address in run.addresses
    ]
    if all(asn is None for asn in mapped):
        return None, InconclusiveReason.UNMAPPABLE
    path = []
    gap = False
    for asn in mapped:
        if asn is None:
            gap = bool(path)
        elif path and asn == path[-1]:
            gap = False
        elif gap:
            return None, InconclusiveReason.AMBIGUOUS_GAP
        else:
            path.append(asn)
    if not run.destination_reached:
        return None, InconclusiveReason.TRACEROUTE_ERROR
    return tuple(path), None


def _reference(m, ip2as):
    """A measurement converted from its per-run conversions, with the
    precedence the module documents: any converted run wins; converted
    runs must anchor to one path; else errors, unmappable, ambiguity."""
    paths, reasons = set(), set()
    for run in m.traceroutes:
        expected = _reference_run(run, ip2as, m.timestamp)
        assert convert_traceroute(run, ip2as, m.timestamp) == expected
        path, reason = expected
        if path is None:
            reasons.add(reason)
        else:
            if path[0] != m.vantage_asn:
                path = (m.vantage_asn,) + path
            paths.add(path)
    if len(paths) == 1:
        return paths.pop(), None
    if paths:
        return None, InconclusiveReason.MULTIPLE_PATHS
    for reason in (
        InconclusiveReason.TRACEROUTE_ERROR,
        InconclusiveReason.UNMAPPABLE,
        InconclusiveReason.AMBIGUOUS_GAP,
    ):
        if reason in reasons:
            return None, reason
    return None, InconclusiveReason.TRACEROUTE_ERROR


def _paper_campaign(**overrides):
    config = SessionConfig(preset="paper_shaped", seed=1, **overrides)
    world = build_world(config.scenario_config())
    return world, world.run_campaign()


@pytest.fixture(
    scope="module",
    params=["paper-45d", "sweep"],
)
def campaign(request):
    if request.param == "paper-45d":
        return _paper_campaign(duration_days=45)
    return _paper_campaign(
        duration_days=35,
        num_urls=12,
        num_vantage_points=12,
        schedule="sweep",
        sweeps_per_pair_per_day=3.0,
    )


class TestFusedConversionDifferential:
    """Every measurement of the paper-shaped seed-1 campaign and of the
    sweep campaign converts as the per-run reference says, and the wire
    records equal the flattened observations."""

    def test_core_equals_per_run_reference(self, campaign):
        world, dataset = campaign
        cache = {}
        reasons = set()
        for m in dataset:
            expected = _reference(m, world.ip2as)
            assert _convert(m, world.ip2as, cache) == expected
            conversion = convert_measurement(m, world.ip2as)
            assert (conversion.as_path or None, conversion.reason) == expected
            reasons.add(expected[1])
        # Every rule fired somewhere, so each precedence branch ran.
        assert reasons == {None, *InconclusiveReason}

    def test_wire_records_equal_flattened_observations(self, campaign):
        world, dataset = campaign
        record_stats, observation_stats = DiscardStats(), DiscardStats()
        record_cache, observation_cache = {}, {}
        for m in dataset:
            records = observations_of(
                m,
                world.ip2as,
                stats=record_stats,
                conversion_cache=record_cache,
                record=wire.observation_record,
            )
            observations = observations_of(
                m,
                world.ip2as,
                stats=observation_stats,
                conversion_cache=observation_cache,
            )
            assert records == [
                wire.observation_to_wire(o) for o in observations
            ]
        assert record_stats == observation_stats
        assert record_stats.total == len(dataset)
