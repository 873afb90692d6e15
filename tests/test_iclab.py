"""Tests for vantage points, measurements, datasets, and the platform."""

import pytest

from repro.anomaly import Anomaly
from repro.iclab.dataset import Dataset
from repro.iclab.measurement import Measurement
from repro.iclab.platform import ICLabPlatform, PlatformConfig
from repro.iclab.vantage import VantageKind, select_vantage_points
from repro.topology.asn import ASType
from repro.traceroute.simulate import Traceroute
from repro.util.rng import DeterministicRNG
from repro.util.timeutil import DAY


def make_measurement(mid=0, timestamp=0, anomalies=None, vantage=1, dest=9,
                     url="http://x.com/"):
    return Measurement(
        measurement_id=mid,
        timestamp=timestamp,
        vantage_asn=vantage,
        vantage_country="US",
        url=url,
        domain="x.com",
        category="News",
        dest_asn=dest,
        anomalies=anomalies or {a: False for a in Anomaly.all()},
        traceroutes=(
            Traceroute(
                hops=((0, 123, 0.01),),
                destination_reached=True,
            ),
        ),
        true_as_path=(vantage, dest),
        injector_asns=frozenset(),
    )


class TestVantageSelection:
    def test_selection(self, tiny_world):
        vps = select_vantage_points(tiny_world.graph, count=6, seed=1)
        assert 0 < len(vps) <= 6
        assert len({vp.asn for vp in vps}) == len(vps)  # one per AS

    def test_kinds_match_as_types(self, tiny_world):
        vps = select_vantage_points(tiny_world.graph, count=8, seed=1)
        for vp in vps:
            as_type = tiny_world.graph.registry[vp.asn].as_type
            if vp.kind is VantageKind.VPN:
                assert as_type is ASType.CONTENT
            else:
                assert as_type is ASType.ACCESS

    def test_deterministic(self, tiny_world):
        a = select_vantage_points(tiny_world.graph, count=6, seed=2)
        b = select_vantage_points(tiny_world.graph, count=6, seed=2)
        assert [vp.asn for vp in a] == [vp.asn for vp in b]

    def test_count_validation(self, tiny_world):
        with pytest.raises(ValueError):
            select_vantage_points(tiny_world.graph, count=0)
        with pytest.raises(ValueError):
            select_vantage_points(tiny_world.graph, count=5, vpn_fraction=2.0)


class TestMeasurement:
    def test_requires_all_anomalies(self):
        with pytest.raises(ValueError):
            make_measurement(anomalies={Anomaly.DNS: True})

    def test_detected(self):
        anomalies = {a: False for a in Anomaly.all()}
        anomalies[Anomaly.RST] = True
        m = make_measurement(anomalies=anomalies)
        assert m.detected(Anomaly.RST)
        assert not m.detected(Anomaly.DNS)

    def test_roundtrip(self):
        m = make_measurement(mid=5, timestamp=100)
        clone = Measurement.from_dict(m.to_dict())
        assert clone == m

    def test_roundtrip_campaign_measurements(self, tiny_dataset):
        """Simulated records (RTT floats, silent hops, error runs) survive
        to_dict/from_dict, and the rebuilt hops are exact tuples too."""
        silent_hops = 0
        for m in tiny_dataset:
            clone = Measurement.from_dict(m.to_dict())
            assert clone == m
            for traceroute in clone.traceroutes:
                for hop in traceroute.hops:
                    assert type(hop) is tuple
                    silent_hops += hop[1] is None
        assert silent_hops > 0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            make_measurement(timestamp=-1)


class TestDataset:
    def test_stats(self):
        anomalies = {a: False for a in Anomaly.all()}
        anomalies[Anomaly.BLOCK] = True
        ds = Dataset(
            [
                make_measurement(0, 0),
                make_measurement(1, DAY, anomalies=anomalies, vantage=2),
            ]
        )
        stats = ds.stats()
        assert stats.measurements == 2
        assert stats.vantage_ases == 2
        assert stats.anomaly_counts[Anomaly.BLOCK] == 1
        assert stats.anomaly_fraction(Anomaly.BLOCK) == 0.5
        assert stats.total_anomalies == 1
        assert stats.period == (0, DAY)

    def test_empty_stats(self):
        stats = Dataset().stats()
        assert stats.measurements == 0
        assert stats.anomaly_fraction(Anomaly.DNS) == 0.0

    def test_views(self):
        ds = Dataset(
            [
                make_measurement(0, 0, url="http://a.com/"),
                make_measurement(1, 50, url="http://b.com/", vantage=2),
                make_measurement(2, 100, url="http://a.com/"),
            ]
        )
        assert ds.urls() == ["http://a.com/", "http://b.com/"]
        # measurements 0 and 2 share (vantage, url): two distinct pairs
        assert len(ds.pairs()) == 2


class TestPlatform:
    def test_run_test_produces_measurement(self, tiny_world):
        platform = tiny_world.platform
        vantage = tiny_world.vantage_points[0]
        test_url = tiny_world.test_list.urls[0]
        measurement = platform.run_test(vantage, test_url, timestamp=1000)
        assert measurement is not None
        assert measurement.vantage_asn == vantage.asn
        assert measurement.dest_asn == test_url.dest_asn
        assert len(measurement.traceroutes) == 3
        assert set(measurement.anomalies) == set(Anomaly.all())

    def test_run_test_deterministic(self, tiny_world):
        platform = tiny_world.platform
        vantage = tiny_world.vantage_points[0]
        test_url = tiny_world.test_list.urls[0]
        a = platform.run_test(vantage, test_url, timestamp=1000)
        b = platform.run_test(vantage, test_url, timestamp=1000)
        assert a.anomalies == b.anomalies
        assert a.true_as_path == b.true_as_path

    def test_server_page_cached_and_deterministic(self, tiny_world):
        platform = tiny_world.platform
        url = tiny_world.test_list.urls[0]
        assert platform.server_page(url) is platform.server_page(url)
        assert platform.server_page(url).status == 200

    def test_campaign_within_window(self, tiny_dataset, tiny_world):
        end = tiny_world.config.platform_config().end
        assert all(0 <= m.timestamp < end for m in tiny_dataset)

    def test_campaign_nonempty(self, tiny_dataset):
        assert len(tiny_dataset) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlatformConfig(start=10, end=10)
        with pytest.raises(ValueError):
            PlatformConfig(tests_per_url_per_day=0)
        with pytest.raises(ValueError):
            PlatformConfig(schedule="hourly")
        with pytest.raises(ValueError):
            PlatformConfig(schedule="sweep", sweeps_per_pair_per_day=0)

    def test_poisson_helper_mean(self):
        rng = DeterministicRNG(0, "poisson")
        draws = [ICLabPlatform._poisson(rng, 3.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert 2.8 < mean < 3.2

    def test_measurement_ground_truth_path_matches_oracle(self, tiny_world):
        platform = tiny_world.platform
        vantage = tiny_world.vantage_points[0]
        test_url = tiny_world.test_list.urls[0]
        measurement = platform.run_test(vantage, test_url, timestamp=5000)
        expected = tiny_world.oracle.aspath_at(
            vantage.asn, test_url.dest_asn, 5000
        )
        assert measurement.true_as_path == expected
