"""Tests for the future-work extensions (throttling, Tor bridges)."""

import pytest

from repro.anomaly import Anomaly
from repro.censorship.censor import CensorMiddlebox, Technique
from repro.extensions.throttling import (
    ThrottlingCampaignConfig,
    deploy_throttlers,
    localize_throttlers,
    run_throttling_campaign,
    throughput_observations,
)
from repro.extensions.tor_bridges import (
    BridgeCampaignConfig,
    bridge_observations,
    localize_bridge_blockers,
    run_bridge_campaign,
)
from repro.scenario import build_world, tiny
from repro.util.timeutil import DAY


@pytest.fixture(scope="module")
def ext_world():
    """A dedicated world: the extensions mutate censor technique sets."""
    return build_world(tiny(seed=21))


class TestThrottlingDeployment:
    def test_deploy_is_deterministic(self, ext_world):
        a = deploy_throttlers(ext_world, seed=5)
        b = deploy_throttlers(ext_world, seed=5)
        assert a == b

    def test_only_unscoped_censors_throttle(self, ext_world):
        throttlers = deploy_throttlers(ext_world, fraction=1.0, seed=5)
        for asn in throttlers:
            censor = ext_world.deployment.censor_of(asn)
            assert censor is not None and not censor.scoped
            assert Technique.THROTTLE in censor.techniques

    def test_zero_fraction_deploys_none(self, ext_world):
        assert deploy_throttlers(ext_world, fraction=0.0, seed=5) == []

    def test_reassigned_techniques_are_not_answered_from_a_stale_memo(self):
        # Censors memoize per-domain decisions; deploy_throttlers assigns
        # an extended technique tuple after the memo is warm.  Every answer
        # afterwards must be what a censor built with that tuple gives.
        config = tiny(seed=21)
        world = build_world(config)
        domains = sorted({url.domain for url in world.test_list})
        censors = list(world.deployment.censors_by_asn.values())
        for censor in censors:
            for domain in domains:
                censor.technique_for(domain)
                censor.covers_domain(domain)
        throttlers = deploy_throttlers(world, fraction=1.0, seed=5)
        assert throttlers
        for censor in censors:
            fresh = CensorMiddlebox(
                asn=censor.asn,
                country_code=censor.country_code,
                policy=censor.policy,
                techniques=censor.techniques,
                scoped=censor.scoped,
                categories=censor.categories,
                country_by_asn=censor.country_by_asn,
                seed=config.seed,
                fire_probability=censor.fire_probability,
                domain_coverage=censor.domain_coverage,
                blockpage_template=censor.blockpage_template,
            )
            assert fresh.seed == censor.seed
            for domain in domains:
                assert censor.technique_for(domain) == fresh.technique_for(
                    domain
                ), (censor.asn, domain)
                assert censor.covers_domain(domain) == fresh.covers_domain(
                    domain
                ), (censor.asn, domain)


class TestThroughputCampaign:
    def test_campaign_produces_measurements(self, ext_world):
        deploy_throttlers(ext_world, fraction=1.0, seed=5)
        config = ThrottlingCampaignConfig(seed=1, end=3 * DAY, num_servers=2)
        measurements = run_throttling_campaign(ext_world, config)
        assert measurements
        assert all(m.throughput_mbps > 0 for m in measurements)

    def test_throttled_measurements_are_slower(self, ext_world):
        deploy_throttlers(ext_world, fraction=1.0, seed=5)
        config = ThrottlingCampaignConfig(seed=1, end=3 * DAY, num_servers=3)
        measurements = run_throttling_campaign(ext_world, config)
        throttled = [m.ratio for m in measurements if m.throttled_by]
        clean = [m.ratio for m in measurements if not m.throttled_by]
        if not throttled or not clean:
            pytest.skip("no throttled paths with this seed")
        assert max(throttled) < min(clean)

    def test_observations_use_throttle_anomaly(self, ext_world):
        config = ThrottlingCampaignConfig(seed=1, end=2 * DAY, num_servers=2)
        measurements = run_throttling_campaign(ext_world, config)
        observations = throughput_observations(measurements)
        assert len(observations) == len(measurements)
        assert all(o.anomaly is Anomaly.THROTTLE for o in observations)

    def test_detection_matches_ground_truth_mostly(self, ext_world):
        deploy_throttlers(ext_world, fraction=1.0, seed=5)
        config = ThrottlingCampaignConfig(seed=1, end=5 * DAY, num_servers=3)
        measurements = run_throttling_campaign(ext_world, config)
        observations = throughput_observations(measurements)
        mismatches = sum(
            1
            for m, o in zip(measurements, observations)
            if bool(m.throttled_by) != o.detected
        )
        # only pairs whose every test is throttled can be misclassified
        assert mismatches / len(measurements) < 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThrottlingCampaignConfig(end=0)
        with pytest.raises(ValueError):
            ThrottlingCampaignConfig(throttle_detection_ratio=1.5)


class TestThrottlingLocalization:
    def test_identified_throttlers_are_true(self, ext_world):
        result = localize_throttlers(
            ext_world,
            ThrottlingCampaignConfig(seed=2, end=7 * DAY, num_servers=4),
        )
        assert result.problems_solved > 0
        for asn in result.identified:
            assert asn in result.true_throttlers
        if result.identified:
            assert result.precision == 1.0


class TestBridgeCampaign:
    def test_probes_generated(self, ext_world):
        config = BridgeCampaignConfig(seed=3, end=3 * DAY, num_bridges=3)
        probes, truth = run_bridge_campaign(ext_world, config)
        assert probes
        assert isinstance(truth, set)

    def test_blocked_probes_have_blockers(self, ext_world):
        config = BridgeCampaignConfig(
            seed=3, end=5 * DAY, num_bridges=4, blocker_fraction=1.0,
            mean_discovery_days=0.5,
        )
        probes, truth = run_bridge_campaign(ext_world, config)
        for probe in probes:
            assert probe.reachable == (not probe.blocked_by)
            for blocker in probe.blocked_by:
                assert blocker in truth

    def test_discovery_delay_creates_transitions(self, ext_world):
        """Some (vantage, bridge) pairs flip reachable->blocked over time."""
        config = BridgeCampaignConfig(
            seed=4, end=10 * DAY, num_bridges=4, blocker_fraction=1.0,
            mean_discovery_days=3.0,
        )
        probes, _ = run_bridge_campaign(ext_world, config)
        by_pair = {}
        for probe in probes:
            by_pair.setdefault((probe.vantage_asn, probe.bridge_id), []).append(probe)
        transitions = 0
        for pair_probes in by_pair.values():
            pair_probes.sort(key=lambda p: p.timestamp)
            states = [p.reachable for p in pair_probes]
            if True in states and False in states:
                transitions += 1
        assert transitions > 0

    def test_observations_use_bridge_anomaly(self, ext_world):
        config = BridgeCampaignConfig(seed=3, end=2 * DAY, num_bridges=2)
        probes, _ = run_bridge_campaign(ext_world, config)
        observations = bridge_observations(probes)
        assert all(o.anomaly is Anomaly.BRIDGE for o in observations)
        assert len(observations) == len(probes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BridgeCampaignConfig(end=0)
        with pytest.raises(ValueError):
            BridgeCampaignConfig(num_bridges=0)
        with pytest.raises(ValueError):
            BridgeCampaignConfig(blocker_fraction=2.0)


class TestBridgeLocalization:
    def test_identified_blockers_are_true(self, ext_world):
        result = localize_bridge_blockers(
            ext_world,
            BridgeCampaignConfig(
                seed=5, end=10 * DAY, num_bridges=5, blocker_fraction=1.0,
                mean_discovery_days=1.0,
            ),
        )
        assert result.problems_solved > 0
        for asn in result.identified:
            assert asn in result.true_blockers
        if result.identified:
            assert result.precision == 1.0
