"""Tests for censorship policies, censor middleboxes, and deployment."""

import pytest

from repro.anomaly import Anomaly
from repro.censorship.blockpage import (
    BLOCKPAGE_TEMPLATES,
    looks_like_blockpage,
    render_blockpage,
)
from repro.censorship.censor import CensorMiddlebox, Technique
from repro.censorship.deployment import (
    ALL_TECHNIQUES,
    CountryCensorshipProfile,
    DeploymentConfig,
    default_profiles,
    deploy_censors,
)
from repro.censorship.policy import CensorshipPolicy, PolicyEpoch, random_policy
from repro.netsim.middlebox import SessionContext, TcpActionKind
from repro.netsim.path import RouterHop, RouterPath
from repro.topology.asn import ASType
from repro.topology.generator import TopologyConfig, generate_topology
from repro.urls.categories import Category, CategoryDatabase
from repro.util.rng import DeterministicRNG
from repro.util.timeutil import DAY, YEAR


def make_categories():
    db = CategoryDatabase()
    db.register("shop.com", Category.SHOPPING)
    db.register("news.com", Category.NEWS)
    return db


def make_censor(techniques=(Technique.RST_INJECT,), scoped=False, coverage=1.0,
                fire=1.0, blocked=(Category.SHOPPING,)):
    policy = CensorshipPolicy.constant(list(blocked), 0, YEAR)
    return CensorMiddlebox(
        asn=100,
        country_code="CN",
        policy=policy,
        techniques=techniques,
        scoped=scoped,
        categories=make_categories(),
        country_by_asn={1: "CN", 2: "US", 100: "CN"},
        fire_probability=fire,
        domain_coverage=coverage,
    )


def make_context(domain="shop.com", client_asn=1, timestamp=0):
    hops = tuple(
        RouterHop(asn=asn, address=0x20000000 + i, hop_index=i)
        for i, asn in enumerate((1, 100, 2))
    )
    return SessionContext(
        domain=domain,
        url=f"http://{domain}/",
        client_asn=client_asn,
        server_asn=2,
        router_path=RouterPath(as_path=(1, 100, 2), hops=hops),
        hop_index=1,
        timestamp=timestamp,
        rng=DeterministicRNG(0, "ctx"),
    )


class TestPolicy:
    def test_constant_policy(self):
        policy = CensorshipPolicy.constant([Category.NEWS], 0, YEAR)
        assert policy.blocks(Category.NEWS, 0)
        assert policy.blocks(Category.NEWS, YEAR - 1)
        assert not policy.blocks(Category.ADULT, 0)

    def test_none_category_never_blocked(self):
        policy = CensorshipPolicy.constant([Category.NEWS], 0, YEAR)
        assert not policy.blocks(None, 0)

    def test_epochs_must_tile(self):
        with pytest.raises(ValueError):
            CensorshipPolicy(
                [
                    PolicyEpoch(0, 10, frozenset()),
                    PolicyEpoch(20, 30, frozenset()),
                ]
            )

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            CensorshipPolicy([])

    def test_timestamps_clamped(self):
        policy = CensorshipPolicy.constant([Category.NEWS], 10, 20)
        assert policy.blocks(Category.NEWS, 5)
        assert policy.blocks(Category.NEWS, 25)

    def test_random_policy_deterministic(self):
        a = random_policy([Category.NEWS], 0, YEAR, DeterministicRNG(1, "p"))
        b = random_policy([Category.NEWS], 0, YEAR, DeterministicRNG(1, "p"))
        assert [e.blocked for e in a.epochs] == [e.blocked for e in b.epochs]

    def test_random_policy_changes(self):
        policy = random_policy(
            [Category.NEWS], 0, YEAR, DeterministicRNG(2, "p"),
            change_rate_per_year=50.0,
        )
        assert policy.changes > 5

    def test_zero_change_rate_constant(self):
        policy = random_policy(
            [Category.NEWS], 0, YEAR, DeterministicRNG(3, "p"),
            change_rate_per_year=0.0,
        )
        assert policy.changes == 0


class TestBlockpages:
    def test_render_inserts_domain_and_asn(self):
        html = render_blockpage("gov-filter", "x.com", 64500)
        assert "x.com" in html and "64500" in html

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            render_blockpage("nope", "x.com", 1)

    def test_all_templates_fingerprinted(self):
        for key in BLOCKPAGE_TEMPLATES:
            assert looks_like_blockpage(render_blockpage(key, "x.com", 1)), key

    def test_ordinary_page_not_fingerprinted(self):
        assert not looks_like_blockpage("<html>welcome to my homepage</html>")


class TestTechnique:
    def test_anomaly_signatures(self):
        assert Technique.DNS_INJECT.anomalies() == {Anomaly.DNS}
        assert Technique.RST_INJECT.anomalies() == {Anomaly.RST, Anomaly.TTL}
        assert Technique.BLOCKPAGE_PROXY.anomalies() == {Anomaly.BLOCK}
        assert Technique.THROTTLE.anomalies() == frozenset()

    def test_mimic_removes_ttl(self):
        assert Anomaly.TTL not in Technique.RST_INJECT.anomalies(mimics_ttl=True)
        assert Anomaly.RST in Technique.RST_INJECT.anomalies(mimics_ttl=True)

    def test_is_tcp(self):
        assert not Technique.DNS_INJECT.is_tcp
        assert Technique.RST_INJECT.is_tcp


class TestCensorMiddlebox:
    def test_technique_for_is_stable(self):
        censor = make_censor(techniques=(Technique.RST_INJECT, Technique.SEQ_TAMPER))
        assert censor.technique_for("shop.com") == censor.technique_for("shop.com")

    def test_targets_respects_category(self):
        censor = make_censor()
        assert censor.targets("shop.com", 1, 0)
        assert not censor.targets("news.com", 1, 0)

    def test_targets_respects_scope(self):
        censor = make_censor(scoped=True)
        assert censor.targets("shop.com", 1, 0)       # domestic client
        assert not censor.targets("shop.com", 2, 0)   # foreign client

    def test_targets_respects_coverage(self):
        covered = make_censor(coverage=1.0)
        assert covered.targets("shop.com", 1, 0)
        uncovered_exists = any(
            not make_censor(coverage=0.01).covers_domain(f"d{i}.com")
            for i in range(50)
        )
        assert uncovered_exists

    def test_unknown_domain_not_targeted(self):
        censor = make_censor()
        assert not censor.targets("unknown.com", 1, 0)

    def test_dns_injection_only_for_dns_technique(self):
        dns_censor = make_censor(techniques=(Technique.DNS_INJECT,))
        rst_censor = make_censor(techniques=(Technique.RST_INJECT,))
        assert dns_censor.on_dns_query(make_context()) is not None
        assert rst_censor.on_dns_query(make_context()) is None

    def test_tcp_action_matches_technique(self):
        censor = make_censor(techniques=(Technique.BLOCKPAGE_PROXY,))
        action = censor.on_tcp_session(make_context())
        assert action is not None
        assert action.kind is TcpActionKind.BLOCKPAGE_PROXY
        assert action.blockpage_html

    def test_no_action_for_unblocked_domain(self):
        censor = make_censor()
        assert censor.on_tcp_session(make_context(domain="news.com")) is None

    def test_fire_probability_zero_never_acts(self):
        censor = make_censor(fire=0.0)
        assert censor.on_tcp_session(make_context()) is None

    def test_expected_anomalies_subset_of_union(self):
        censor = make_censor(
            techniques=(Technique.RST_INJECT, Technique.BLOCKPAGE_INJECT)
        )
        union = frozenset().union(
            *(technique.anomalies() for technique in censor.techniques)
        )
        assert censor.expected_anomalies("shop.com") <= union

    def test_requires_techniques(self):
        with pytest.raises(ValueError):
            make_censor(techniques=())

    def test_domain_coverage_validated(self):
        with pytest.raises(ValueError):
            make_censor(coverage=0.0)


class TestDeployment:
    GRAPH = generate_topology(
        TopologyConfig(
            seed=6,
            country_codes=("US", "DE", "CN", "IR", "JP"),
            num_tier1=3,
            edge_density=3.0,
        )
    )

    def deploy(self, countries=("CN", "IR"), all_tech=("CN",)):
        categories = make_categories()
        profiles = default_profiles(countries, all_tech, seed=1)
        config = DeploymentConfig(profiles=profiles, start=0, end=30 * DAY, seed=1)
        return deploy_censors(self.GRAPH, categories, config)

    def test_censors_in_requested_countries_only(self):
        deployment = self.deploy()
        assert deployment.censoring_countries <= {"CN", "IR"}

    def test_censors_not_in_tier1(self):
        deployment = self.deploy()
        for asn in deployment.censor_asns:
            assert self.GRAPH.registry[asn].as_type is not ASType.TIER1

    def test_scoped_censors_are_access_only(self):
        deployment = self.deploy()
        for censor in deployment.censors_by_asn.values():
            if censor.scoped:
                assert self.GRAPH.registry[censor.asn].as_type is ASType.ACCESS

    def test_all_technique_country_gets_all_techniques(self):
        deployment = self.deploy()
        cn_censors = [
            c for c in deployment.censors_by_asn.values() if c.country_code == "CN"
        ]
        assert cn_censors
        for censor in cn_censors:
            assert set(censor.techniques) == set(ALL_TECHNIQUES)

    def test_deterministic(self):
        a = self.deploy()
        b = self.deploy()
        assert sorted(a.censor_asns) == sorted(b.censor_asns)

    def test_can_cause_rejects_non_censor(self):
        deployment = self.deploy()
        assert not deployment.can_cause(999999, Anomaly.DNS, "shop.com")

    def test_duplicate_profiles_rejected(self):
        profiles = default_profiles(("CN",), seed=0) * 2
        with pytest.raises(ValueError):
            DeploymentConfig(profiles=profiles, start=0, end=10)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            CountryCensorshipProfile(country_code="CN", num_censors=0)
        with pytest.raises(ValueError):
            CountryCensorshipProfile(country_code="CN", techniques=())
        with pytest.raises(ValueError):
            CountryCensorshipProfile(country_code="CN", blocked_categories=())
