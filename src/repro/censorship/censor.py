"""The censor middlebox: techniques and their packet-level signatures.

Every censor is an on-path middlebox with a category policy and one or more
*techniques*.  Technique assignment is deterministic per (censor, domain):
a censor always treats a given domain the same way, like real deployments
driven by per-URL filter rules.  The same determinism governs whether the
censor mimics server TTLs and whether it tears down the server side, so a
censor's observable behaviour for a domain is stable — inconsistency enters
only through the (rare) per-session failure to fire, which is exactly the
measurement noise the paper blames for unsolvable CNFs.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.censorship.blockpage import render_blockpage
from repro.censorship.policy import CensorshipPolicy
from repro.netsim.middlebox import (
    DnsInjectAction,
    DnsInjection,
    Middlebox,
    SeqTamperMode,
    SessionContext,
    TcpAction,
    TcpActionKind,
)
from repro.urls.categories import CategoryDatabase
from repro.util.rng import DeterministicRNG, derive_seed


class Technique(enum.Enum):
    """Censorship techniques and the anomalies they can produce."""

    DNS_INJECT = "dns-inject"
    RST_INJECT = "rst-inject"
    SEQ_TAMPER = "seq-tamper"
    BLOCKPAGE_INJECT = "blockpage-inject"
    BLOCKPAGE_PROXY = "blockpage-proxy"
    THROTTLE = "throttle"

    def anomalies(self, mimics_ttl: bool = False) -> FrozenSet[Anomaly]:
        """Anomaly types this technique can trigger at the client.

        ``mimics_ttl`` removes the TTL signature (crafted TTLs defeat the
        TTL detector).  Throttling is invisible to ICLab's five detectors —
        the paper lists throttling detection as future work.
        """
        base: FrozenSet[Anomaly]
        if self is Technique.DNS_INJECT:
            base = frozenset({Anomaly.DNS})
        elif self is Technique.RST_INJECT:
            base = frozenset({Anomaly.RST, Anomaly.TTL})
        elif self is Technique.SEQ_TAMPER:
            base = frozenset({Anomaly.SEQ, Anomaly.TTL})
        elif self is Technique.BLOCKPAGE_INJECT:
            base = frozenset({Anomaly.BLOCK, Anomaly.TTL, Anomaly.RST, Anomaly.SEQ})
        elif self is Technique.BLOCKPAGE_PROXY:
            base = frozenset({Anomaly.BLOCK})
        else:
            base = frozenset()
        if mimics_ttl:
            base = base - {Anomaly.TTL}
        return base

    @property
    def is_tcp(self) -> bool:
        """Whether the technique acts on TCP/HTTP sessions."""
        return self not in (Technique.DNS_INJECT,)


_SINKHOLE_ADDRESS = 0x0A000001  # 10.0.0.1 — classic injected sinkhole


class _DomainDecisions(NamedTuple):
    """A censor's technique-independent decisions for one domain."""

    mimics_ttl: bool
    suppresses_server: bool
    covered: bool
    seq_mode: SeqTamperMode


class CensorMiddlebox(Middlebox):
    """An AS-resident censor.

    Parameters
    ----------
    asn, country_code:
        Identity and jurisdiction.
    policy:
        Time-varying category blocklist.
    techniques:
        The techniques this censor deploys; each blocked domain is pinned
        to one of them deterministically.
    scoped:
        Scoped censors act only on traffic whose *client* is in their own
        country (ACL deployments); unscoped censors act on everything that
        transits them — the source of censorship leakage.
    categories:
        The category database used to classify observed domains.
    country_by_asn:
        Country codes of all ASes (for the scope check).
    fire_probability:
        Per-session probability that a matching censor actually acts;
        slightly below one, modelling overloaded DPI boxes.
    mimic_ttl_fraction / suppress_fraction:
        Fractions of domains for which injected packets mimic server TTLs /
        the censor also resets the server side.
    """

    def __init__(
        self,
        asn: int,
        country_code: str,
        policy: CensorshipPolicy,
        techniques: Sequence[Technique],
        scoped: bool,
        categories: CategoryDatabase,
        country_by_asn: Dict[int, str],
        seed: int = 0,
        fire_probability: float = 0.995,
        mimic_ttl_fraction: float = 0.15,
        suppress_fraction: float = 0.5,
        domain_coverage: float = 0.6,
        blockpage_template: str = "gov-filter",
    ) -> None:
        super().__init__(asn)
        if not techniques:
            raise ValueError("censor needs at least one technique")
        self.country_code = country_code
        self.policy = policy
        self.techniques = techniques
        self.scoped = scoped
        self.categories = categories
        self.country_by_asn = country_by_asn
        self.seed = derive_seed(seed, "censor", asn)
        self.fire_probability = fire_probability
        self.mimic_ttl_fraction = mimic_ttl_fraction
        self.suppress_fraction = suppress_fraction
        if not (0.0 < domain_coverage <= 1.0):
            raise ValueError("domain_coverage must be in (0, 1]")
        self.domain_coverage = domain_coverage
        self.blockpage_template = blockpage_template
        self._decisions_of: Dict[str, _DomainDecisions] = {}

    # -- deterministic per-domain behaviour --------------------------------
    #
    # Every per-domain decision is drawn from a fresh RNG seeded by
    # (censor seed, domain), so it is a fixed function of the pair.  Each
    # one is drawn on first use and memoized: a campaign asks the same
    # (censor, domain) questions thousands of times over a few hundred
    # distinct pairs.  The technique also depends on ``techniques``, so
    # assigning that attribute (as ``extensions.throttling`` does) drops
    # the technique memo.  The other decisions depend only on the seed and
    # the fractions, which are fixed at construction.

    @property
    def techniques(self) -> Tuple[Technique, ...]:
        """The techniques this censor deploys, duplicates removed."""
        return self._techniques

    @techniques.setter
    def techniques(self, techniques: Sequence[Technique]) -> None:
        self._techniques = tuple(dict.fromkeys(techniques))
        self._technique_of: Dict[str, Technique] = {}

    def _domain_rng(self, domain: str) -> DeterministicRNG:
        return DeterministicRNG(self.seed, "domain", domain)

    def _chance_after(self, domain: str, burn: int, probability: float) -> bool:
        """A fresh domain RNG's ``chance`` after ``burn`` decorrelating draws."""
        rng = self._domain_rng(domain)
        for _ in range(burn):
            rng.random()
        return rng.chance(probability)

    def _decisions(self, domain: str) -> _DomainDecisions:
        decisions = self._decisions_of.get(domain)
        if decisions is None:
            decisions = self._decisions_of[domain] = _DomainDecisions(
                mimics_ttl=self._chance_after(domain, 1, self.mimic_ttl_fraction),
                suppresses_server=self._chance_after(
                    domain, 2, self.suppress_fraction
                ),
                covered=self._chance_after(domain, 3, self.domain_coverage),
                seq_mode=(
                    SeqTamperMode.OVERLAP
                    if self._domain_rng(domain).randrange(2) == 0
                    else SeqTamperMode.GAP
                ),
            )
        return decisions

    def technique_for(self, domain: str) -> Technique:
        """The technique this censor applies to ``domain`` (stable)."""
        technique = self._technique_of.get(domain)
        if technique is None:
            technique = self._technique_of[domain] = self._domain_rng(
                domain
            ).pick(list(self.techniques))
        return technique

    def mimics_ttl_for(self, domain: str) -> bool:
        """Whether injections for ``domain`` mimic the server TTL (stable)."""
        return self._decisions(domain).mimics_ttl

    def suppresses_server_for(self, domain: str) -> bool:
        """Whether the censor also resets the server side (stable)."""
        return self._decisions(domain).suppresses_server

    # -- targeting ----------------------------------------------------------

    def covers_domain(self, domain: str) -> bool:
        """Whether ``domain`` is on this censor's blocklist at all (stable).

        Real per-URL blocklists never cover a whole category; each domain
        of a blocked category is on the list with ``domain_coverage``
        probability, decided once per (censor, domain).
        """
        return self._decisions(domain).covered

    def targets(self, domain: str, client_asn: int, timestamp: int) -> bool:
        """Whether this censor would act on ``domain`` for this client now."""
        if self.scoped and self.country_by_asn.get(client_asn) != self.country_code:
            return False
        if not self.covers_domain(domain):
            return False
        category = self.categories.categorize(domain)
        return self.policy.blocks(category, timestamp)

    def expected_anomalies(self, domain: str) -> FrozenSet[Anomaly]:
        """Ground truth: anomalies this censor can cause for ``domain``."""
        technique = self.technique_for(domain)
        return technique.anomalies(mimics_ttl=self.mimics_ttl_for(domain))

    # -- middlebox interface -------------------------------------------------

    def on_dns_query(self, context: SessionContext) -> Optional[DnsInjection]:
        if not self.targets(context.domain, context.client_asn, context.timestamp):
            return None
        if self.technique_for(context.domain) is not Technique.DNS_INJECT:
            return None
        if not context.rng.chance(self.fire_probability):
            return None
        return DnsInjection(
            kind=DnsInjectAction.BOGUS_ADDRESS,
            forged_address=_SINKHOLE_ADDRESS,
            injector_asn=self.asn,
        )

    def on_tcp_session(self, context: SessionContext) -> Optional[TcpAction]:
        if not self.targets(context.domain, context.client_asn, context.timestamp):
            return None
        technique = self.technique_for(context.domain)
        if not technique.is_tcp:
            return None
        if not context.rng.chance(self.fire_probability):
            return None
        mimic = self.mimics_ttl_for(context.domain)
        suppress = self.suppresses_server_for(context.domain)
        if technique is Technique.RST_INJECT:
            return TcpAction(
                kind=TcpActionKind.RST_INJECT,
                injector_asn=self.asn,
                mimic_server_ttl=mimic,
                suppress_server=suppress,
            )
        if technique is Technique.SEQ_TAMPER:
            return TcpAction(
                kind=TcpActionKind.SEQ_TAMPER,
                injector_asn=self.asn,
                mimic_server_ttl=mimic,
                seq_mode=self._decisions(context.domain).seq_mode,
            )
        if technique is Technique.BLOCKPAGE_INJECT:
            return TcpAction(
                kind=TcpActionKind.BLOCKPAGE_INJECT,
                injector_asn=self.asn,
                mimic_server_ttl=mimic,
                suppress_server=suppress,
                blockpage_html=render_blockpage(
                    self.blockpage_template, context.domain, self.asn
                ),
            )
        if technique is Technique.BLOCKPAGE_PROXY:
            return TcpAction(
                kind=TcpActionKind.BLOCKPAGE_PROXY,
                injector_asn=self.asn,
                blockpage_html=render_blockpage(
                    self.blockpage_template, context.domain, self.asn
                ),
            )
        if technique is Technique.THROTTLE:
            return TcpAction(
                kind=TcpActionKind.THROTTLE,
                injector_asn=self.asn,
                throttle_factor=0.25,
            )
        return None


__all__ = ["Technique", "CensorMiddlebox"]
