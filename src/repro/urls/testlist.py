"""Deterministic generation of the URL test list.

Each test URL gets a domain, a category, and a hosting AS (a content AS of
the topology).  Destination ASes are assigned round-robin with random
repetition so that several URLs share hosts — as in reality, where the 774
ICLab URLs resolve into 620 destination ASes (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.topology.asn import ASType
from repro.topology.graph import ASGraph
from repro.urls.categories import Category, CategoryDatabase
from repro.util.rng import DeterministicRNG

_WORDS_BY_CATEGORY: Dict[Category, Tuple[str, ...]] = {
    Category.NEWS: ("daily", "herald", "tribune", "wire", "gazette"),
    Category.SOCIAL: ("friendly", "connect", "circles", "chatter", "faces"),
    Category.SHOPPING: ("bazaar", "cartly", "dealhub", "shopnow", "maromart"),
    Category.CLASSIFIEDS: ("listings", "adsboard", "swapit", "fleamart", "postit"),
    Category.ADULT: ("nightly", "velvet", "afterdark", "scarlet", "boudoir"),
    Category.GAMBLING: ("betzone", "luckyspin", "pokerden", "wagerly", "dicey"),
    Category.AD_VENDOR: ("clickfeed", "adserve", "trackpix", "bannerly", "impressio"),
    Category.CIRCUMVENTION: ("tunnelup", "freegate", "proxyhop", "vpnly", "bridgely"),
    Category.POLITICS: ("opposition", "reformnow", "freepress", "civicvoice", "dissent"),
    Category.RELIGION: ("faithful", "templegate", "scripture", "pilgrims", "devout"),
    Category.STREAMING: ("streamly", "vidbox", "cineflow", "tunecast", "clipper"),
    Category.FILE_SHARING: ("torrently", "seedbox", "sharebay", "filedrop", "mirrorly"),
}

_TLDS = ("com", "net", "org", "info", "io")

# Countries hosting the bulk of commercial web infrastructure; content for
# censored regions is overwhelmingly hosted *outside* them, which is why
# censorship must happen on-path at all.
HOSTING_HUBS = ("US", "DE", "NL", "GB", "FR", "JP", "SG", "CA")
_HUB_HOST_WEIGHT = 12.0


@dataclass(frozen=True)
class TestUrl:
    """One entry of the test list."""

    url: str
    domain: str
    category: Category
    dest_asn: int
    server_address: int

    def __str__(self) -> str:
        return self.url


@dataclass
class UrlTestList:
    """The full test list plus its category database."""

    urls: List[TestUrl]
    categories: CategoryDatabase

    def __len__(self) -> int:
        return len(self.urls)

    def __iter__(self):
        return iter(self.urls)

    def __getitem__(self, index: int) -> TestUrl:
        return self.urls[index]

    @property
    def dest_asns(self) -> List[int]:
        """Distinct destination ASNs, in first-appearance order."""
        seen: Dict[int, None] = {}
        for test_url in self.urls:
            seen.setdefault(test_url.dest_asn, None)
        return list(seen)


def generate_test_list(
    graph: ASGraph,
    allocation,
    num_urls: int,
    seed: int = 0,
    category_weights: Optional[Dict[Category, float]] = None,
) -> UrlTestList:
    """Generate ``num_urls`` test URLs hosted in the topology's content ASes.

    ``allocation`` is the :class:`~repro.topology.prefixes.PrefixAllocation`
    used to assign server addresses.  Category weights default to a mild
    skew toward shopping/classifieds/news, matching the flavor of public
    test lists.
    """
    if num_urls < 1:
        raise ValueError("num_urls must be >= 1")
    host_ases = graph.registry.of_type(ASType.CONTENT)
    if not host_ases:
        host_ases = list(graph.registry)  # degenerate tiny topologies
    rng = DeterministicRNG(seed, "testlist")
    host_weights = [
        _HUB_HOST_WEIGHT if a.country.code in HOSTING_HUBS else 1.0
        for a in host_ases
    ]
    hosts = [a.asn for a in host_ases]
    weights = dict.fromkeys(Category.all(), 1.0)
    weights[Category.SHOPPING] = 2.0
    weights[Category.CLASSIFIEDS] = 1.8
    weights[Category.NEWS] = 1.5
    weights[Category.AD_VENDOR] = 1.2
    if category_weights:
        weights.update(category_weights)
    categories = CategoryDatabase()
    urls: List[TestUrl] = []
    seen_domains: set = set()
    category_list = list(weights)
    weight_list = [weights[c] for c in category_list]
    host_index = 0
    while len(urls) < num_urls:
        category = rng.pick_weighted(category_list, weight_list)
        word = rng.pick(_WORDS_BY_CATEGORY[category])
        domain = f"{word}{rng.randint(1, 999)}.{rng.pick(_TLDS)}"
        if domain in seen_domains:
            continue
        seen_domains.add(domain)
        # Reuse an existing host sometimes: several URLs per host AS, as in
        # the paper's 774 URLs resolving into 620 destination ASes.
        if rng.chance(0.3) and urls:
            dest = rng.pick(urls).dest_asn
        else:
            dest = rng.pick_weighted(hosts, host_weights)
            host_index += 1
        address = allocation.host_address(dest, index=len(urls))
        url = f"http://{domain}/"
        categories.register(domain, category)
        urls.append(
            TestUrl(
                url=url,
                domain=domain,
                category=category,
                dest_asn=dest,
                server_address=address,
            )
        )
    return UrlTestList(urls=urls, categories=categories)


__all__ = ["TestUrl", "UrlTestList", "generate_test_list"]
