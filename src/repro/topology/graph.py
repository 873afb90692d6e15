"""The AS-level graph with business relationships.

Links carry Gao-Rexford relationships: ``CUSTOMER`` (the link's ``low`` AS
buys transit from ``high``) or ``PEER`` (settlement-free).  The routing
layer uses these to compute valley-free policy paths; the churn engine
toggles link availability over simulated time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.topology.asn import ASRegistry


class Relationship(enum.Enum):
    """Business relationship of a link, from the customer's perspective."""

    CUSTOMER = "customer-provider"  # low buys transit from high
    PEER = "peer-peer"


@dataclass(frozen=True)
class ASLink:
    """An undirected inter-AS link with a business relationship.

    For ``CUSTOMER`` links, ``customer`` buys transit from ``provider``.
    For ``PEER`` links the two ends are symmetric; by convention the lower
    ASN is stored first so that each peer pair has one canonical link.
    """

    customer: int
    provider: int
    relationship: Relationship

    def __post_init__(self) -> None:
        if self.customer == self.provider:
            raise ValueError(f"self-loop on AS{self.customer}")
        if self.relationship is Relationship.PEER and self.customer > self.provider:
            raise ValueError("peer links must store the lower ASN first")

    @property
    def ends(self) -> Tuple[int, int]:
        """Both endpoints (customer/low first)."""
        return (self.customer, self.provider)

    def other(self, asn: int) -> int:
        """The endpoint that is not ``asn``."""
        if asn == self.customer:
            return self.provider
        if asn == self.provider:
            return self.customer
        raise ValueError(f"AS{asn} is not an endpoint of {self}")

    def key(self) -> Tuple[int, int]:
        """Canonical unordered key for the link."""
        a, b = self.ends
        return (a, b) if a < b else (b, a)


def peer_link(a: int, b: int) -> ASLink:
    """A peer link between two ASNs, normalizing the order."""
    low, high = (a, b) if a < b else (b, a)
    return ASLink(low, high, Relationship.PEER)


def transit_link(customer: int, provider: int) -> ASLink:
    """A customer-provider link."""
    return ASLink(customer, provider, Relationship.CUSTOMER)


class ASGraph:
    """The AS graph: a registry of ASes plus relationship-labelled links.

    Neighbor queries are precomputed into three adjacency maps —
    providers, customers, and peers of each AS — which is what the
    valley-free route computation consumes.
    """

    def __init__(
        self, registry: ASRegistry, links: Iterable[ASLink] = ()
    ) -> None:
        self.registry = registry
        self._links: Dict[Tuple[int, int], ASLink] = {}
        self._providers: Dict[int, Set[int]] = {a.asn: set() for a in registry}
        self._customers: Dict[int, Set[int]] = {a.asn: set() for a in registry}
        self._peers: Dict[int, Set[int]] = {a.asn: set() for a in registry}
        for link in links:
            self.add_link(link)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_link(self, link: ASLink) -> None:
        """Add a link; both endpoints must be registered and unlinked."""
        for asn in link.ends:
            if asn not in self.registry:
                raise KeyError(f"AS{asn} is not registered")
        key = link.key()
        if key in self._links:
            raise ValueError(f"duplicate link between AS{key[0]} and AS{key[1]}")
        self._links[key] = link
        if link.relationship is Relationship.CUSTOMER:
            self._providers[link.customer].add(link.provider)
            self._customers[link.provider].add(link.customer)
        else:
            self._peers[link.customer].add(link.provider)
            self._peers[link.provider].add(link.customer)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.registry)

    @property
    def num_links(self) -> int:
        """Number of links in the graph."""
        return len(self._links)

    def links(self) -> Iterator[ASLink]:
        """Iterate over all links."""
        return iter(self._links.values())

    def providers_of(self, asn: int) -> Set[int]:
        """ASNs this AS buys transit from."""
        return self._providers[asn]

    def customers_of(self, asn: int) -> Set[int]:
        """ASNs buying transit from this AS."""
        return self._customers[asn]

    def peers_of(self, asn: int) -> Set[int]:
        """Settlement-free peers of this AS."""
        return self._peers[asn]

    def neighbors_of(self, asn: int) -> Set[int]:
        """All neighbors regardless of relationship."""
        return self._providers[asn] | self._customers[asn] | self._peers[asn]

    def degree(self, asn: int) -> int:
        """Total number of neighbors."""
        return len(self.neighbors_of(asn))

    def country_of(self, asn: int) -> str:
        """Country code of ``asn``."""
        return self.registry.country_of(asn)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def customer_cone(self, asn: int) -> Set[int]:
        """The AS itself plus everything reachable via customer links only.

        The size of the customer cone is CAIDA's primary signal for
        classifying transit networks.
        """
        cone: Set[int] = set()
        stack = [asn]
        while stack:
            node = stack.pop()
            if node in cone:
                continue
            cone.add(node)
            stack.extend(self._customers[node] - cone)
        return cone

    def connected_component(self, asn: int) -> Set[int]:
        """All ASes reachable from ``asn`` ignoring relationships."""
        component: Set[int] = set()
        stack = [asn]
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(self.neighbors_of(node) - component)
        return component

    def validate(self) -> List[str]:
        """Sanity-check structural invariants; returns human-readable issues.

        Checks that the provider hierarchy is acyclic (no AS transitively
        provides transit to itself) and that the graph is connected.
        """
        issues: List[str] = []
        # Cycle detection over customer->provider edges.
        state: Dict[int, int] = {}  # 0=visiting, 1=done

        def visit(node: int) -> bool:
            stack: List[Tuple[int, Iterator[int]]] = [(node, iter(self._providers[node]))]
            state[node] = 0
            while stack:
                current, iterator = stack[-1]
                advanced = False
                for nxt in iterator:
                    if state.get(nxt) == 0:
                        return False
                    if nxt not in state:
                        state[nxt] = 0
                        stack.append((nxt, iter(self._providers[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[current] = 1
                    stack.pop()
            return True

        for asn in self.registry.asns:
            if asn not in state and not visit(asn):
                issues.append("customer-provider hierarchy contains a cycle")
                break
        asns = self.registry.asns
        if asns:
            component = self.connected_component(asns[0])
            if len(component) != len(asns):
                issues.append(
                    f"graph is disconnected: component of AS{asns[0]} has "
                    f"{len(component)} of {len(asns)} ASes"
                )
        return issues


__all__ = ["ASGraph", "ASLink", "Relationship", "peer_link", "transit_link"]
