"""Per-destination BGP route computation.

For a destination AS ``d``, every other AS's best route is computed with the
standard three-phase propagation that realizes Gao-Rexford policies:

1. **Customer routes** spread *upward*: ``d`` announces to its providers,
   who announce to their providers, and so on.  Every AS reached this way
   holds a customer route (it is paid to reach ``d``).
2. **Peer routes** spread *sideways, once*: ASes holding customer routes
   announce across peer links; a peer that lacks a customer route adopts.
3. **Provider routes** spread *downward*: any AS with a route announces to
   its customers, who adopt if they have nothing better; this cascades.

Within a phase, shorter AS paths win and remaining ties fall to
:func:`~repro.routing.policy.tie_break_rank`, which takes a *salt* — the
churn engine's lever for flipping decisions.  Links listed in
``down_links`` are ignored entirely (failed).

The result is a :class:`RoutingTable` mapping each source to its AS path to
``d``.  Every emitted path is valley-free by construction; tests assert it.

Route computation is one of the campaign's hot paths (churn discovery
computes thousands of tables per run), so :class:`RouteComputer`
front-loads the invariant work: adjacency is snapshotted into sorted
tuples at construction, tie-break ranks are memoized per salt (the blake2b
hash in :func:`tie_break_rank` dominates a naive compute), and finished
tables are kept in an LRU cache — evicting one cold table at a time
instead of discarding the whole working set.

Most tables the churn engine asks for fail one link of an intact table
already in cache.  Those cost O(users of the link) rather than O(ASes), in
time and in memory: only the nodes whose path crossed the failed link
re-run the three phases (see :meth:`RouteComputer._compute_failed`), and
the table keeps just their entries over a reference to the intact table.
A link's users number a handful on average, against hundreds of ASes per
table; a paper-shaped campaign's ~2,300 failed-link tables once held a
full copy each, 20 MiB together.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.routing.policy import tie_break_rank
from repro.topology.graph import ASGraph

ASPath = Tuple[int, ...]
LinkKey = Tuple[int, int]


def _link_key(a: int, b: int) -> LinkKey:
    return (a, b) if a < b else (b, a)


class RoutingTable:
    """Best AS paths from every source to one destination.

    ``paths[src]`` is the AS-level path ``(src, ..., dst)``; sources with no
    policy-compliant route (partitioned by failures) are absent.

    An intact table holds every path in ``entries``.  A single-link-failure
    table holds a reference to its intact ``base`` and, in ``entries``,
    only the paths of the failed link's users, ``None`` marking a user the
    failure partitioned: :meth:`path_from` reads those entries first, then
    the base, and :attr:`paths` builds the full mapping on each access.

    ``phase1_paths`` (the customer routes, destination included) is an
    internal byproduct recorded for intact tables only; the incremental
    failed-link recomputation seeds from it.  It carries no information
    beyond the propagation that produced the paths and is excluded from
    equality.
    """

    __slots__ = ("destination", "entries", "base", "phase1_paths")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        destination: int,
        entries: Dict[int, Optional[ASPath]],
        base: Optional["RoutingTable"] = None,
        phase1_paths: Optional[Dict[int, ASPath]] = None,
    ) -> None:
        self.destination = destination
        self.entries = entries
        self.base = base
        self.phase1_paths = phase1_paths

    @property
    def paths(self) -> Dict[int, ASPath]:
        """Every reachable source's path."""
        if self.base is None:
            return self.entries  # type: ignore[return-value]
        paths = dict(self.base.entries)
        for node in self.entries:
            del paths[node]
        for node, path in self.entries.items():
            if path is not None:
                paths[node] = path
        return paths

    def path_from(self, src: int) -> Optional[ASPath]:
        """The path from ``src``, or None if unreachable."""
        if src == self.destination:
            return (src,)
        base = self.base
        if base is not None and src not in self.entries:
            return base.entries.get(src)
        return self.entries.get(src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return (
            self.destination == other.destination
            and self.paths == other.paths
        )

    def __len__(self) -> int:
        if self.base is None:
            return len(self.entries)
        partitioned = sum(path is None for path in self.entries.values())
        return len(self.base.entries) - partitioned


@dataclass
class RouteComputerStats:
    """Counters exposed for perf reports and regression tests."""

    tables_computed: int = 0
    tables_incremental: int = 0  # failed-link tables seeded from a base
    cache_hits: int = 0
    cache_evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "tables_computed": self.tables_computed,
            "tables_incremental": self.tables_incremental,
            "cache_hits": self.cache_hits,
            "cache_evictions": self.cache_evictions,
        }

    def merge(self, counts: Dict[str, int]) -> None:
        """Add another computer's :meth:`as_dict` counts to these."""
        for name, value in counts.items():
            setattr(self, name, getattr(self, name) + value)


class RouteComputer:
    """Computes and caches routing tables over a fixed AS graph.

    ``cache_size`` bounds the table cache with LRU eviction; 0 disables
    caching entirely (every call recomputes — used by micro-benchmarks).
    """

    def __init__(self, graph: ASGraph, cache_size: int = 4096) -> None:
        self.graph = graph
        self._cache: "OrderedDict[Tuple[int, int, FrozenSet[LinkKey]], RoutingTable]" = (
            OrderedDict()
        )
        self._cache_size = cache_size
        self.stats = RouteComputerStats()
        # Adjacency snapshot: sorted tuples iterate faster than live sets
        # and give a deterministic neighbor order independent of set-hash
        # layout.  The graph is immutable for the computer's lifetime.
        self._providers: Dict[int, Tuple[int, ...]] = {}
        self._customers: Dict[int, Tuple[int, ...]] = {}
        self._peers: Dict[int, Tuple[int, ...]] = {}
        for autonomous_system in graph.registry:
            asn = autonomous_system.asn
            self._providers[asn] = tuple(sorted(graph.providers_of(asn)))
            self._customers[asn] = tuple(sorted(graph.customers_of(asn)))
            self._peers[asn] = tuple(sorted(graph.peers_of(asn)))
        # Tie-break ranks per salt, fully populated for every directed
        # adjacency on first use of a salt: {asn: {neighbor: rank}}.  Rows
        # keyed by small ints probe faster than tuple keys in the hot loop.
        self._ranks: Dict[int, Dict[int, Dict[int, int]]] = {}
        # Per-base-table link-usage index: (destination, salt) → (table,
        # {canonical link: set of nodes whose path traverses it}).  Built
        # once per intact table and shared by every single-link-failure
        # recomputation against it; the table identity check guards
        # against LRU-evicted-and-recomputed bases.  Bounded alongside
        # the table cache so it cannot pin evicted tables forever.
        self._link_users: Dict[
            Tuple[int, int], Tuple[RoutingTable, Dict[LinkKey, set]]
        ] = {}
        self._link_users_max = max(64, cache_size)
        # Per-compute scratch, allocated once and indexed by ASN (list
        # indexing beats dict probing in the propagation loops).  Entries
        # touched by a compute are reset afterwards via the discovery list.
        max_asn = max((a.asn for a in graph.registry), default=0)
        self._scratch_path: List[Optional[ASPath]] = [None] * (max_asn + 1)
        self._scratch_class: List[int] = [0] * (max_asn + 1)
        # 0 = unset, 1 = customer, 2 = peer, 3 = provider
        self._scratch_settled = bytearray(max_asn + 1)

    def routing_table(
        self,
        destination: int,
        salt: int = 0,
        down_links: Iterable[LinkKey] = (),
    ) -> RoutingTable:
        """The routing table toward ``destination`` under the given state.

        ``salt`` perturbs tie-breaks; ``down_links`` is a collection of
        canonical link keys (lower ASN first) considered failed.
        """
        down = frozenset(_link_key(*key) for key in down_links)
        cache_key = (destination, salt, down)
        cached = self._cache.get(cache_key)
        if cached is not None:
            self._cache.move_to_end(cache_key)
            self.stats.cache_hits += 1
            return cached
        table = None
        if len(down) == 1:
            # Single-link failures (the churn engine's case) recompute
            # incrementally from the intact table when it is in cache,
            # re-routing only the nodes whose path crossed the link.
            base = self._cache.get((destination, salt, frozenset()))
            if base is not None and base.phase1_paths is not None:
                table = self._compute_failed(
                    destination, salt, next(iter(down)), base
                )
        if table is None:
            table = self._compute(destination, salt, down)
        if self._cache_size > 0:
            if len(self._cache) >= self._cache_size:
                self._cache.popitem(last=False)  # evict least recently used
                self.stats.cache_evictions += 1
            self._cache[cache_key] = table
        return table

    # ------------------------------------------------------------------

    def _rank_table(self, salt: int) -> Dict[int, Dict[int, int]]:
        table = self._ranks.get(salt)
        if table is None:
            # One blake2b per directed adjacency, once per salt — the
            # propagation loops then index the rows directly.
            table = self._ranks[salt] = {}
            for adjacency in (self._providers, self._customers, self._peers):
                for asn, neighbors in adjacency.items():
                    row = table.setdefault(asn, {})
                    for neighbor in neighbors:
                        row[neighbor] = tie_break_rank(asn, neighbor, salt)
        return table

    def _compute(
        self, destination: int, salt: int, down: FrozenSet[LinkKey]
    ) -> RoutingTable:
        """Three-phase Gao-Rexford propagation.

        Two structural optimizations keep the loops tight without changing
        a single decision: (1) every relaxation depends only on path
        *length* and the deciding AS's tie-break rank toward the next hop,
        so candidate path tuples are built only when a candidate wins;
        (2) per-node state lives in ASN-indexed scratch arrays (allocated
        once per computer), with the discovery list both preserving the
        original insertion order of the result and driving the reset.
        """
        if destination not in self.graph.registry:
            raise KeyError(f"AS{destination} is not in the topology")
        self.stats.tables_computed += 1
        providers = self._providers
        customers = self._customers
        peers = self._peers
        # Every (deciding AS, next hop) pair the phases compare is a
        # directed adjacency, so the fully-populated per-salt table can be
        # indexed without a fallback.
        ranks = self._rank_table(salt)
        # Failed links, indexed by endpoint for O(1) per-edge checks.
        blocked: Dict[int, set] = {}
        for a, b in down:
            blocked.setdefault(a, set()).add(b)
            blocked.setdefault(b, set()).add(a)
        blocked_get = blocked.get

        path_of = self._scratch_path
        class_of = self._scratch_class  # 1 customer, 2 peer, 3 provider
        settled = self._scratch_settled
        discovered: List[int] = [destination]
        path_of[destination] = (destination,)
        class_of[destination] = 1

        try:
            # Phase 1 — customer routes climb provider edges.  Dijkstra on
            # (length, tie_rank) so equal-length decisions are salt-stable.
            frontier: list = [(0, 0, destination)]
            while frontier:
                length, _, asn = heappop(frontier)
                if settled[asn]:
                    continue
                settled[asn] = 1
                bad = blocked_get(asn)
                base_path = path_of[asn]
                candidate_size = len(base_path) + 1
                for provider in providers[asn]:
                    if settled[provider] or (
                        bad is not None and provider in bad
                    ):
                        continue
                    incumbent = path_of[provider]
                    if incumbent is None:
                        take = True
                        discovered.append(provider)
                    elif candidate_size != (incumbent_size := len(incumbent)):
                        take = candidate_size < incumbent_size
                    else:
                        row = ranks[provider]
                        take = row[asn] < row[incumbent[1]]
                    if take:
                        path_of[provider] = (provider,) + base_path
                        class_of[provider] = 1
                        heappush(
                            frontier,
                            (candidate_size - 1, ranks[provider][asn], provider),
                        )

            customer_holders = list(discovered)
            # Intact tables snapshot their phase-1 routes so
            # single-link-failure tables can recompute only the affected
            # nodes (see _compute_failed).
            phase1_snapshot: Optional[Dict[int, ASPath]] = (
                {asn: path_of[asn] for asn in discovered} if not down else None
            )

            # Phase 2 — one peer hop from any customer-route holder.
            peer_path: Dict[int, ASPath] = {}
            peer_path_get = peer_path.get
            for holder in customer_holders:
                holder_peers = peers[holder]
                if not holder_peers:
                    continue
                bad = blocked_get(holder)
                holder_path = path_of[holder]
                candidate_size = len(holder_path) + 1
                for peer in holder_peers:
                    if path_of[peer] is not None or (
                        bad is not None and peer in bad
                    ):
                        continue  # customer route always beats a peer route
                    incumbent = peer_path_get(peer)
                    if incumbent is None:
                        take = True
                    elif candidate_size != (incumbent_size := len(incumbent)):
                        take = candidate_size < incumbent_size
                    else:
                        row = ranks[peer]
                        take = row[holder] < row[incumbent[1]]
                    if take:
                        peer_path[peer] = (peer,) + holder_path
            for asn, path in peer_path.items():
                path_of[asn] = path
                class_of[asn] = 2
                discovered.append(asn)

            # Phase 3 — provider routes cascade down customer edges.  Stub
            # ASes (no customers) can never relax anyone; keeping them out
            # of the frontier skips the majority of a typical topology.
            frontier = [
                (len(path_of[asn]) - 1, 0, asn)
                for asn in discovered
                if customers[asn]
            ]
            heapify(frontier)
            while frontier:
                length, _, asn = heappop(frontier)
                base_path = path_of[asn]
                if len(base_path) - 1 != length:
                    continue  # stale entry
                bad = blocked_get(asn)
                candidate_size = length + 2
                for customer in customers[asn]:
                    customer_class = class_of[customer]
                    if customer_class == 1 or customer_class == 2:
                        continue  # provider route can't displace those
                    if bad is not None and customer in bad:
                        continue
                    incumbent = path_of[customer]
                    if incumbent is None:
                        take = True
                        discovered.append(customer)
                    elif candidate_size != (incumbent_size := len(incumbent)):
                        take = candidate_size < incumbent_size
                    else:
                        row = ranks[customer]
                        take = row[asn] < row[incumbent[1]]
                    if take:
                        path_of[customer] = (customer,) + base_path
                        class_of[customer] = 3
                        if customers[customer]:
                            heappush(
                                frontier,
                                (
                                    candidate_size - 1,
                                    ranks[customer][asn],
                                    customer,
                                ),
                            )

            paths: Dict[int, ASPath] = {}
            for asn in discovered:
                if asn != destination:
                    paths[asn] = path_of[asn]
        finally:
            for asn in discovered:
                path_of[asn] = None
                class_of[asn] = 0
                settled[asn] = 0
        return RoutingTable(
            destination=destination,
            entries=paths,
            phase1_paths=phase1_snapshot,
        )

    def _users_of(
        self, destination: int, salt: int, base: RoutingTable
    ) -> Dict[LinkKey, set]:
        """links → nodes whose path in ``base`` traverses the link.

        Built once per intact table (O(total path length)) and reused by
        every single-link-failure recomputation against it.
        """
        key = (destination, salt)
        cached = self._link_users.get(key)
        if cached is not None and cached[0] is base:
            return cached[1]
        if len(self._link_users) >= self._link_users_max:
            self._link_users.clear()
        index: Dict[LinkKey, set] = {}
        for node, path in base.paths.items():
            previous = path[0]
            for hop in path[1:]:
                link = (
                    (previous, hop) if previous < hop else (hop, previous)
                )
                bucket = index.get(link)
                if bucket is None:
                    bucket = index[link] = set()
                bucket.add(node)
                previous = hop
        self._link_users[key] = (base, index)
        return index

    def _compute_failed(
        self,
        destination: int,
        salt: int,
        link: LinkKey,
        base: RoutingTable,
    ) -> RoutingTable:
        """One-link-failure table in O(users of the link), from ``base``.

        Only the link's users (``_users_of``: the nodes whose base path
        crosses it) are re-routed; every other node keeps its base route.
        The table stores nothing but the users' new entries over a
        reference to ``base``, and the three phases re-run over the users
        alone, each seeded from the final routes of their neighbours:

        1. a user that held a customer route takes the best one its
           customers still offer — unaffected holders seed a Dijkstra over
           those users;
        2. a user left without one takes the best route of a peer that
           still holds a customer route;
        3. a user left without either takes the best provider route —
           providers whose route is now final seed a Dijkstra over the
           remaining users.

        A user no phase reaches is partitioned: its entry is ``None``, and
        the table has no path from it, as in the full computation.  The
        work and the memory are the users' adjacency, not the topology's.

        Keeping non-users fixed is exact unless a user loses its customer
        or peer route and falls back to a *shorter* route of a lower
        class: a customer of that user could then prefer it, but keeps
        its base route here.  The full :meth:`_compute` does re-route such
        a customer; on the paper-shaped world 4 of ~2,300 failed-link
        tables per campaign differ that way.
        ``tests/test_routing_policy.py`` pins equality with the full
        computation exhaustively on small topologies.
        """
        self.stats.tables_computed += 1
        self.stats.tables_incremental += 1
        users = self._users_of(destination, salt, base).get(link, ())
        entries: Dict[int, Optional[ASPath]] = {}
        table = RoutingTable(destination=destination, entries=entries, base=base)
        if not users:
            return table
        ranks = self._rank_table(salt)
        base_phase1 = base.phase1_paths or {}

        # Phase 1 — customer routes.  A non-user's customer route is final.
        affected1 = {node for node in users if node in base_phase1}
        phase1 = _best_routes(
            affected1,
            self._customers,
            self._providers,
            base_phase1.get,
            ranks,
            link,
        )
        entries.update(phase1)

        # Phase 2 — one peer hop from a node that holds a customer route.
        for node in users:
            if node in phase1:
                continue
            best: Optional[ASPath] = None
            row = ranks[node]
            for peer in self._peers[node]:
                holder_path = (
                    phase1.get(peer) if peer in affected1 else base_phase1.get(peer)
                )
                if holder_path is None or _link_key(node, peer) == link:
                    continue
                if best is None or _better(holder_path, best, row):
                    best = holder_path
            if best is not None:
                entries[node] = (node,) + best

        # Phase 3 — provider routes, offered by any node whose route is
        # final (every node outside the rest, and the destination itself).
        rest = {node for node in users if node not in entries}
        entries.update(
            _best_routes(
                rest, self._providers, self._customers, table.path_from,
                ranks, link,
            )
        )
        for node in rest:
            entries.setdefault(node, None)
        return table


def _better(candidate: ASPath, incumbent: ASPath, row: Dict[int, int]) -> bool:
    """Whether the route via ``candidate`` beats the route via ``incumbent``.

    Both are the next hops' paths, as seen by one deciding AS whose
    tie-break ranks are ``row``: shorter wins, then the lower-ranked next
    hop.
    """
    if len(candidate) != len(incumbent):
        return len(candidate) < len(incumbent)
    return row[candidate[0]] < row[incumbent[0]]


def _best_routes(
    nodes: set,
    learn_from: Dict[int, Tuple[int, ...]],
    export_to: Dict[int, Tuple[int, ...]],
    final: Callable[[int], Optional[ASPath]],
    ranks: Dict[int, Dict[int, int]],
    link: LinkKey,
) -> Dict[int, ASPath]:
    """Best routes for ``nodes`` within one propagation phase.

    A node learns routes from its ``learn_from`` neighbours: the ``final``
    route (a lookup, ``None`` for no route) of each neighbour outside
    ``nodes``, and the routes ``nodes``
    settle among themselves (exported along ``export_to``), never across
    the failed ``link``.  Dijkstra on (length, tie-rank), seeded with each
    node's best final offer, reaches the fixpoint the full phase reaches.
    Nodes offered nothing are absent from the result.
    """
    offers: Dict[int, ASPath] = {}  # node → its next hop's path
    frontier: list = []
    for node in nodes:
        row = ranks[node]
        chosen: Optional[ASPath] = None
        for neighbor in learn_from[node]:
            if neighbor in nodes:
                continue
            offered = final(neighbor)
            if offered is None or _link_key(node, neighbor) == link:
                continue
            if chosen is None or _better(offered, chosen, row):
                chosen = offered
        if chosen is not None:
            offers[node] = chosen
            frontier.append((len(chosen), row[chosen[0]], node))
    heapify(frontier)
    routes: Dict[int, ASPath] = {}
    while frontier:
        _, _, node = heappop(frontier)
        if node in routes:
            continue  # settled by an earlier, better entry
        path = routes[node] = (node,) + offers[node]
        for neighbor in export_to[node]:
            if (
                neighbor not in nodes
                or neighbor in routes
                or _link_key(node, neighbor) == link
            ):
                continue
            incumbent = offers.get(neighbor)
            row = ranks[neighbor]
            if incumbent is None or _better(path, incumbent, row):
                offers[neighbor] = path
                heappush(frontier, (len(path), row[node], neighbor))
    return routes


__all__ = [
    "RouteComputer",
    "RouteComputerStats",
    "RoutingTable",
    "ASPath",
    "LinkKey",
]
