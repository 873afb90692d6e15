"""TTL-limited probing over a router-level path.

A traceroute walks the :class:`~repro.netsim.path.RouterPath` hop by hop.
Every hop independently fails to answer with ``hop_nonresponse_probability``
(rate-limited ICMP, MPLS tunnels); a whole run errors out with
``error_probability`` (probe filtered, raw-socket failure); and a run may be
truncated when consecutive hops go quiet near the destination (max-TTL
exhaustion).  RTTs grow with hop distance plus exponential jitter, purely
for realism of the records.

ICLab launches three traceroutes per test; :func:`simulate_traceroute_triplet`
reproduces that, optionally letting one of the three observe the *previous*
path when the test races a route change — the main natural source of the
paper's discard rule (4), "more than one AS-level path".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import log
from typing import List, Optional, Sequence, Tuple

from repro.netsim.path import RouterPath
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class TracerouteParams:
    """Failure and timing characteristics of the prober."""

    hop_nonresponse_probability: float = 0.03
    error_probability: float = 0.01
    truncation_probability: float = 0.005  # run dies mid-path
    per_hop_rtt: float = 0.004
    racing_path_probability: float = 0.35  # one run sees the old path when
    #                                        the pair churned very recently


# One line of traceroute output: ``(index, address, rtt)``, with ``address``
# and ``rtt`` both ``None`` for a non-responsive hop ("*").  Runs are not
# stored this way: :attr:`Traceroute.hops` builds these lines on demand
# from the run's two columns.
TracerouteHop = Tuple[int, Optional[int], Optional[float]]


@dataclass(frozen=True, slots=True, init=False)
class Traceroute:
    """One traceroute run, kept as two columns.

    ``addresses[i]`` is the address hop ``i`` answered from, or ``None``
    when it stayed silent; ``rtts[i]`` is its round-trip time, with
    ``0.0`` in a silent hop's place.  A paper-shaped campaign records
    ~43k runs, and a per-hop record would make ~400k objects of them.
    Here a run is itself and its rtt array, plus an address tuple only
    when a hop stayed silent or the run was truncated: a complete run
    shares its router path's tuple (exact, of ints, so a collection
    untracks it).

    ``Traceroute(hops, destination_reached, error)`` takes the per-hop
    form; the indices must be ``0..n-1``, and a hop has an address and an
    rtt or neither.
    """

    addresses: Tuple[Optional[int], ...]
    rtts: "array[float]"
    destination_reached: bool
    error: bool

    def __init__(
        self,
        hops: Sequence[TracerouteHop],
        destination_reached: bool,
        error: bool = False,
    ) -> None:
        addresses: List[Optional[int]] = []
        rtts = array("d")
        for position, (index, address, rtt) in enumerate(hops):
            if index != position:
                raise ValueError(f"hop {position} carries index {index}")
            if (address is None) != (rtt is None):
                raise ValueError(
                    f"hop {index} has only one of address and rtt"
                )
            addresses.append(address)
            rtts.append(0.0 if rtt is None else rtt)
        _fill(self, tuple(addresses), rtts, destination_reached, error)

    def __reduce__(self):
        return (
            _traceroute,
            (self.addresses, self.rtts, self.destination_reached, self.error),
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.addresses,
                self.rtts.tobytes(),
                self.destination_reached,
                self.error,
            )
        )

    @property
    def hops(self) -> Tuple[TracerouteHop, ...]:
        """The run as ``(index, address, rtt)`` lines, built per access."""
        return tuple(
            (index, address, None if address is None else rtt)
            for index, (address, rtt) in enumerate(
                zip(self.addresses, self.rtts)
            )
        )

    def __len__(self) -> int:
        return len(self.addresses)


_new_traceroute = object.__new__
_set_addresses = Traceroute.addresses.__set__
_set_rtts = Traceroute.rtts.__set__
_set_reached = Traceroute.destination_reached.__set__
_set_error = Traceroute.error.__set__


def _fill(
    traceroute: Traceroute,
    addresses: Tuple[Optional[int], ...],
    rtts: "array[float]",
    destination_reached: bool,
    error: bool,
) -> None:
    _set_addresses(traceroute, addresses)
    _set_rtts(traceroute, rtts)
    _set_reached(traceroute, destination_reached)
    _set_error(traceroute, error)


def _traceroute(
    addresses: Tuple[Optional[int], ...],
    rtts: "array[float]",
    destination_reached: bool,
    error: bool = False,
) -> Traceroute:
    """A :class:`Traceroute` built from its columns, unchecked: the
    simulator and unpickling build runs through it."""
    traceroute = _new_traceroute(Traceroute)
    _fill(traceroute, addresses, rtts, destination_reached, error)
    return traceroute


def _finish(
    path_addresses: Tuple[int, ...],
    rtts: "array[float]",
    silent: List[int],
    truncated: bool,
) -> Traceroute:
    """The run whose ``rtts`` were probed over ``path_addresses``, with the
    hops at ``silent`` quiet.  A complete run shares the path's tuple."""
    count = len(rtts)
    if silent:
        holes: List[Optional[int]] = list(path_addresses[:count])
        for position in silent:
            holes[position] = None
        addresses: Tuple[Optional[int], ...] = tuple(holes)
    elif count == len(path_addresses):
        addresses = path_addresses
    else:
        addresses = path_addresses[:count]
    reached = not truncated and count > 0 and addresses[-1] is not None
    return _traceroute(addresses, rtts, reached)


def simulate_traceroute(
    router_path: RouterPath,
    rng: DeterministicRNG,
    params: TracerouteParams = TracerouteParams(),
    plan_cache: Optional[dict] = None,
) -> Traceroute:
    """Run one simulated traceroute over ``router_path``.

    The per-hop loop draws the same RNG stream as the naive formulation
    (one uniform per decision, one exponential per responsive hop) with
    the method lookups hoisted — this function runs three times for every
    test of a campaign.  ``plan_cache`` (a plain dict owned by the
    caller, e.g. the measurement platform) memoizes the per-path probe
    plan; without one the plan is rebuilt per run.
    """
    if rng.chance(params.error_probability):
        return _traceroute((), array("d"), False, True)
    truncation_probability = params.truncation_probability
    nonresponse_probability = params.hop_nonresponse_probability
    if not (0.0 < truncation_probability < 1.0) or not (
        0.0 < nonresponse_probability < 1.0
    ):
        # Degenerate probabilities change the draw count (chance() skips
        # the draw); take the general path to keep the stream identical.
        return _simulate_traceroute_general(router_path, rng, params)
    rows, zeros = _trace_plan(router_path, params, plan_cache)
    return _run_traceroute_plan(
        rows, zeros, router_path.addresses, rng, params
    )


_Plan = Tuple[List[Tuple[int, float]], "array[float]"]


def _trace_plan(
    router_path: RouterPath,
    params: TracerouteParams,
    cache: Optional[dict],
) -> _Plan:
    """``(position, base_rtt)`` rows for the probe loop, and a zeroed rtt
    column of the path's length that each run copies.

    Plans let the three runs per test unpack C-level tuples instead of
    re-reading dataclass attributes per hop.  The cache is keyed by
    identity — router paths are interned for the owning platform's
    lifetime — with the objects themselves kept in the value to make an
    id-collision after garbage collection impossible to mistake for a
    hit.
    """
    key = (id(router_path), id(params))
    cached = cache.get(key) if cache is not None else None
    if (
        cached is not None
        and cached[0] is router_path
        and cached[1] is params
    ):
        return cached[2]
    rtt_step = 2 * params.per_hop_rtt
    plan: _Plan = (
        [
            (position, (hop.hop_index + 1) * rtt_step)
            for position, hop in enumerate(router_path.hops)
        ],
        array("d", bytes(8 * len(router_path.hops))),
    )
    if cache is not None:
        cache[key] = (router_path, params, plan)
    return plan


def _run_traceroute_plan(
    rows: List[Tuple[int, float]],
    zeros: "array[float]",
    path_addresses: Tuple[int, ...],
    rng: DeterministicRNG,
    params: TracerouteParams,
) -> Traceroute:
    uniform = rng.random
    truncation_probability = params.truncation_probability
    nonresponse_probability = params.hop_nonresponse_probability
    # expovariate(lambd) is -log(1 - random())/lambd; inlined with the
    # identical operation order so the value stream is bit-equal.
    jitter_rate = 2.0 / params.per_hop_rtt if params.per_hop_rtt > 0 else None
    rtts = zeros[:]  # a silent hop keeps its 0.0
    silent: List[int] = []
    truncated = False
    for position, base_rtt in rows:
        if uniform() < truncation_probability:
            truncated = True
            del rtts[position:]
            break
        if uniform() < nonresponse_probability:
            silent.append(position)
            continue
        if jitter_rate is not None:
            rtts[position] = base_rtt + -log(1.0 - uniform()) / jitter_rate
        else:
            rtts[position] = base_rtt
    return _finish(path_addresses, rtts, silent, truncated)


def _simulate_traceroute_general(
    router_path: RouterPath,
    rng: DeterministicRNG,
    params: TracerouteParams,
) -> Traceroute:
    """The unspecialized per-hop loop (handles 0/1 probabilities)."""
    rtts = array("d")
    silent: List[int] = []
    truncated = False
    for position, hop in enumerate(router_path.hops):
        if rng.chance(params.truncation_probability):
            truncated = True
            break
        if rng.chance(params.hop_nonresponse_probability):
            rtts.append(0.0)
            silent.append(position)
            continue
        rtt = (hop.hop_index + 1) * 2 * params.per_hop_rtt
        rtt += rng.exponential_jitter(params.per_hop_rtt / 2)
        rtts.append(rtt)
    return _finish(router_path.addresses, rtts, silent, truncated)


def simulate_traceroute_triplet(
    router_path: RouterPath,
    rng: DeterministicRNG,
    params: TracerouteParams = TracerouteParams(),
    racing_router_path: Optional[RouterPath] = None,
    plan_cache: Optional[dict] = None,
) -> List[Traceroute]:
    """The three traceroutes ICLab records per test.

    When ``racing_router_path`` is given (the pair's previous route, because
    a route change landed very close to the test), one of the three runs
    may observe it instead of the current path.
    """
    runs: List[Traceroute] = []
    race_index = -1
    if racing_router_path is not None and rng.chance(params.racing_path_probability):
        race_index = rng.randrange(3)
    for index in range(3):
        path = racing_router_path if index == race_index else router_path
        assert path is not None
        runs.append(
            simulate_traceroute(path, rng, params, plan_cache=plan_cache)
        )
    return runs


__all__ = [
    "TracerouteParams",
    "TracerouteHop",
    "Traceroute",
    "simulate_traceroute",
    "simulate_traceroute_triplet",
]
