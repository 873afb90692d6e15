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

from dataclasses import dataclass
from math import log
from typing import List, Optional, Tuple

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
# and ``rtt`` both ``None`` for a non-responsive hop ("*").  An exact tuple
# of ints, floats and ``None``: the garbage collector untracks it, and then
# the run's ``hops`` tuple, within the first collections they survive, so
# the ~400k hops of a paper-shaped campaign stay out of full collections.
TracerouteHop = Tuple[int, Optional[int], Optional[float]]


@dataclass(frozen=True)
class Traceroute:
    """One traceroute run."""

    hops: Tuple[TracerouteHop, ...]
    destination_reached: bool
    error: bool = False

    @property
    def responsive_addresses(self) -> List[int]:
        """Addresses of hops that answered, in order."""
        return [address for _, address, _ in self.hops if address is not None]

    def __len__(self) -> int:
        return len(self.hops)


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
        return Traceroute(hops=(), destination_reached=False, error=True)
    truncation_probability = params.truncation_probability
    nonresponse_probability = params.hop_nonresponse_probability
    if not (0.0 < truncation_probability < 1.0) or not (
        0.0 < nonresponse_probability < 1.0
    ):
        # Degenerate probabilities change the draw count (chance() skips
        # the draw); take the general path to keep the stream identical.
        return _simulate_traceroute_general(router_path, rng, params)
    return _run_traceroute_plan(
        _trace_plan(router_path, params, plan_cache), rng, params
    )


def _trace_plan(
    router_path: RouterPath,
    params: TracerouteParams,
    cache: Optional[dict],
) -> List[Tuple[int, Optional[int], float]]:
    """(hop_index, address, base_rtt) triples for the probe loop.

    Plans let the three runs per test unpack C-level tuples instead of
    re-reading dataclass attributes per hop.  The cache is keyed by
    identity — router paths are interned for the owning platform's
    lifetime — with the objects themselves kept in the value to make an
    id-collision after garbage collection impossible to mistake for a
    hit.
    """
    if cache is None:
        rtt_step = 2 * params.per_hop_rtt
        return [
            (hop.hop_index, hop.address, (hop.hop_index + 1) * rtt_step)
            for hop in router_path.hops
        ]
    key = (id(router_path), id(params))
    plan = cache.get(key)
    if plan is None or plan[0] is not router_path or plan[1] is not params:
        rtt_step = 2 * params.per_hop_rtt
        plan = cache[key] = (
            router_path,
            params,
            [
                (hop.hop_index, hop.address, (hop.hop_index + 1) * rtt_step)
                for hop in router_path.hops
            ],
        )
    return plan[2]


def _run_traceroute_plan(
    plan: List[Tuple[int, Optional[int], float]],
    rng: DeterministicRNG,
    params: TracerouteParams,
) -> Traceroute:
    uniform = rng.random
    truncation_probability = params.truncation_probability
    nonresponse_probability = params.hop_nonresponse_probability
    # expovariate(lambd) is -log(1 - random())/lambd; inlined with the
    # identical operation order so the value stream is bit-equal.
    jitter_rate = 2.0 / params.per_hop_rtt if params.per_hop_rtt > 0 else None
    hops: List[TracerouteHop] = []
    append = hops.append
    truncated = False
    for hop_index, address, base_rtt in plan:
        if uniform() < truncation_probability:
            truncated = True
            break
        if uniform() < nonresponse_probability:
            append((hop_index, None, None))
            continue
        if jitter_rate is not None:
            rtt = base_rtt + -log(1.0 - uniform()) / jitter_rate
        else:
            rtt = base_rtt
        append((hop_index, address, rtt))
    reached = not truncated and bool(hops) and hops[-1][1] is not None
    return Traceroute(hops=tuple(hops), destination_reached=reached)


def _simulate_traceroute_general(
    router_path: RouterPath,
    rng: DeterministicRNG,
    params: TracerouteParams,
) -> Traceroute:
    """The unspecialized per-hop loop (handles 0/1 probabilities)."""
    hops: List[TracerouteHop] = []
    truncated = False
    for hop in router_path.hops:
        if rng.chance(params.truncation_probability):
            truncated = True
            break
        if rng.chance(params.hop_nonresponse_probability):
            hops.append((hop.hop_index, None, None))
            continue
        rtt = (hop.hop_index + 1) * 2 * params.per_hop_rtt
        rtt += rng.exponential_jitter(params.per_hop_rtt / 2)
        hops.append((hop.hop_index, hop.address, rtt))
    reached = not truncated and bool(hops) and hops[-1][1] is not None
    return Traceroute(hops=tuple(hops), destination_reached=reached)


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
