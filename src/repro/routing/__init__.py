"""BGP-style policy routing and network-level path churn.

This package computes AS-level paths the way BGP's economics do —
Gao-Rexford valley-free routing with customer > peer > provider preference —
and layers a deterministic churn process on top, because path churn is the
paper's substitute for strategically placed tomography monitors.

- :mod:`~repro.routing.policy` — route preference, export rules, and
  valley-free validation,
- :mod:`~repro.routing.bgp` — per-destination route computation (three-phase
  propagation), with tie-break salts and link failures as inputs,
- :mod:`~repro.routing.churn` — per-pair churn schedules and the
  :class:`~repro.routing.churn.PathOracle` that the measurement platform
  queries for "the AS path from src to dst at time t".
"""

from repro.routing.bgp import RouteComputer, RoutingTable
from repro.routing.churn import ChurnConfig, PairSchedule, PathOracle
from repro.routing.policy import route_class_sequence

__all__ = [
    "RouteComputer",
    "RoutingTable",
    "route_class_sequence",
    "ChurnConfig",
    "PairSchedule",
    "PathOracle",
]
