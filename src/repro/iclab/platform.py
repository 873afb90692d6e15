"""The measurement platform: scheduling and executing tests.

The platform drives the whole data-plane simulation: for every simulated
day it picks, per URL, a Poisson-distributed number of vantage points; each
chosen vantage point runs one *test* — a DNS lookup, an HTTP fetch, and
three traceroutes — and the five detectors turn the captures into the
anomaly booleans of a :class:`~repro.iclab.measurement.Measurement`.

The per-URL-per-day test intensity is the dataset's main size knob: the
paper's 4.9M measurements over a year across 774 URLs average out to
roughly 17 tests per URL per day, which the paper-shaped preset mirrors at
reduced scale.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.censorship.deployment import CensorDeployment
from repro.iclab.dataset import Dataset
from repro.iclab.detectors import DetectorConfig, run_detectors
from repro.iclab.measurement import Measurement
from repro.iclab.vantage import VantagePoint
from repro.netsim.middlebox import OnPathMiddlebox
from repro.netsim.packets import HttpResponse
from repro.netsim.path import RouterPath, expand_as_path
from repro.netsim.session import (
    SessionParams,
    simulate_dns_lookup,
    simulate_http_fetch,
)
from repro.routing.churn import PathOracle
from repro.topology.prefixes import PrefixAllocation
from repro.traceroute.simulate import TracerouteParams, simulate_traceroute_triplet
from repro.urls.testlist import TestUrl, UrlTestList
from repro.util.ipv4 import parse_ipv4
from repro.util.profiling import StageTimer
from repro.util.rng import DeterministicRNG, derive_seed
from repro.util.timeutil import DAY

_GOOGLE_DNS = parse_ipv4("8.8.8.8")
_RACING_WINDOW = 600  # seconds: a route change this close may race the test
# Ground truth of every test no injector fired in: one shared empty set.
_NO_INJECTORS: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class PlatformConfig:
    """Campaign parameters and noise knobs."""

    seed: int = 0
    start: int = 0
    end: int = 30 * DAY
    tests_per_url_per_day: float = 4.0
    schedule: str = "poisson"  # "poisson": per-URL Poisson over vantage
    #                            points; "sweep": every vantage point tests
    #                            every URL sweeps_per_pair_per_day times a
    #                            day (ICLab's continuous-monitoring mode,
    #                            needed to *observe* intra-day path churn)
    sweeps_per_pair_per_day: float = 2.0
    # Noise floor calibrated against the paper's Table 1: total anomaly
    # fractions per type are a few tenths of a percent, and a sizeable
    # share of RESET anomalies is organic (that share is what makes ~30%
    # of RST CNFs unsolvable).
    session: SessionParams = SessionParams(
        organic_rst_probability=0.0025,
        ttl_jitter_probability=0.001,
        segment_loss_probability=0.0005,
        duplicate_dns_probability=0.0005,
    )
    traceroute: TracerouteParams = TracerouteParams()
    detector: DetectorConfig = DetectorConfig()
    run_dns_tests: bool = True

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("empty campaign window")
        if self.tests_per_url_per_day <= 0:
            raise ValueError("tests_per_url_per_day must be positive")
        if self.schedule not in ("poisson", "sweep"):
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        if self.sweeps_per_pair_per_day <= 0:
            raise ValueError("sweeps_per_pair_per_day must be positive")


class ICLabPlatform:
    """Wires vantage points, routing, censors, and detectors together."""

    def __init__(
        self,
        oracle: PathOracle,
        allocation: PrefixAllocation,
        test_list: UrlTestList,
        deployment: CensorDeployment,
        vantage_points: Sequence[VantagePoint],
        config: PlatformConfig,
    ) -> None:
        if not vantage_points:
            raise ValueError("need at least one vantage point")
        self.oracle = oracle
        self.allocation = allocation
        self.test_list = test_list
        self.deployment = deployment
        self.vantage_points = list(vantage_points)
        self.config = config
        self.timer: Optional[StageTimer] = None
        self._listeners: List[Callable[[Measurement], None]] = []
        self._pages: Dict[str, HttpResponse] = {}
        self._router_paths: Dict[Tuple[int, ...], RouterPath] = {}
        self._middleboxes: Dict[Tuple[int, ...], List[OnPathMiddlebox]] = {}
        self._trace_plans: Dict = {}  # probe plans, scoped to this platform
        self._next_id = 0
        # One Random instance reseeded per test: seeding fully resets the
        # generator state, so the draw streams are identical to fresh
        # construction at a fraction of the allocation cost.
        self._test_rng = DeterministicRNG(0)

    # -- event emission ------------------------------------------------------

    def add_listener(self, listener: Callable[[Measurement], None]) -> None:
        """Subscribe to measurements as the campaign produces them.

        Listeners fire synchronously from :meth:`run_campaign`, right
        after each measurement lands in the dataset — the drip-feed hook
        the streaming engine (:mod:`repro.stream`) attaches to, so online
        consumers see the exact sequence batch consumers read back.
        """
        self._listeners.append(listener)

    def remove_listener(
        self, listener: Callable[[Measurement], None]
    ) -> None:
        """Unsubscribe a previously added listener."""
        self._listeners.remove(listener)

    # -- content -------------------------------------------------------------

    def server_page(self, test_url: TestUrl) -> HttpResponse:
        """The genuine page served for a URL (deterministic per URL)."""
        page = self._pages.get(test_url.url)
        if page is None:
            rng = DeterministicRNG(self.config.seed, "page", test_url.domain)
            paragraphs = rng.randint(8, 40)
            body = f"<html><head><title>{test_url.domain}</title></head><body>"
            body += "".join(
                f"<p>Section {i}: genuine content of {test_url.domain} "
                f"{'lorem ipsum ' * rng.randint(5, 20)}</p>"
                for i in range(paragraphs)
            )
            body += "</body></html>"
            page = HttpResponse(status=200, body=body)
            self._pages[test_url.url] = page
        return page

    # -- routing helpers ------------------------------------------------------

    def _router_path(self, as_path: Tuple[int, ...]) -> RouterPath:
        router_path = self._router_paths.get(as_path)
        if router_path is None:
            router_path = expand_as_path(
                as_path, self.allocation, seed=self.config.seed
            )
            self._router_paths[as_path] = router_path
        return router_path

    def _middleboxes_on(self, router_path: RouterPath) -> List[OnPathMiddlebox]:
        # The censor deployment is static for the platform's lifetime, so
        # the on-path middlebox list is a pure function of the AS path and
        # is cached alongside the expanded router path.
        cached = self._middleboxes.get(router_path.as_path)
        if cached is not None:
            return cached
        out: List[OnPathMiddlebox] = []
        for asn in router_path.as_path:
            censor = self.deployment.censor_of(asn)
            if censor is not None:
                out.append((censor, router_path.hops_to_asn(asn) - 1))
        self._middleboxes[router_path.as_path] = out
        return out

    # -- running tests -------------------------------------------------------

    def run_test(
        self, vantage: VantagePoint, test_url: TestUrl, timestamp: int
    ) -> Optional[Measurement]:
        """Execute one test; None when the pair is unroutable."""
        as_path = self.oracle.aspath_at(vantage.asn, test_url.dest_asn, timestamp)
        if as_path is None or len(as_path) < 1:
            return None
        router_path = self._router_path(tuple(as_path))
        middleboxes = self._middleboxes_on(router_path)
        rng = self._test_rng
        rng.seed(
            derive_seed(
                self.config.seed, "test", vantage.asn, test_url.domain, timestamp
            )
        )

        dns_result = None
        if self.config.run_dns_tests:
            dns_result = simulate_dns_lookup(
                domain=test_url.domain,
                url=test_url.url,
                router_path=router_path,
                middleboxes=middleboxes,
                legitimate_address=test_url.server_address,
                resolver_address=_GOOGLE_DNS,
                rng=rng,
                timestamp=timestamp,
                params=self.config.session,
            )
        baseline = self.server_page(test_url)
        http_result = simulate_http_fetch(
            domain=test_url.domain,
            url=test_url.url,
            router_path=router_path,
            middleboxes=middleboxes,
            server_page=baseline,
            rng=rng,
            timestamp=timestamp,
            params=self.config.session,
        )
        anomalies = run_detectors(
            dns_result, http_result, baseline, self.config.detector
        )

        racing_router_path = self._racing_path(vantage.asn, test_url.dest_asn, timestamp)
        traceroutes = simulate_traceroute_triplet(
            router_path,
            rng,
            self.config.traceroute,
            racing_router_path=racing_router_path,
            plan_cache=self._trace_plans,
        )

        injectors = set(http_result.injector_asns)
        if dns_result is not None:
            injectors |= dns_result.injector_asns
        measurement = Measurement(
            measurement_id=self._next_id,
            timestamp=timestamp,
            vantage_asn=vantage.asn,
            vantage_country=vantage.country_code,
            url=test_url.url,
            domain=test_url.domain,
            category=test_url.category.value,
            dest_asn=test_url.dest_asn,
            anomalies=anomalies,
            traceroutes=tuple(traceroutes),
            true_as_path=tuple(as_path),
            injector_asns=frozenset(injectors) if injectors else _NO_INJECTORS,
        )
        self._next_id += 1
        return measurement

    def _racing_path(
        self, src: int, dst: int, timestamp: int
    ) -> Optional[RouterPath]:
        """The previous route, when a switch landed within the racing window."""
        schedule = self.oracle.schedule_for(src, dst)
        if not schedule.switch_times:
            return None
        position = bisect_right(schedule.switch_times, timestamp)
        if position == 0:
            return None
        last_switch = schedule.switch_times[position - 1]
        if timestamp - last_switch > _RACING_WINDOW:
            return None
        previous = self.oracle.previous_path(src, dst, timestamp)
        if previous is None or not previous:
            return None
        return self._router_path(tuple(previous))

    # -- campaign ---------------------------------------------------------------

    def run_campaign(self, progress_every: int = 0) -> Dataset:
        """Run the full campaign and return the dataset.

        Per (URL, day), the number of tests is Poisson-like around
        ``tests_per_url_per_day`` and vantage points are sampled without
        replacement; test instants are uniform within the day.
        """
        dataset = Dataset()
        timer = self.timer
        scheduler_rng = DeterministicRNG(self.config.seed, "scheduler")
        day_starts = range(self.config.start, self.config.end, DAY)
        for day_index, day_start in enumerate(day_starts):
            for test_url in self.test_list:
                for vantage, timestamp in self._day_schedule(
                    scheduler_rng, test_url, day_start
                ):
                    if timer is not None:
                        started = perf_counter()
                        measurement = self.run_test(vantage, test_url, timestamp)
                        timer.add("campaign.tests", perf_counter() - started)
                    else:
                        measurement = self.run_test(vantage, test_url, timestamp)
                    if measurement is not None:
                        dataset.add(measurement)
                        for listener in self._listeners:
                            listener(measurement)
            if progress_every and (day_index + 1) % progress_every == 0:
                print(
                    f"[iclab] day {day_index + 1}/{len(day_starts)}: "
                    f"{len(dataset)} measurements"
                )
        return dataset

    def _day_schedule(
        self, rng: DeterministicRNG, test_url, day_start: int
    ) -> List[tuple]:
        """(vantage, timestamp) pairs for one URL on one day."""
        jobs: List[tuple] = []
        if self.config.schedule == "poisson":
            count = self._poisson(rng, self.config.tests_per_url_per_day)
            chosen = rng.sample_at_most(self.vantage_points, count)
            for vantage in chosen:
                jobs.append((vantage, self._clamp(day_start + rng.randrange(DAY))))
            return jobs
        # Sweep mode: every vantage point probes every URL repeatedly, the
        # way ICLab's continuous monitoring does.  Fractional rates become
        # a Bernoulli extra sweep.
        whole = int(self.config.sweeps_per_pair_per_day)
        fraction = self.config.sweeps_per_pair_per_day - whole
        for vantage in self.vantage_points:
            sweeps = whole + (1 if rng.chance(fraction) else 0)
            for _ in range(sweeps):
                jobs.append((vantage, self._clamp(day_start + rng.randrange(DAY))))
        return jobs

    def _clamp(self, timestamp: int) -> int:
        return min(timestamp, self.config.end - 1)

    @staticmethod
    def _poisson(rng: DeterministicRNG, mean: float) -> int:
        """Knuth's algorithm; fine for the small means used here."""
        limit = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count


__all__ = ["ICLabPlatform", "PlatformConfig"]
