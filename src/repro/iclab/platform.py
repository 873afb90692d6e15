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
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.anomaly import Anomaly
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
from repro.util.forked import fork_is_safe, run_forked
from repro.util.ipv4 import parse_ipv4
from repro.util.profiling import StageTimer
from repro.util.rng import DeterministicRNG, derive_seed
from repro.util.timeutil import DAY

_GOOGLE_DNS = parse_ipv4("8.8.8.8")
_RACING_WINDOW = 600  # seconds: a route change this close may race the test
# Ground truth of every test no injector fired in: one shared empty set.
_NO_INJECTORS: FrozenSet[int] = frozenset()
# The fewest tests a share holds.  On two vCPUs the split paid at every
# campaign size measured, down to 992 paper-shaped tests (0.42-0.49 s
# serial against 0.32-0.44 s split), so this is not a break-even.  It keeps
# the tiny (109 tests) and small (1,778) presets, which tests and examples
# run in-process, off the fork path, and splits every campaign from 2,000
# tests on.  The tier-1 suite's wall time did not move beyond its
# run-to-run spread with the floor at 500, 1,000 or 2,000.
MIN_TESTS_PER_SHARE = 1000

# One scheduled test: the URL, the vantage point and the instant.
_Job = Tuple[TestUrl, VantagePoint, int]


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
        # One shared detector-result dict per outcome: a campaign keeps one
        # per test, but five booleans take only 32 values.
        self._anomaly_results: Dict[Tuple[bool, ...], Dict[Anomaly, bool]] = {}
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
        detected = run_detectors(
            dns_result, http_result, baseline, self.config.detector
        )
        anomalies = self._anomaly_results.setdefault(
            tuple(detected.values()), detected
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

        The campaign can run on several processes with the same bytes as
        a serial run.  The scheduler RNG draws the whole schedule first,
        and every test reseeds its own RNG, so a test's outcome does not
        depend on what ran before it.  The tests are split by destination
        AS into shares balanced by test count, which keeps each share's
        routing tables, churn schedules, router paths and trace plans to
        itself.  The parent forks one child per share but its own, runs
        the lightest share, then merges the children's measurements in
        schedule order and numbers them from where the last campaign
        stopped.  Forking keeps a world customized after
        :func:`~repro.scenario.world.build_world` identical in the
        children.  Stage timers and routing counters fold the children's
        work in; ``progress_every`` lines print after the merge.

        One process runs per usable CPU, capped so that every share holds
        at least ``MIN_TESTS_PER_SHARE`` tests and at the number of
        destinations.  The run stays serial when ``os.fork`` is missing,
        another thread is alive, a listener is attached (it sees each
        measurement as it is made), or this is a :mod:`multiprocessing`
        child (a worker pool already fills the CPUs).  An exception in a
        child re-raises here, chained to the child's traceback text; if
        the parent's own share fails, every child is killed and reaped
        before the exception leaves (see
        :func:`repro.util.forked.run_forked`).
        """
        days: Iterable[List[_Job]] = self._days()
        if not self._listeners and fork_is_safe():
            days = list(days)
            jobs = [job for day in days for job in day]
            shares = self._shares(jobs)
            if len(shares) > 1:
                return self._run_split(
                    jobs, [len(day) for day in days], shares, progress_every
                )
        dataset = Dataset()
        num_days = len(range(self.config.start, self.config.end, DAY))
        for day_index, day in enumerate(days):
            for test_url, vantage, timestamp in day:
                measurement = self._timed_test(vantage, test_url, timestamp)
                if measurement is not None:
                    dataset.add(measurement)
                    for listener in self._listeners:
                        listener(measurement)
            self._progress(progress_every, day_index, num_days, len(dataset))
        return dataset

    def _days(self) -> Iterator[List[_Job]]:
        """Each day's tests in schedule order."""
        scheduler_rng = DeterministicRNG(self.config.seed, "scheduler")
        for day_start in range(self.config.start, self.config.end, DAY):
            yield [
                (test_url, vantage, timestamp)
                for test_url in self.test_list
                for vantage, timestamp in self._day_schedule(
                    scheduler_rng, test_url, day_start
                )
            ]

    def _timed_test(
        self, vantage: VantagePoint, test_url: TestUrl, timestamp: int
    ) -> Optional[Measurement]:
        timer = self.timer
        if timer is None:
            return self.run_test(vantage, test_url, timestamp)
        started = perf_counter()
        measurement = self.run_test(vantage, test_url, timestamp)
        timer.add("campaign.tests", perf_counter() - started)
        return measurement

    @staticmethod
    def _progress(
        progress_every: int, day_index: int, num_days: int, measurements: int
    ) -> None:
        if progress_every and (day_index + 1) % progress_every == 0:
            print(
                f"[iclab] day {day_index + 1}/{num_days}: "
                f"{measurements} measurements"
            )

    # -- the forked split ---------------------------------------------------------

    @staticmethod
    def _shares(jobs: List[_Job]) -> List[List[int]]:
        """Job indices per process, split by destination AS and balanced
        by test count; the lightest share first."""
        load: Dict[int, int] = {}
        for test_url, _, _ in jobs:
            load[test_url.dest_asn] = load.get(test_url.dest_asn, 0) + 1
        count = max(
            1, min(_usable_cpus(), len(jobs) // MIN_TESTS_PER_SHARE, len(load))
        )
        totals = [0] * count
        share_of: Dict[int, int] = {}
        by_load = sorted(load.items(), key=lambda item: (-item[1], item[0]))
        for dest_asn, tests in by_load:
            lightest = totals.index(min(totals))
            share_of[dest_asn] = lightest
            totals[lightest] += tests
        shares: List[List[int]] = [[] for _ in range(count)]
        for index, (test_url, _, _) in enumerate(jobs):
            shares[share_of[test_url.dest_asn]].append(index)
        return sorted(shares, key=len)

    def _run_split(
        self,
        jobs: List[_Job],
        day_sizes: List[int],
        shares: List[List[int]],
        progress_every: int,
    ) -> Dataset:
        first_id = self._next_id
        own, *replies = run_forked(
            [partial(self._run_share, jobs, shares[0])]
            + [partial(self._child_share, jobs, share) for share in shares[1:]]
        )
        slots: List[Optional[Measurement]] = [None] * len(jobs)
        for indices, measurements in [own, *map(self._fold_child, replies)]:
            for index, measurement in zip(indices, measurements):
                slots[index] = measurement
        self._next_id = first_id
        dataset = Dataset()
        position = 0
        for day_index, size in enumerate(day_sizes):
            for measurement in slots[position : position + size]:
                if measurement is not None:
                    # The platform made this record moments ago and shares
                    # it with no one yet: number it in schedule order.
                    object.__setattr__(
                        measurement, "measurement_id", self._next_id
                    )
                    self._next_id += 1
                    dataset.add(measurement)
            position += size
            self._progress(
                progress_every, day_index, len(day_sizes), len(dataset)
            )
        return dataset

    def _run_share(
        self, jobs: List[_Job], share: List[int]
    ) -> Tuple[List[int], List[Measurement]]:
        """Run one share's tests: the indices that made a measurement,
        and the measurements."""
        indices: List[int] = []
        measurements: List[Measurement] = []
        for index in share:
            test_url, vantage, timestamp = jobs[index]
            measurement = self._timed_test(vantage, test_url, timestamp)
            if measurement is not None:
                indices.append(index)
                measurements.append(measurement)
        return indices, measurements

    def _timers(self) -> List[StageTimer]:
        """The distinct timers of the platform and its oracle."""
        timers: Dict[int, StageTimer] = {}
        for owner in (self, self.oracle):
            timer = getattr(owner, "timer", None)
            if timer is not None:
                timers.setdefault(id(timer), timer)
        return list(timers.values())

    def _child_share(self, jobs: List[_Job], share: List[int]) -> tuple:
        """In a forked child: run ``share`` with fresh timers and return
        what the parent folds in, its results, timer snapshots and
        routing counter deltas."""
        originals = self._timers()
        fresh = {id(timer): StageTimer() for timer in originals}
        for owner in (self, self.oracle):
            timer = getattr(owner, "timer", None)
            if timer is not None:
                owner.timer = fresh[id(timer)]
        stats = self.oracle.routes.stats
        before = stats.as_dict()
        results = self._run_share(jobs, share)
        routes = {
            name: value - before[name] for name, value in stats.as_dict().items()
        }
        snapshots = [fresh[id(timer)].snapshot() for timer in originals]
        return results, snapshots, routes

    def _fold_child(self, reply: tuple) -> Tuple[List[int], List[Measurement]]:
        """Fold a child's timers and counters in; its results."""
        results, snapshots, routes = reply
        for timer, snapshot in zip(self._timers(), snapshots):
            timer.merge(snapshot)
        self.oracle.routes.stats.merge(routes)
        return results

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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


__all__ = ["ICLabPlatform", "MIN_TESTS_PER_SHARE", "PlatformConfig"]
