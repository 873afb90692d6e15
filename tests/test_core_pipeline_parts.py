"""Tests for observations, splitting, censors, reduction, and leakage."""

import pytest

from repro.anomaly import Anomaly
from repro.core.censors import identify_censors
from repro.core.leakage import identify_leakage
from repro.core.observations import Observation, first_path_only
from repro.core.problem import (
    ProblemKey,
    ProblemSolution,
    SolutionStatus,
    TomographyProblem,
)
from repro.core.reduction import ReductionStats, reduction_of
from repro.core.splitting import split_observations
from repro.util.timeutil import DAY, Granularity, window_of

URL = "http://x.com/"


def obs(path, detected, timestamp=10, anomaly=Anomaly.DNS, url=URL, mid=0):
    return Observation(
        url=url,
        anomaly=anomaly,
        detected=detected,
        as_path=tuple(path),
        timestamp=timestamp,
        measurement_id=mid,
    )


def solution(censors=(), status=SolutionStatus.UNIQUE, eliminated=(),
             observed=(), potential=(), anomaly=Anomaly.DNS, url=URL,
             num_solutions=1, timestamp=10):
    return ProblemSolution(
        key=ProblemKey(
            url=url,
            anomaly=anomaly,
            granularity=Granularity.DAY,
            window=window_of(timestamp, Granularity.DAY),
        ),
        status=status,
        num_solutions=num_solutions,
        capped=False,
        observed_ases=frozenset(observed or set(censors) | set(eliminated)),
        censors=frozenset(censors),
        potential_censors=frozenset(potential),
        eliminated=frozenset(eliminated),
        positive_clause_count=1 if censors or potential else 0,
    )


class TestSplitting:
    def test_one_group_per_granularity(self):
        groups = split_observations([obs([1, 2], False)])
        assert len(groups) == len(Granularity.all())

    def test_urls_split(self):
        groups = split_observations(
            [obs([1], False, url="http://a.com/"), obs([1], False, url="http://b.com/")],
            granularities=(Granularity.DAY,),
        )
        assert len(groups) == 2

    def test_anomalies_split(self):
        groups = split_observations(
            [obs([1], False, anomaly=Anomaly.DNS), obs([1], False, anomaly=Anomaly.RST)],
            granularities=(Granularity.DAY,),
        )
        assert len(groups) == 2

    def test_time_windows_split(self):
        groups = split_observations(
            [obs([1], False, timestamp=10), obs([1], False, timestamp=2 * DAY)],
            granularities=(Granularity.DAY,),
        )
        assert len(groups) == 2

    def test_same_window_merged(self):
        groups = split_observations(
            [obs([1], False, timestamp=10), obs([2], True, timestamp=20)],
            granularities=(Granularity.DAY,),
        )
        assert len(groups) == 1
        (group,) = groups.values()
        assert len(group) == 2


class TestFirstPathOnly:
    def test_keeps_only_first_distinct_path(self):
        observations = [
            obs([1, 2, 9], False, timestamp=0, mid=0),
            obs([1, 3, 9], False, timestamp=100, mid=1),  # churned: dropped
            obs([1, 2, 9], False, timestamp=200, mid=2),  # back: kept
        ]
        kept = first_path_only(observations)
        assert [o.measurement_id for o in kept] == [0, 2]

    def test_pairs_independent(self):
        observations = [
            obs([1, 2, 9], False, timestamp=0, mid=0),
            obs([5, 3, 9], False, timestamp=1, mid=1),
        ]
        assert len(first_path_only(observations)) == 2


class TestIdentifyCensors:
    def test_aggregates_unique_solutions(self):
        report = identify_censors(
            [
                solution(censors={7}, anomaly=Anomaly.DNS),
                solution(censors={7}, anomaly=Anomaly.DNS, timestamp=2 * DAY),
                solution(censors={8}, anomaly=Anomaly.RST),
            ],
            country_by_asn={7: "CN", 8: "IR"},
        )
        assert report.censor_asns == [7, 8]
        assert report.anomalies_of(7) == {Anomaly.DNS}
        finding = report.findings[(7, Anomaly.DNS)]
        assert finding.problem_count == 2

    def test_unsat_ignored(self):
        report = identify_censors(
            [solution(status=SolutionStatus.UNSATISFIABLE, num_solutions=0)]
        )
        assert report.censor_asns == []

    def test_by_country_ordering(self):
        report = identify_censors(
            [
                solution(censors={1}, url="http://a.com/"),
                solution(censors={2}, url="http://b.com/"),
                solution(censors={3}, url="http://c.com/"),
            ],
            country_by_asn={1: "CN", 2: "CN", 3: "IR"},
        )
        grouped = report.by_country()
        assert list(grouped)[0] == "CN"
        assert grouped["CN"] == [1, 2]

    def test_country_anomalies_union(self):
        report = identify_censors(
            [
                solution(censors={1}, anomaly=Anomaly.DNS),
                solution(censors={2}, anomaly=Anomaly.RST),
            ],
            country_by_asn={1: "CN", 2: "CN"},
        )
        assert report.country_anomalies("CN") == {Anomaly.DNS, Anomaly.RST}


class TestReduction:
    def test_only_multiple_counted(self):
        stats = reduction_of(
            [
                solution(status=SolutionStatus.UNIQUE),
                solution(
                    status=SolutionStatus.MULTIPLE,
                    num_solutions=3,
                    eliminated={1, 2, 3},
                    observed={1, 2, 3, 4},
                    potential={4},
                ),
            ]
        )
        assert stats.count == 1
        assert stats.mean == pytest.approx(0.75)

    def test_percentiles(self):
        stats = ReductionStats(fractions=(0.0, 0.5, 1.0), no_elimination_fraction=0.0)
        assert stats.median == pytest.approx(0.5)
        assert stats.percentile(0) == 0.0
        assert stats.percentile(100) == 1.0

    def test_percentile_validation(self):
        stats = ReductionStats(fractions=(0.5,), no_elimination_fraction=0.0)
        with pytest.raises(ValueError):
            stats.percentile(150)

    def test_empty(self):
        stats = reduction_of([])
        assert stats.mean == 0.0
        assert stats.cdf_points() == []

    def test_cdf_points_monotone(self):
        stats = ReductionStats(
            fractions=(0.1, 0.5, 0.9, 0.95), no_elimination_fraction=0.0
        )
        points = stats.cdf_points(bins=10)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestLeakage:
    def run_leakage(self, country_by_asn, observations, sol):
        groups = split_observations(observations, granularities=(Granularity.DAY,))
        return identify_leakage([sol], groups, country_by_asn)

    def test_upstream_foreign_non_censor_is_victim(self):
        observations = [obs([1, 2, 9], True)]
        sol = solution(censors={9}, eliminated={1, 2}, observed={1, 2, 9})
        report = self.run_leakage({1: "DE", 2: "FR", 9: "CN"}, observations, sol)
        record = report.records[9]
        assert record.victim_asns == {1, 2}
        assert record.victim_countries == {"DE", "FR"}
        assert report.leaking_censors == [9]
        assert report.cross_border_censors == [9]

    def test_same_country_victims_not_cross_border(self):
        observations = [obs([1, 9], True)]
        sol = solution(censors={9}, eliminated={1}, observed={1, 9})
        report = self.run_leakage({1: "CN", 9: "CN"}, observations, sol)
        record = report.records[9]
        assert record.leaks_as == 1
        assert record.leaks_country == 0
        assert report.cross_border_censors == []

    def test_downstream_ases_not_victims(self):
        observations = [obs([9, 2, 3], True)]  # censor first: no upstream
        sol = solution(censors={9}, eliminated={2, 3}, observed={2, 3, 9})
        report = self.run_leakage({2: "DE", 3: "FR", 9: "CN"}, observations, sol)
        assert report.records[9].victim_asns == set()

    def test_non_eliminated_upstream_not_victim(self):
        observations = [obs([1, 2, 9], True)]
        sol = solution(censors={9}, eliminated={2}, observed={1, 2, 9})
        report = self.run_leakage({1: "DE", 2: "FR", 9: "CN"}, observations, sol)
        assert report.records[9].victim_asns == {2}

    def test_multiple_solutions_ignored(self):
        observations = [obs([1, 2, 9], True)]
        sol = solution(
            status=SolutionStatus.MULTIPLE,
            num_solutions=3,
            potential={2, 9},
            eliminated={1},
            observed={1, 2, 9},
        )
        report = self.run_leakage({1: "DE", 2: "FR", 9: "CN"}, observations, sol)
        assert not report.records

    def test_country_flow(self):
        observations = [obs([1, 2, 9], True)]
        sol = solution(censors={9}, eliminated={1, 2}, observed={1, 2, 9})
        report = self.run_leakage({1: "DE", 2: "FR", 9: "CN"}, observations, sol)
        flow = report.country_flow()
        assert flow[("CN", "DE")] == 1
        assert flow[("CN", "FR")] == 1

    def test_top_leakers_ordering(self):
        observations = [
            obs([1, 2, 9], True, url="http://a.com/"),
            obs([3, 8], True, url="http://b.com/"),
        ]
        sol_a = solution(
            censors={9}, eliminated={1, 2}, observed={1, 2, 9}, url="http://a.com/"
        )
        sol_b = solution(
            censors={8}, eliminated={3}, observed={3, 8}, url="http://b.com/"
        )
        groups = split_observations(observations, granularities=(Granularity.DAY,))
        report = identify_leakage(
            [sol_a, sol_b], groups, {1: "DE", 2: "FR", 3: "NL", 8: "IR", 9: "CN"}
        )
        top = report.top_leakers(2)
        assert top[0].censor_asn == 9  # two victim ASes beats one
