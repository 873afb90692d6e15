"""End-to-end localization pipeline (§3).

``LocalizationPipeline.run`` executes the full chain —

    dataset → AS paths → observations → per-(URL, anomaly, window)
    problems → SAT solutions → censors + reduction + leakage —

and returns a :class:`PipelineResult` with every intermediate the paper's
figures need.  ``run_without_churn`` applies the Figure-4 ablation (only
the first observed distinct path per pair) before problem construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.core.censors import CensorFinding, CensorReport, identify_censors
from repro.core.leakage import LeakageRecord, LeakageReport, identify_leakage
from repro.core.aspath import InconclusiveReason
from repro.core.observations import (
    DiscardStats,
    Observation,
    build_observations,
    first_path_only,
)
from repro.core.problem import (
    DEFAULT_SOLUTION_CAP,
    ProblemSolution,
    ProblemSolveCache,
    SolutionStatus,
    SolveStats,
    TomographyProblem,
)
from repro.core.reduction import ReductionStats, reduction_of
from repro.core.splitting import ProblemKey, split_observations
from repro.iclab.dataset import Dataset
from repro.topology.ip2as import IpToAsDatabase
from repro.util.collector import paused
from repro.util.profiling import StageTimer, maybe_stage
from repro.util.timeutil import Granularity, TimeWindow


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline knobs."""

    granularities: Tuple[Granularity, ...] = (
        Granularity.DAY,
        Granularity.WEEK,
        Granularity.MONTH,
    )
    anomalies: Tuple[Anomaly, ...] = Anomaly.all()
    solution_cap: int = DEFAULT_SOLUTION_CAP
    skip_anomaly_free_problems: bool = False
    # ^ when True, problems without any detected anomaly (whose solution is
    #   trivially the unique all-False assignment) are not solved; Figure 1
    #   counts them, so the default keeps them.
    optimized: bool = True
    # ^ when True (the default), structurally identical CNFs are solved
    #   once per run and propagation-decided problems skip solver
    #   construction.  False forces the reference per-problem solve —
    #   slower, identical output; the determinism guard runs both.


@dataclass
class PipelineResult:
    """Everything produced by one pipeline run."""

    solutions: List[ProblemSolution]
    observations_by_key: Dict[ProblemKey, List[Observation]]
    discard_stats: DiscardStats
    censor_report: CensorReport
    leakage_report: LeakageReport
    reduction_stats: ReductionStats

    def by_status(self) -> Dict[SolutionStatus, int]:
        """Problem counts per solution status."""
        counts: Dict[SolutionStatus, int] = {s: 0 for s in SolutionStatus}
        for solution in self.solutions:
            counts[solution.status] += 1
        return counts

    def solutions_for(
        self,
        granularity: Optional[Granularity] = None,
        anomaly: Optional[Anomaly] = None,
        censored_only: bool = False,
    ) -> List[ProblemSolution]:
        """Filter solutions by granularity / anomaly / censoredness."""
        out = []
        for solution in self.solutions:
            if granularity is not None and solution.key.granularity != granularity:
                continue
            if anomaly is not None and solution.key.anomaly != anomaly:
                continue
            if censored_only and not solution.had_anomaly:
                continue
            out.append(solution)
        return out

    @property
    def identified_censor_asns(self) -> List[int]:
        """Distinct exactly-identified censoring ASNs."""
        return self.censor_report.censor_asns

    # -- serialization ---------------------------------------------------

    def to_dict(self, include_observations: bool = False) -> Dict[str, Any]:
        """A JSON-compatible dict with deterministic ordering.

        Collections are sorted so that two equal results serialize to
        identical bytes regardless of construction order — the property
        the runner's content-addressed store relies on.  Observations are
        the bulk of the payload and are rebuildable from the scenario
        seed, so they are excluded unless ``include_observations``.
        """
        payload: Dict[str, Any] = {
            "solutions": [
                _solution_to_dict(solution)
                for solution in sorted(
                    self.solutions, key=lambda s: _key_sort_key(s.key)
                )
            ],
            "discard_stats": {
                "total": self.discard_stats.total,
                "converted": self.discard_stats.converted,
                "discarded_by_reason": {
                    reason.value: count
                    for reason, count in sorted(
                        self.discard_stats.discarded_by_reason.items(),
                        key=lambda item: item[0].value,
                    )
                },
            },
            "censor_report": {
                "country_by_asn": {
                    str(asn): country
                    for asn, country in sorted(
                        self.censor_report.country_by_asn.items()
                    )
                },
                "findings": [
                    {
                        "asn": finding.asn,
                        "anomaly": finding.anomaly.value,
                        "urls": sorted(finding.urls),
                        "granularities": sorted(
                            g.value for g in finding.granularities
                        ),
                        "problem_count": finding.problem_count,
                    }
                    for (asn, anomaly), finding in sorted(
                        self.censor_report.findings.items(),
                        key=lambda item: (item[0][0], item[0][1].value),
                    )
                ],
            },
            "leakage_report": [
                {
                    "censor_asn": record.censor_asn,
                    "censor_country": record.censor_country,
                    "victim_asns": sorted(record.victim_asns),
                    "victim_countries": sorted(record.victim_countries),
                }
                for _, record in sorted(self.leakage_report.records.items())
            ],
            "reduction_stats": {
                "fractions": list(self.reduction_stats.fractions),
                "no_elimination_fraction": (
                    self.reduction_stats.no_elimination_fraction
                ),
            },
        }
        if include_observations:
            payload["observations"] = [
                {
                    "key": _problem_key_to_dict(key),
                    "observations": [
                        _observation_to_dict(observation)
                        for observation in group
                    ],
                }
                for key, group in sorted(
                    self.observations_by_key.items(),
                    key=lambda item: _key_sort_key(item[0]),
                )
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PipelineResult":
        """Rebuild a result from :meth:`to_dict` output.

        ``observations_by_key`` is empty unless the payload was produced
        with ``include_observations=True``.
        """
        discard = DiscardStats(
            total=payload["discard_stats"]["total"],
            converted=payload["discard_stats"]["converted"],
            discarded_by_reason={
                InconclusiveReason(reason): count
                for reason, count in payload["discard_stats"][
                    "discarded_by_reason"
                ].items()
            },
        )
        censor_report = CensorReport(
            country_by_asn={
                int(asn): country
                for asn, country in payload["censor_report"][
                    "country_by_asn"
                ].items()
            }
        )
        for entry in payload["censor_report"]["findings"]:
            anomaly = Anomaly(entry["anomaly"])
            censor_report.findings[(entry["asn"], anomaly)] = CensorFinding(
                asn=entry["asn"],
                anomaly=anomaly,
                urls=set(entry["urls"]),
                granularities={
                    Granularity(g) for g in entry["granularities"]
                },
                problem_count=entry["problem_count"],
            )
        leakage_report = LeakageReport(
            records={
                entry["censor_asn"]: LeakageRecord(
                    censor_asn=entry["censor_asn"],
                    censor_country=entry["censor_country"],
                    victim_asns=set(entry["victim_asns"]),
                    victim_countries=set(entry["victim_countries"]),
                )
                for entry in payload["leakage_report"]
            }
        )
        reduction = ReductionStats(
            fractions=tuple(payload["reduction_stats"]["fractions"]),
            no_elimination_fraction=payload["reduction_stats"][
                "no_elimination_fraction"
            ],
        )
        observations_by_key: Dict[ProblemKey, List[Observation]] = {}
        for entry in payload.get("observations", []):
            key = _problem_key_from_dict(entry["key"])
            observations_by_key[key] = [
                Observation(
                    url=o["url"],
                    anomaly=Anomaly(o["anomaly"]),
                    detected=o["detected"],
                    as_path=tuple(o["as_path"]),
                    timestamp=o["timestamp"],
                    measurement_id=o["measurement_id"],
                )
                for o in entry["observations"]
            ]
        return cls(
            solutions=[
                _solution_from_dict(entry) for entry in payload["solutions"]
            ],
            observations_by_key=observations_by_key,
            discard_stats=discard,
            censor_report=censor_report,
            leakage_report=leakage_report,
            reduction_stats=reduction,
        )


def _key_sort_key(key: ProblemKey) -> Tuple[str, str, str, int]:
    return (key.url, key.anomaly.value, key.granularity.value, key.window.start)


def _problem_key_to_dict(key: ProblemKey) -> Dict[str, Any]:
    return {
        "url": key.url,
        "anomaly": key.anomaly.value,
        "granularity": key.granularity.value,
        "window": {"start": key.window.start, "end": key.window.end},
    }


def _problem_key_from_dict(payload: Dict[str, Any]) -> ProblemKey:
    return ProblemKey(
        url=payload["url"],
        anomaly=Anomaly(payload["anomaly"]),
        granularity=Granularity(payload["granularity"]),
        window=TimeWindow(
            start=payload["window"]["start"], end=payload["window"]["end"]
        ),
    )


def _observation_to_dict(observation: Observation) -> Dict[str, Any]:
    return {
        "url": observation.url,
        "anomaly": observation.anomaly.value,
        "detected": observation.detected,
        "as_path": list(observation.as_path),
        "timestamp": observation.timestamp,
        "measurement_id": observation.measurement_id,
    }


def _observation_from_dict(payload: Dict[str, Any]) -> Observation:
    return Observation(
        url=payload["url"],
        anomaly=Anomaly(payload["anomaly"]),
        detected=payload["detected"],
        as_path=tuple(payload["as_path"]),
        timestamp=payload["timestamp"],
        measurement_id=payload["measurement_id"],
    )


def _solution_to_dict(solution: ProblemSolution) -> Dict[str, Any]:
    return {
        "key": _problem_key_to_dict(solution.key),
        "status": solution.status.value,
        "num_solutions": solution.num_solutions,
        "capped": solution.capped,
        "observed_ases": sorted(solution.observed_ases),
        "censors": sorted(solution.censors),
        "potential_censors": sorted(solution.potential_censors),
        "eliminated": sorted(solution.eliminated),
        "clause_count": solution.clause_count,
        "positive_clause_count": solution.positive_clause_count,
    }


def _solution_from_dict(payload: Dict[str, Any]) -> ProblemSolution:
    return ProblemSolution(
        key=_problem_key_from_dict(payload["key"]),
        status=SolutionStatus(payload["status"]),
        num_solutions=payload["num_solutions"],
        capped=payload["capped"],
        observed_ases=frozenset(payload["observed_ases"]),
        censors=frozenset(payload["censors"]),
        potential_censors=frozenset(payload["potential_censors"]),
        eliminated=frozenset(payload["eliminated"]),
        clause_count=payload["clause_count"],
        positive_clause_count=payload["positive_clause_count"],
    )


class LocalizationPipeline:
    """Drives the full §3 procedure over a dataset."""

    def __init__(
        self,
        ip2as: IpToAsDatabase,
        country_by_asn: Dict[int, str],
        config: PipelineConfig = PipelineConfig(),
        timer: Optional[StageTimer] = None,
    ) -> None:
        self.ip2as = ip2as
        self.country_by_asn = dict(country_by_asn)
        self.config = config
        self.timer = timer
        self.last_solve_stats: Optional[SolveStats] = None
        # ^ counters from the most recent run (perf reports, regression
        #   tests); None before any run or after a non-optimized run.

    # -- public entry points ---------------------------------------------

    # Every entry point runs with the cyclic collector paused: the chain
    # builds ~300k container objects and no reference cycles, so each
    # collection it would trigger walks them all and frees nothing.

    def run(self, dataset: Dataset) -> PipelineResult:
        """Localize censors from a dataset."""
        with paused():
            with maybe_stage(self.timer, "pipeline.observations"):
                observations, discard_stats = build_observations(
                    dataset, self.ip2as, anomalies=self.config.anomalies
                )
            return self.run_from_observations(observations, discard_stats)

    def run_without_churn(self, dataset: Dataset) -> PipelineResult:
        """The Figure-4 ablation: drop every churn-created path."""
        with paused():
            with maybe_stage(self.timer, "pipeline.observations"):
                observations, discard_stats = build_observations(
                    dataset, self.ip2as, anomalies=self.config.anomalies
                )
            return self.run_from_observations(
                first_path_only(observations), discard_stats
            )

    def run_from_observations(
        self,
        observations: Sequence[Observation],
        discard_stats: Optional[DiscardStats] = None,
    ) -> PipelineResult:
        """Localize censors from pre-built observations.

        Public entry point for callers (the sweep runner, custom ablation
        filters) that construct or transform observations themselves and
        therefore have no dataset to convert.  When ``discard_stats`` is
        omitted, the result carries an all-zero :class:`DiscardStats` —
        conversion was not observed here, and a zero total keeps
        ``conversion_rate`` from reporting a fabricated 100%.
        """
        with paused():
            if discard_stats is None:
                discard_stats = DiscardStats()
            timer = self.timer
            with maybe_stage(timer, "pipeline.split"):
                groups = split_observations(
                    observations, granularities=self.config.granularities
                )
            # The problems were grouped by this very pipeline, so per-problem
            # membership re-validation is skipped; external callers of
            # TomographyProblem still get the checks.
            cache = ProblemSolveCache() if self.config.optimized else None
            solutions: List[ProblemSolution] = []
            with maybe_stage(timer, "pipeline.solve"):
                for key, group in groups.items():
                    if self.config.skip_anomaly_free_problems and not any(
                        observation.detected for observation in group
                    ):
                        continue
                    problem = TomographyProblem(
                        key,
                        group,
                        solution_cap=self.config.solution_cap,
                        validate=False,
                    )
                    if cache is not None:
                        solutions.append(problem.solve(cache))
                    else:
                        solutions.append(problem.solve_reference())
            self.last_solve_stats = cache.stats if cache is not None else None
            if timer is not None and cache is not None:
                for name, value in cache.stats.as_dict().items():
                    timer.count(f"solve.{name}", value)
            with maybe_stage(timer, "pipeline.reports"):
                result = assemble_result(
                    solutions, groups, discard_stats, self.country_by_asn
                )
            return result


def assemble_result(
    solutions: List[ProblemSolution],
    groups: Dict[ProblemKey, List[Observation]],
    discard_stats: DiscardStats,
    country_by_asn: Dict[int, str],
) -> PipelineResult:
    """Roll solved problems up into a :class:`PipelineResult`.

    The report phase shared by the batch pipeline and the streaming
    engine's drain (:mod:`repro.stream`): censor identification, leakage,
    and reduction statistics are all pure functions of the per-problem
    solutions and groups, so both entry points produce byte-identical
    results from equal inputs.
    """
    censor_report = identify_censors(solutions, country_by_asn=country_by_asn)
    leakage_report = identify_leakage(solutions, groups, country_by_asn)
    reduction_stats = reduction_of(solutions)
    return PipelineResult(
        solutions=solutions,
        observations_by_key=groups,
        discard_stats=discard_stats,
        censor_report=censor_report,
        leakage_report=leakage_report,
        reduction_stats=reduction_stats,
    )


# Public names for the piecewise serializers: the checkpoint format
# (repro.stream.checkpoint) and the sharded-backend worker protocol
# (repro.api.backends) ship these fragments between processes, and must
# stay byte-compatible with PipelineResult.to_dict's own encoding.
solution_to_dict = _solution_to_dict
solution_from_dict = _solution_from_dict
problem_key_to_dict = _problem_key_to_dict
problem_key_from_dict = _problem_key_from_dict
observation_to_dict = _observation_to_dict
observation_from_dict = _observation_from_dict


__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "LocalizationPipeline",
    "assemble_result",
    "solution_to_dict",
    "solution_from_dict",
    "problem_key_to_dict",
    "problem_key_from_dict",
    "observation_to_dict",
    "observation_from_dict",
]
