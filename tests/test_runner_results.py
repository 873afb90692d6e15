"""PipelineResult filters, serialization, and the result store round-trip."""

import pytest

from repro.anomaly import Anomaly
from repro.core.pipeline import PipelineResult
from repro.core.problem import ProblemSolution, SolutionStatus
from repro.core.splitting import ProblemKey
from repro.runner import JobSpec, execute_job
from repro.runner.results import JobSummary, SweepSummary, summarize_result
from repro.runner.store import ResultStore, encode_record
from repro.util.timeutil import Granularity, window_of


def _solution(
    url="u1",
    anomaly=Anomaly.DNS,
    granularity=Granularity.DAY,
    status=SolutionStatus.UNIQUE,
    positive=1,
    **kwargs,
):
    key = ProblemKey(
        url=url,
        anomaly=anomaly,
        granularity=granularity,
        window=window_of(0, granularity),
    )
    defaults = dict(
        num_solutions=1 if status is SolutionStatus.UNIQUE else 3,
        capped=False,
        observed_ases=frozenset({1, 2, 3}),
        clause_count=3,
        positive_clause_count=positive,
    )
    defaults.update(kwargs)
    return ProblemSolution(key=key, status=status, **defaults)


@pytest.fixture()
def mixed_result():
    solutions = [
        _solution(status=SolutionStatus.UNIQUE, censors=frozenset({2}),
                  eliminated=frozenset({1, 3})),
        _solution(url="u2", anomaly=Anomaly.RST,
                  status=SolutionStatus.MULTIPLE,
                  potential_censors=frozenset({1, 2}),
                  eliminated=frozenset({3})),
        _solution(url="u3", granularity=Granularity.WEEK,
                  status=SolutionStatus.UNSATISFIABLE, num_solutions=0),
        _solution(url="u4", positive=0, censors=frozenset(),
                  eliminated=frozenset({1, 2, 3})),
    ]
    from repro.core.censors import identify_censors
    from repro.core.leakage import identify_leakage
    from repro.core.observations import DiscardStats
    from repro.core.reduction import reduction_of

    return PipelineResult(
        solutions=solutions,
        observations_by_key={},
        discard_stats=DiscardStats(total=10, converted=9),
        censor_report=identify_censors(solutions, {1: "US", 2: "CN", 3: "DE"}),
        leakage_report=identify_leakage(solutions, {}, {1: "US", 2: "CN", 3: "DE"}),
        reduction_stats=reduction_of(solutions),
    )


class TestPipelineResultFilters:
    def test_by_status_counts_every_status(self, mixed_result):
        counts = mixed_result.by_status()
        assert counts[SolutionStatus.UNIQUE] == 2
        assert counts[SolutionStatus.MULTIPLE] == 1
        assert counts[SolutionStatus.UNSATISFIABLE] == 1
        assert sum(counts.values()) == len(mixed_result.solutions)


class TestPipelineResultSerialization:
    def test_round_trip_preserves_everything(self, mixed_result):
        rebuilt = PipelineResult.from_dict(mixed_result.to_dict())
        assert rebuilt.by_status() == mixed_result.by_status()
        assert rebuilt.solutions == sorted(
            mixed_result.solutions,
            key=lambda s: (s.key.url, s.key.anomaly.value,
                           s.key.granularity.value, s.key.window.start),
        )
        assert (
            rebuilt.censor_report.findings == mixed_result.censor_report.findings
        )
        assert (
            rebuilt.censor_report.country_by_asn
            == mixed_result.censor_report.country_by_asn
        )
        assert (
            rebuilt.leakage_report.records == mixed_result.leakage_report.records
        )
        assert rebuilt.reduction_stats == mixed_result.reduction_stats
        assert (
            rebuilt.discard_stats.conversion_rate
            == mixed_result.discard_stats.conversion_rate
        )

    def test_to_dict_bytes_are_deterministic(self, mixed_result):
        first = encode_record(mixed_result.to_dict())
        second = encode_record(
            PipelineResult.from_dict(mixed_result.to_dict()).to_dict()
        )
        assert first == second

    def test_real_pipeline_result_round_trips(self, tiny_world, tiny_dataset):
        result = tiny_world.pipeline().run(tiny_dataset)
        rebuilt = PipelineResult.from_dict(result.to_dict())
        assert rebuilt.by_status() == result.by_status()
        assert rebuilt.identified_censor_asns == result.identified_censor_asns
        assert rebuilt.reduction_stats.mean == result.reduction_stats.mean
        def granularities(r):
            return sorted(s.key.granularity.value for s in r.solutions)

        assert granularities(rebuilt) == granularities(result)

    def test_observations_round_trip_when_included(self, tiny_world, tiny_dataset):
        result = tiny_world.pipeline().run(tiny_dataset)
        rebuilt = PipelineResult.from_dict(
            result.to_dict(include_observations=True)
        )
        assert rebuilt.observations_by_key == result.observations_by_key
        # ... and are excluded by default (they dominate the payload).
        assert PipelineResult.from_dict(result.to_dict()).observations_by_key == {}


MINI_JOB = JobSpec(
    preset="tiny", seed=5, duration_days=3, num_urls=4, num_vantage_points=5
)


class TestStoreRoundTrip:
    def test_record_survives_the_store(self, tmp_path):
        record = execute_job(MINI_JOB)
        assert record["status"] == "ok"
        store = ResultStore(tmp_path)
        job_id = store.put(record)
        assert job_id == MINI_JOB.job_id
        assert store.has(job_id)
        # The summary record round-trips without the bulky result payload
        # or the host-dependent perf snapshot (both live in sidecars).
        loaded = store.get(job_id)
        slim = {
            key: value
            for key, value in record.items()
            if key not in ("result", "perf")
        }
        assert loaded == slim
        assert "result" not in loaded and "perf" not in loaded
        # The sidecar result rebuilds into a working PipelineResult.
        result = PipelineResult.from_dict(store.get_result(job_id))
        assert result.by_status()[SolutionStatus.UNIQUE] == record["summary"]["unique"]
        # The perf sidecar carries the stage timings the run produced.
        perf = store.get_perf(job_id)
        assert perf is not None
        assert "job.total" in perf["perf"]["stages"]
        # Re-encoding the loaded record is byte-identical to the stored file.
        assert encode_record(loaded) == store.path_for(job_id).read_bytes()

    def test_missing_and_job_ids(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.missing([MINI_JOB]) == [MINI_JOB]
        store.put(execute_job(MINI_JOB))
        assert store.missing([MINI_JOB]) == []
        assert store.job_ids() == [MINI_JOB.job_id]

    def test_corrupt_record_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        record = execute_job(MINI_JOB)
        store.put(record)
        # Truncate the file (a half-rsynced store must not brick reads).
        path = store.path_for(MINI_JOB.job_id)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(MINI_JOB.job_id) is None
        assert not store.has(MINI_JOB.job_id)
        assert store.missing([MINI_JOB]) == [MINI_JOB]

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        record = execute_job(MINI_JOB)
        record["schema"] = 999
        store.put(record)
        assert store.get(MINI_JOB.job_id) is None
        assert not store.has(MINI_JOB.job_id)
        assert store.missing([MINI_JOB]) == [MINI_JOB]


class TestSummaries:
    def test_summarize_result_scores_against_truth(self, mixed_result):
        summary = summarize_result(mixed_result, true_censors=[2, 9])
        assert summary["identified_censors"] == [2]
        assert summary["true_positives"] == [2]
        assert summary["precision"] == 1.0
        assert summary["recall"] == 0.5
        assert summary["problems"] == 4

    def test_job_and_sweep_summaries(self):
        record = execute_job(MINI_JOB)
        job_summary = JobSummary.from_record(record)
        assert job_summary.status == "ok"
        assert job_summary.problems == record["summary"]["problems"]
        sweep_summary = SweepSummary.aggregate([record])
        assert sweep_summary.jobs == sweep_summary.ok == 1
        assert sweep_summary.failed == 0
        assert sweep_summary.problems == job_summary.problems
