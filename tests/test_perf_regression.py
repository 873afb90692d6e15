"""Performance-optimization guards.

The hot-path overhaul (routing memoization, CNF dedup, propagation fast
path) must be *invisible* in results and *pinned* in behaviour:

- the determinism guard asserts the optimized pipeline output equals the
  reference (pre-optimization) solver path byte-for-byte, on the tiny and
  small presets, and matches golden hashes captured from the unoptimized
  code;
- counter regressions pin the work reductions themselves (routing tables
  computed per campaign, unique CNFs solved per pipeline run), so a
  future change that silently reverts a speedup fails loudly rather than
  showing up as a vibe.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle
from array import array

import pytest

from repro.core.pipeline import PipelineResult, assemble_result
from repro.core.problem import (
    ProblemSolution,
    ProblemSolveCache,
    TomographyProblem,
)
from repro.core.splitting import ProblemKey, split_observations
from repro.core.observations import Observation, build_observations
from repro.iclab.measurement import Measurement
from repro.routing.bgp import RouteComputer
from repro.runner import JobSpec, run_job
from repro.scenario.world import build_world
from repro.traceroute.simulate import Traceroute
from repro.util.profiling import StageTimer

# sha256 of json.dumps(result.to_dict(), sort_keys=True) produced by the
# UNOPTIMIZED code (pre-overhaul), for run_job(JobSpec(preset=..., seed=0)).
# The optimized pipeline must reproduce these bytes exactly.
GOLDEN_SHA256 = {
    "tiny": "0aed7f0b95d2a818088935d203395d5e78325fadea3a5b52ae890d987461b128",
    "small": "4023553e06e99b1894105ba09f5ad23559f911ce2ff0f44599ec7d46caf13121",
}


# sha256 of the canonical JSON of every Measurement.to_dict() in the
# campaign of build_world(JobSpec(preset=..., seed=0).scenario_config()),
# captured before the campaign-simulation speedups (censor per-domain memo,
# O(users) failed-link tables).  Unlike GOLDEN_SHA256 this covers what the
# pipeline ignores: traceroute RTTs, unmapped hops, and the _truth block.
CAMPAIGN_SHA256 = {
    "tiny": "435a9cdd37999f791f4380c85a54ba17ba362e931419dafd2aa09cb2ef16f7ed",
    "small": "c264fc4556e93ab98e4e2d4513cadef17481a4ff39685958f5f5659ba783bd18",
}


def _result_sha(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _reference_result(world, result) -> PipelineResult:
    """``result`` rebuilt with every problem solved by the reference
    solver, from the same groups and conversion tallies."""
    solutions = [
        TomographyProblem(key, group).solve_reference()
        for key, group in result.observations_by_key.items()
    ]
    return assemble_result(
        solutions,
        result.observations_by_key,
        result.discard_stats,
        world.country_by_asn,
    )


def _campaign_sha(dataset) -> str:
    blob = json.dumps(
        [measurement.to_dict() for measurement in dataset], sort_keys=True
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class TestDeterminismGuard:
    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_output_matches_pre_optimization_golden_hash(self, preset):
        outcome = run_job(JobSpec(preset=preset, seed=0))
        assert _result_sha(outcome.result) == GOLDEN_SHA256[preset]

    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_campaign_matches_pre_optimization_golden_hash(self, preset):
        world = build_world(JobSpec(preset=preset, seed=0).scenario_config())
        assert _campaign_sha(world.run_campaign()) == CAMPAIGN_SHA256[preset]

    def test_optimized_equals_reference_solver_path(
        self, tiny_world, tiny_dataset
    ):
        optimized = tiny_world.pipeline().run(tiny_dataset)
        reference = _reference_result(tiny_world, optimized)
        assert optimized.to_dict() == reference.to_dict()

    def test_optimized_equals_reference_on_small(
        self, small_world, small_dataset
    ):
        optimized = small_world.pipeline().run(small_dataset)
        reference = _reference_result(small_world, optimized)
        assert optimized.to_dict() == reference.to_dict()

    def test_per_problem_solutions_match_reference(
        self, tiny_world, tiny_dataset
    ):
        observations, _ = build_observations(tiny_dataset, tiny_world.ip2as)
        cache = ProblemSolveCache()
        for key, group in split_observations(observations).items():
            fast = TomographyProblem(key, group).solve(cache)
            reference = TomographyProblem(key, group).solve_reference()
            assert fast == reference, f"divergence on {key}"


class TestSolveCacheCounters:
    def test_unique_cnfs_far_fewer_than_problems(
        self, tiny_world, tiny_dataset
    ):
        pipeline = tiny_world.pipeline()
        result = pipeline.run(tiny_dataset)
        stats = pipeline.last_solve_stats
        assert stats is not None
        assert stats.problems == len(result.solutions)
        # The speedup being pinned: most problems are structural repeats,
        # and most unique formulas close by propagation without CDCL.
        assert stats.signature_hits > 0
        assert stats.unique_cnfs < stats.problems
        assert stats.unique_cnfs + stats.signature_hits == stats.problems
        assert stats.cdcl_solves <= stats.unique_cnfs
        assert stats.propagation_decided + stats.cdcl_solves <= stats.unique_cnfs


class TestRoutingCounters:
    def test_tables_computed_bounded_by_destination_families(self):
        # Churn discovery computes, per destination: num_salts salted
        # tables plus at most one failed-link table per distinct canonical
        # hop.  Pin that the campaign cannot silently regress to per-pair
        # table computation.
        world = build_world(JobSpec(preset="tiny", seed=0).scenario_config())
        world.run_campaign()
        stats = world.oracle.routes.stats
        num_salts = world.oracle.config.num_salts
        destinations = {url.dest_asn for url in world.test_list}
        salted_budget = num_salts * len(destinations)
        failed_tables = len(world.oracle._failed_tables)
        assert stats.tables_computed <= salted_budget + failed_tables
        # Per-destination families are pinned by the oracle, so repeating
        # discovery for every pair the campaign materialized computes
        # nothing new.
        before = stats.tables_computed
        for src, dst in list(world.oracle._schedules):
            world.oracle.alternatives_for(src, dst)
        assert stats.tables_computed == before

    def test_salted_tables_shared_across_sources(self, tiny_world):
        oracle = build_world(
            JobSpec(preset="tiny", seed=1).scenario_config()
        ).oracle
        dst = next(iter(oracle.graph.registry)).asn
        sources = [a.asn for a in oracle.graph.registry if a.asn != dst][:5]
        for src in sources:
            oracle.alternatives_for(src, dst)
        # One family of salted tables serves every source.
        assert len(oracle._salted_tables) == 1
        assert len(oracle._salted_tables[dst]) == oracle.config.num_salts


class TestRouteComputerLru:
    def test_lru_evicts_one_cold_entry_not_the_working_set(self, tiny_world):
        computer = RouteComputer(tiny_world.graph, cache_size=2)
        asns = [a.asn for a in tiny_world.graph.registry][:3]
        a, b, c = asns
        computer.routing_table(a)
        computer.routing_table(b)
        computer.routing_table(a)  # refresh a: b becomes least recent
        computer.routing_table(c)  # evicts b only
        assert computer.stats.cache_evictions == 1
        computed = computer.stats.tables_computed
        computer.routing_table(a)  # still cached
        computer.routing_table(c)  # still cached
        assert computer.stats.tables_computed == computed
        computer.routing_table(b)  # evicted: must recompute
        assert computer.stats.tables_computed == computed + 1

    def test_cache_size_zero_disables_caching(self, tiny_world):
        computer = RouteComputer(tiny_world.graph, cache_size=0)
        asn = next(iter(tiny_world.graph.registry)).asn
        computer.routing_table(asn)
        computer.routing_table(asn)
        assert computer.stats.tables_computed == 2
        assert computer.stats.cache_hits == 0

    def test_identical_tables_after_eviction(self, tiny_world):
        # Eviction must affect performance only, never results.
        unbounded = RouteComputer(tiny_world.graph)
        tight = RouteComputer(tiny_world.graph, cache_size=1)
        asns = [a.asn for a in tiny_world.graph.registry][:4]
        for asn in asns:
            assert (
                tight.routing_table(asn).paths
                == unbounded.routing_table(asn).paths
            )
        for asn in reversed(asns):
            assert (
                tight.routing_table(asn).paths
                == unbounded.routing_table(asn).paths
            )


class TestHeapShape:
    """The campaign's bulk records stay out of the collector's way.

    A traceroute is two columns, not a record per hop: its addresses are
    an exact tuple of atoms, which a collection untracks, and complete
    runs over one router path share that tuple; its RTTs are one
    ``array('d')``.  Observations are slotted, so none carries an
    instance dict.  Per-hop tuples or dict-backed observations would put
    hundreds of thousands of objects back on a paper-shaped run's heap.
    Measurements, problem keys and solutions are slotted too, and a
    solved batch keeps one copy of each distinct AS set.
    """

    @pytest.fixture(scope="class")
    def converted(self):
        world = build_world(
            JobSpec(
                preset="tiny", seed=5, duration_days=3, num_urls=4,
                num_vantage_points=5,
            ).scenario_config()
        )
        dataset = world.run_campaign()
        observations, _ = build_observations(dataset, world.ip2as)
        gc.collect()
        return dataset, observations

    @pytest.fixture(scope="class")
    def solved(self, tiny_world, tiny_dataset):
        return tiny_world.pipeline().run(tiny_dataset)

    def test_runs_keep_no_per_hop_objects(self, converted):
        dataset, _ = converted
        runs = [tr for m in dataset for tr in m.traceroutes if len(tr)]
        assert runs
        for traceroute in runs:
            assert type(traceroute.addresses) is tuple
            assert not gc.is_tracked(traceroute.addresses)
            assert type(traceroute.rtts) is array
            assert traceroute.rtts.typecode == "d"
            assert len(traceroute.rtts) == len(traceroute.addresses)

    def test_complete_runs_over_one_router_path_share_addresses(
        self, converted
    ):
        dataset, _ = converted
        shared = {}
        for measurement in dataset:
            for traceroute in measurement.traceroutes:
                if traceroute.destination_reached and (
                    None not in traceroute.addresses
                ):
                    shared.setdefault(traceroute.addresses, []).append(
                        traceroute.addresses
                    )
        assert max(len(runs) for runs in shared.values()) > 1
        for addresses, runs in shared.items():
            assert all(run is runs[0] for run in runs), addresses

    def test_traceroutes_survive_pickle(self, converted):
        # The dict round trip is tests/test_iclab.py's
        # test_roundtrip_campaign_measurements.
        dataset, _ = converted
        runs = [tr for m in dataset for tr in m.traceroutes]
        assert any(None in tr.addresses for tr in runs)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clones = pickle.loads(pickle.dumps(runs, protocol))
            assert all(type(clone) is Traceroute for clone in clones)
            assert clones == runs

    def test_measurements_share_one_anomaly_dict_per_outcome(
        self, tiny_dataset
    ):
        by_outcome = {}
        for measurement in tiny_dataset:
            outcome = tuple(measurement.anomalies.items())
            assert by_outcome.setdefault(outcome, measurement.anomalies) is (
                measurement.anomalies
            )
        assert 1 < len(by_outcome) < len(tiny_dataset)

    def test_measurements_unpickle_through_the_constructor(self, converted):
        # The constructor's check runs on load, so the clone stores its
        # attributes as a constructed record does.
        dataset, _ = converted
        measurements = list(dataset)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clones = pickle.loads(pickle.dumps(measurements, protocol))
            assert all(type(clone) is Measurement for clone in clones)
            assert clones == measurements
        unchecked = dataclasses.replace(measurements[0])
        object.__setattr__(unchecked, "anomalies", {})
        blob = pickle.dumps(unchecked)
        with pytest.raises(ValueError, match="anomaly results missing"):
            pickle.loads(blob)

    def test_observations_have_no_instance_dict(self, converted, solved):
        dataset, observations = converted
        records = [
            *observations,
            *dataset,
            *(solution.key for solution in solved.solutions),
            *solved.solutions,
        ]
        assert observations and len(dataset) and solved.solutions
        assert not any(hasattr(record, "__dict__") for record in records)

    def test_solutions_share_one_object_per_as_set(self, solved):
        # The solve memo's intern table: equal AS sets, in any of the
        # four fields of any solution, are one frozenset.
        by_value = {}
        held = 0
        for solution in solved.solutions:
            for ases in (
                solution.observed_ases,
                solution.censors,
                solution.potential_censors,
                solution.eliminated,
            ):
                assert by_value.setdefault(ases, ases) is ases, ases
                held += 1
        assert 1 < len(by_value) < held

    def test_keys_and_solutions_survive_pickle(self, solved):
        solutions = solved.solutions
        keys = [solution.key for solution in solutions]
        assert keys[0].__reduce__()[0] is ProblemKey
        assert solutions[0].__reduce__()[0] is ProblemSolution
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            key_clones = pickle.loads(pickle.dumps(keys, protocol))
            assert all(type(clone) is ProblemKey for clone in key_clones)
            assert key_clones == keys
            assert [hash(k) for k in key_clones] == [hash(k) for k in keys]
            clones = pickle.loads(pickle.dumps(solutions, protocol))
            assert all(type(clone) is ProblemSolution for clone in clones)
            assert clones == solutions

    def test_observation_survives_pickle(self, converted):
        _, observations = converted
        observation = observations[0]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(observation, protocol))
            assert type(clone) is Observation
            assert clone == observation
            assert hash(clone) == hash(observation)


class TestPerfInstrumentation:
    def test_run_job_reports_stage_timings_and_counters(self):
        outcome = run_job(
            JobSpec(
                preset="tiny",
                seed=2,
                duration_days=3,
                num_urls=4,
                num_vantage_points=5,
            )
        )
        perf = outcome.perf
        assert perf is not None
        stages = perf["stages"]
        for stage in ("world.build", "campaign", "pipeline", "job.total"):
            assert stages[stage]["seconds"] >= 0.0
            assert stages[stage]["calls"] >= 1
        assert stages["campaign.tests"]["calls"] > 0
        assert stages["routing.schedules"]["calls"] > 0
        counters = perf["counters"]
        assert counters["routing.tables_computed"] > 0
        assert counters["solve.problems"] > 0
        # The canonical record must not embed host-dependent timings.
        assert "perf" in outcome.record
        assert outcome.record["perf"] is perf

    def test_external_timer_aggregates_across_jobs(self):
        timer = StageTimer()
        mini = dict(duration_days=2, num_urls=3, num_vantage_points=4)
        run_job(JobSpec(preset="tiny", seed=3, **mini), timer=timer)
        first_total = timer.seconds("job.total")
        run_job(JobSpec(preset="tiny", seed=4, **mini), timer=timer)
        assert timer.seconds("job.total") > first_total
        assert timer.calls("job.total") == 2
