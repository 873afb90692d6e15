"""Tests for the traceroute simulator."""

import pytest

from repro.netsim.path import RouterHop, RouterPath
from repro.traceroute.simulate import (
    Traceroute,
    TracerouteParams,
    simulate_traceroute,
    simulate_traceroute_triplet,
)
from repro.util.rng import DeterministicRNG


def make_path(num_hops=10):
    hops = tuple(
        RouterHop(asn=10 + i // 2, address=0x30000000 + i, hop_index=i)
        for i in range(num_hops)
    )
    as_path = tuple(dict.fromkeys(h.asn for h in hops))
    return RouterPath(as_path=as_path, hops=hops)


def _responsive(run):
    """Addresses of the hops that answered, in order."""
    return [address for address in run.addresses if address is not None]


NO_FAILURES = TracerouteParams(
    hop_nonresponse_probability=0.0,
    error_probability=0.0,
    truncation_probability=0.0,
)


class TestSingleRun:
    def test_perfect_run_sees_every_hop(self):
        path = make_path()
        run = simulate_traceroute(path, DeterministicRNG(0, "t"), NO_FAILURES)
        assert not run.error
        assert run.destination_reached
        assert _responsive(run) == [h.address for h in path.hops]

    def test_rtts_monotonic_on_perfect_run(self):
        run = simulate_traceroute(make_path(), DeterministicRNG(0, "t"), NO_FAILURES)
        rtts = [rtt for _, _, rtt in run.hops]
        assert all(r is not None for r in rtts)
        # RTT grows with distance modulo small jitter; check overall trend
        assert rtts[-1] > rtts[0]

    def test_error_run_is_empty(self):
        params = TracerouteParams(error_probability=1.0)
        run = simulate_traceroute(make_path(), DeterministicRNG(0, "t"), params)
        assert run.error
        assert len(run) == 0
        assert not run.destination_reached

    def test_all_hops_nonresponsive(self):
        params = TracerouteParams(
            hop_nonresponse_probability=1.0,
            error_probability=0.0,
            truncation_probability=0.0,
        )
        run = simulate_traceroute(make_path(), DeterministicRNG(0, "t"), params)
        assert not run.error
        assert _responsive(run) == []
        assert not run.destination_reached

    def test_truncation_shortens_run(self):
        params = TracerouteParams(
            hop_nonresponse_probability=0.0,
            error_probability=0.0,
            truncation_probability=0.5,
        )
        path = make_path(20)
        shortened = False
        for i in range(20):
            run = simulate_traceroute(path, DeterministicRNG(i, "t"), params)
            if not run.error and len(run) < path.hop_count:
                shortened = True
                break
        assert shortened

    def test_nonresponse_rate_statistical(self):
        params = TracerouteParams(
            hop_nonresponse_probability=0.3,
            error_probability=0.0,
            truncation_probability=0.0,
        )
        rng = DeterministicRNG(1, "stats")
        total = silent = 0
        for _ in range(200):
            run = simulate_traceroute(make_path(), rng, params)
            for _, address, _ in run.hops:
                total += 1
                if address is None:
                    silent += 1
        assert 0.25 < silent / total < 0.35


class TestHopRecords:
    """Both per-hop loops fill the same two columns, and ``hops`` reads
    them back as exact ``(index, address, rtt)`` tuples."""

    def test_general_loop_emits_exact_tuples(self):
        path = make_path()
        run = simulate_traceroute(path, DeterministicRNG(0, "t"), NO_FAILURES)
        assert run.hops
        assert all(type(hop) is tuple for hop in run.hops)
        assert [hop[0] for hop in run.hops] == [h.hop_index for h in path.hops]

    def test_plan_loop_emits_exact_tuples(self):
        path = make_path(20)
        plan_cache = {}
        runs = [
            simulate_traceroute(
                path, DeterministicRNG(i, "t"), TracerouteParams(),
                plan_cache=plan_cache,
            )
            for i in range(20)
        ]
        assert plan_cache  # the default params take the plan loop
        hops = [hop for run in runs for hop in run.hops]
        assert all(type(hop) is tuple and len(hop) == 3 for hop in hops)
        silent = [hop for hop in hops if hop[1] is None]
        assert silent and all(hop[2] is None for hop in silent)
        assert len(silent) < len(hops)

    def test_complete_runs_share_the_path_addresses(self):
        path = make_path()
        runs = [
            simulate_traceroute(path, DeterministicRNG(i, "t"), NO_FAILURES)
            for i in range(3)
        ]
        assert all(run.addresses is path.addresses for run in runs)

    def test_hops_round_trip_through_the_constructor(self):
        path = make_path(20)
        runs = [
            simulate_traceroute(path, DeterministicRNG(i, "t"), TracerouteParams())
            for i in range(20)
        ]
        assert any(None in run.addresses for run in runs)
        for run in runs:
            clone = Traceroute(run.hops, run.destination_reached, run.error)
            assert clone == run
            assert hash(clone) == hash(run)

    @pytest.mark.parametrize(
        "hops",
        [
            ((1, 5, 0.1),),
            ((0, 5, 0.1), (2, 6, 0.2)),
            ((0, 5, 0.1), (0, 6, 0.2)),
            ((0, 5, None),),
            ((0, None, 0.1),),
        ],
    )
    def test_constructor_rejects_malformed_hops(self, hops):
        with pytest.raises(ValueError):
            Traceroute(hops=hops, destination_reached=True)


class TestTriplet:
    def test_three_runs(self):
        runs = simulate_traceroute_triplet(
            make_path(), DeterministicRNG(0, "t"), NO_FAILURES
        )
        assert len(runs) == 3

    def test_all_runs_identical_addresses_without_failures(self):
        runs = simulate_traceroute_triplet(
            make_path(), DeterministicRNG(0, "t"), NO_FAILURES
        )
        addresses = [_responsive(run) for run in runs]
        assert addresses[0] == addresses[1] == addresses[2]

    def test_racing_path_can_appear(self):
        current = make_path()
        old_hops = tuple(
            RouterHop(asn=50 + i, address=0x40000000 + i, hop_index=i)
            for i in range(6)
        )
        old = RouterPath(
            as_path=tuple(h.asn for h in old_hops), hops=old_hops
        )
        params = TracerouteParams(
            hop_nonresponse_probability=0.0,
            error_probability=0.0,
            truncation_probability=0.0,
            racing_path_probability=1.0,
        )
        runs = simulate_traceroute_triplet(
            current, DeterministicRNG(3, "t"), params, racing_router_path=old
        )
        address_sets = {tuple(_responsive(run)) for run in runs}
        assert len(address_sets) == 2  # one run saw the old path

    def test_no_racing_without_old_path(self):
        params = TracerouteParams(
            hop_nonresponse_probability=0.0,
            error_probability=0.0,
            truncation_probability=0.0,
            racing_path_probability=1.0,
        )
        runs = simulate_traceroute_triplet(
            make_path(), DeterministicRNG(3, "t"), params, racing_router_path=None
        )
        address_sets = {tuple(_responsive(run)) for run in runs}
        assert len(address_sets) == 1
