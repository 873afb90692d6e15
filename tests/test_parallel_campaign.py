"""The campaign split over forked processes (``ICLabPlatform.run_campaign``).

- every process count reproduces the serial campaign's bytes, and a second
  campaign numbers its measurements where the first stopped;
- stage timers, routing counters and progress lines count every share;
- a listener, a live thread, a ``multiprocessing`` parent, a missing
  ``os.fork`` and a small campaign each keep the run serial;
- an exception in a child re-raises in the parent with the child's
  traceback text, and no child outlives the campaign.

Every forking check runs in a fresh interpreter: a thread another test
left running would force the serial path.  There the prelude patches the
usable CPU count and the share floor to pick the process count, and
counts the processes of every split through ``run_forked``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

import repro.iclab.platform as platform_module
from repro.iclab.platform import MIN_TESTS_PER_SHARE, ICLabPlatform

from test_perf_regression import CAMPAIGN_SHA256

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

PRELUDE = """
import hashlib, json, os
import repro.iclab.platform as platform_module
from repro.runner import JobSpec
from repro.scenario.world import build_world

forks = []  # the process count of every split campaign
_run_forked = platform_module.run_forked

def counted_run_forked(tasks):
    forks.append(len(tasks))
    return _run_forked(tasks)

platform_module.run_forked = counted_run_forked

def cpus(count, min_tests=1):
    # Size splits as if ``count`` CPUs were usable, down to
    # ``min_tests`` tests a share.
    platform_module._usable_cpus = lambda: count
    platform_module.MIN_TESTS_PER_SHARE = min_tests

def campaign(w, **kwargs):
    # The dataset and the number of processes it ran on.
    before = len(forks)
    dataset = w.run_campaign(**kwargs)
    return dataset, forks[-1] if len(forks) > before else 1

def world(preset="tiny"):
    return build_world(JobSpec(preset=preset, seed=0).scenario_config())

def sha(measurements):
    blob = json.dumps(
        [measurement.to_dict() for measurement in measurements], sort_keys=True
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()

def no_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

def emit(**fields):
    print(json.dumps(fields))
"""


def run_fresh(body: str) -> dict:
    """Run ``body`` after the prelude in a new interpreter; its last
    stdout line, parsed as JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


class TestSameBytes:
    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_every_process_count_matches_the_golden_campaign(self, preset):
        out = run_fresh(
            f"""
            runs = []
            for count in (1, 2, 3):
                cpus(count)
                dataset, processes = campaign(world({preset!r}))
                runs.append((processes, sha(dataset)))
            emit(runs=runs, no_children=no_children())
            """
        )
        assert out["runs"] == [[n, CAMPAIGN_SHA256[preset]] for n in (1, 2, 3)]
        assert out["no_children"]

    def test_second_campaign_continues_the_ids(self):
        out = run_fresh(
            """
            def twice(count):
                cpus(count)
                w = world()
                first, _ = campaign(w)
                second, processes = campaign(w)
                return [len(first), second[0].measurement_id, sha(second),
                        processes]
            emit(serial=twice(1), split=twice(3))
            """
        )
        serial, split = out["serial"], out["split"]
        assert serial[1] == serial[0]
        assert split[:3] == serial[:3]
        assert (serial[3], split[3]) == (1, 3)

    def test_timers_counters_and_progress_count_every_share(self):
        out = run_fresh(
            """
            import contextlib, io
            from repro.util.profiling import StageTimer

            def run(count, shared):
                cpus(count)
                w = world("small")
                w.platform.timer = StageTimer()
                w.oracle.timer = w.platform.timer if shared else StageTimer()
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    _, processes = campaign(w, progress_every=2)
                return [
                    w.platform.timer.calls("campaign.tests"),
                    w.oracle.timer.calls("routing.schedules"),
                    w.oracle.routes.stats.as_dict(),
                    printed.getvalue(),
                    processes,
                ]
            emit(runs=[run(count, shared)
                       for shared in (True, False) for count in (1, 3)])
            """
        )
        shared_serial, shared_split, own_serial, own_split = out["runs"]
        assert [run.pop() for run in out["runs"]] == [1, 3, 1, 3]
        assert shared_serial[0] > 0 and shared_serial[1] > 0
        assert shared_serial[3].startswith("[iclab] day 2/")
        assert shared_split == shared_serial
        assert own_split == own_serial == shared_serial


class TestSerialFallbacks:
    def test_listener_sees_the_serial_sequence(self):
        out = run_fresh(
            """
            cpus(3)
            w = world()
            seen = []
            w.platform.add_listener(seen.append)
            dataset, processes = campaign(w)
            emit(processes=processes, seen=sha(seen), dataset=sha(dataset))
            """
        )
        assert out == {
            "processes": 1,
            "seen": CAMPAIGN_SHA256["tiny"],
            "dataset": CAMPAIGN_SHA256["tiny"],
        }

    @pytest.mark.parametrize(
        "setup, teardown",
        [
            ("del os.fork", ""),
            (
                "import threading\n"
                "release = threading.Event()\n"
                "threading.Thread(target=release.wait).start()",
                "release.set()",
            ),
        ],
        ids=["no-fork", "live-thread"],
    )
    def test_unsafe_fork_runs_serially(self, setup, teardown):
        out = run_fresh(
            f"""
            cpus(3)
            w = world()
{textwrap.indent(setup, " " * 12)}
            dataset, processes = campaign(w)
{textwrap.indent(teardown, " " * 12)}
            emit(processes=processes, sha=sha(dataset))
            """
        )
        assert out == {"processes": 1, "sha": CAMPAIGN_SHA256["tiny"]}

    def test_multiprocessing_child_runs_serially(self):
        out = run_fresh(
            """
            import multiprocessing

            def job(conn):
                dataset, processes = campaign(world())
                conn.send([processes, sha(dataset)])

            cpus(3)
            context = multiprocessing.get_context("fork")
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=job, args=(sender,))
            process.start()
            processes, digest = receiver.recv()
            process.join(timeout=60)
            assert process.exitcode == 0, process.exitcode
            emit(processes=processes, sha=digest)
            """
        )
        assert out == {"processes": 1, "sha": CAMPAIGN_SHA256["tiny"]}

    def test_small_campaigns_stay_serial_by_default(self):
        out = run_fresh(
            """
            cpus(8, platform_module.MIN_TESTS_PER_SHARE)
            dataset, processes = campaign(world("small"))
            emit(processes=processes, sha=sha(dataset))
            """
        )
        assert out == {"processes": 1, "sha": CAMPAIGN_SHA256["small"]}


class TestFailures:
    @pytest.mark.parametrize(
        "where, error, expected, child_text",
        [
            ("child", "ValueError('boom')", "ValueError", "ValueError: boom"),
            (
                "child",
                "Unrebuildable('boom', 'twice')",
                "RuntimeError",
                "Unrebuildable: boomtwice",
            ),
            ("parent", "ValueError('boom')", "ValueError", None),
        ],
        ids=["child", "child-unrebuildable", "parent"],
    )
    def test_failure_surfaces_and_leaves_no_child(
        self, where, error, expected, child_text
    ):
        out = run_fresh(
            f"""
            from repro.iclab.platform import ICLabPlatform

            class Unrebuildable(Exception):
                def __init__(self, first, second):
                    super().__init__(first + second)

            parent = os.getpid()

            def failing_run_test(self, vantage, test_url, timestamp):
                if (os.getpid() == parent) == ({where!r} == "parent"):
                    raise {error}
                return original(self, vantage, test_url, timestamp)

            original = ICLabPlatform.run_test
            ICLabPlatform.run_test = failing_run_test
            cpus(3)
            try:
                world().run_campaign()
            except Exception as exc:
                cause = exc.__cause__
                emit(type=type(exc).__name__, cause=str(cause) if cause else "",
                     no_children=no_children())
            """
        )
        assert out["type"] == expected
        assert out["no_children"]
        if child_text is None:
            assert out["cause"] == ""
        else:
            assert "in failing_run_test" in out["cause"]
            assert child_text in out["cause"]


class TestShares:
    @staticmethod
    def jobs(loads):
        """Jobs whose destinations carry the given test counts."""
        return [
            (SimpleNamespace(dest_asn=dest), None, index)
            for dest, count in loads.items()
            for index in range(count)
        ]

    @staticmethod
    def shares(monkeypatch, jobs, cpus, min_tests=1):
        monkeypatch.setattr(platform_module, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(platform_module, "MIN_TESTS_PER_SHARE", min_tests)
        return ICLabPlatform._shares(jobs)

    def test_split_by_destination_balanced_lightest_first(self, monkeypatch):
        jobs = self.jobs({10: 5, 11: 4, 12: 3, 13: 3, 14: 1})
        shares = self.shares(monkeypatch, jobs, 2)
        assert [len(share) for share in shares] == [8, 8]
        assert sorted(i for share in shares for i in share) == list(range(16))
        dests = [{jobs[i][0].dest_asn for i in share} for share in shares]
        assert not dests[0] & dests[1]
        three = self.shares(monkeypatch, jobs, 3)
        assert [len(share) for share in three] == [5, 5, 6]

    def test_never_more_shares_than_destinations(self, monkeypatch):
        jobs = self.jobs({1: 3, 2: 3})
        assert len(self.shares(monkeypatch, jobs, 8)) == 2

    @pytest.mark.parametrize(
        "tests, cpus, expected",
        [
            (MIN_TESTS_PER_SHARE - 1, 2, 1),
            (2 * MIN_TESTS_PER_SHARE - 1, 2, 1),
            (2 * MIN_TESTS_PER_SHARE, 2, 2),
            (10 * MIN_TESTS_PER_SHARE, 2, 2),
            (10 * MIN_TESTS_PER_SHARE, 1, 1),
            (3 * MIN_TESTS_PER_SHARE, 4, 3),
        ],
    )
    def test_automatic_count(self, monkeypatch, tests, cpus, expected):
        monkeypatch.setattr(platform_module, "_usable_cpus", lambda: cpus)
        loads = {dest: tests // 8 + (dest < tests % 8) for dest in range(8)}
        assert len(ICLabPlatform._shares(self.jobs(loads))) == expected
