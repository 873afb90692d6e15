"""The shared cyclic-collector pause (:mod:`repro.util.collector`).

- the collector's entry state is restored, on and off, also on raise;
- nested pauses keep it off until the outermost one leaves;
- two threads' overlapping pauses keep it off while either is inside;
- a fork made while another thread holds a pause gives the child the
  state the pause found, not a collector nothing will re-enable;
- every pipeline entry point runs paused and leaves the state as found;
- the batch chain makes no cyclic garbage — what lets the pause cost no
  memory.
"""

from __future__ import annotations

import collections
import gc
import os
import sys
import threading
import warnings

import pytest

from repro.core import pipeline as pipeline_module
from repro.core.observations import build_observations
from repro.util.collector import paused


@pytest.fixture
def collector_state():
    """Set the collector's state for one test; restore it afterwards."""
    was_enabled = gc.isenabled()

    def set_state(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was_enabled)


ENTRY_STATES = pytest.mark.parametrize(
    "enabled", [True, False], ids=["gc-on", "gc-off"]
)


class TestPause:
    @ENTRY_STATES
    def test_restores_entry_state(self, collector_state, enabled):
        collector_state(enabled)
        with paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    @ENTRY_STATES
    def test_restores_entry_state_on_raise(self, collector_state, enabled):
        collector_state(enabled)
        with pytest.raises(KeyError):
            with paused():
                raise KeyError("boom")
        assert gc.isenabled() is enabled

    def test_nested(self, collector_state):
        collector_state(True)
        with paused():
            with paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("first_out", ["first-in", "second-in"])
    def test_overlapping_threads(self, collector_state, first_out):
        """Thread A enters, then the main thread; either leaves first.
        The collector stays off until both are out."""
        collector_state(True)
        entered, leave, left = (threading.Event() for _ in range(3))

        def hold():
            with paused():
                entered.set()
                leave.wait(10)
            left.set()

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            with paused():
                if first_out == "first-in":
                    leave.set()
                    assert left.wait(10)
                assert not gc.isenabled()
            if first_out == "second-in":
                assert not gc.isenabled()
                leave.set()
                assert left.wait(10)
        finally:
            leave.set()
            thread.join(10)
        assert gc.isenabled()

    def test_stress_many_threads(self, collector_state):
        """More threads than cores enter and leave nested pauses under a
        tiny switch interval: every thread sees the collector off inside
        every pause, and it is back on once all have left."""
        collector_state(True)
        seen_on = []

        def churn():
            for _ in range(2000):
                with paused():
                    with paused():
                        if gc.isenabled():
                            seen_on.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not seen_on
        assert gc.isenabled()


def _child_reports(leave_pause: bool = False) -> str:
    """Fork; the child writes what ``gc.isenabled()`` reads — on arrival
    and, with ``leave_pause`` (the fork was made inside a pause), again
    after its copy of the forking thread leaves that pause."""
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Forking while another thread runs is the case under test;
        # Python 3.12+ warns about it.  The child takes no lock that
        # another thread could hold.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_end)
            report = str(int(gc.isenabled()))
            if leave_pause:
                paused().__exit__(None, None, None)
                report += str(int(gc.isenabled()))
            os.write(write_end, report.encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as reader:
        report = reader.read()
    os.waitpid(pid, 0)
    return report


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    def test_child_of_paused_thread_restores_collector(self, collector_state):
        """Another thread holds a pause while the main thread forks: the
        child has no such thread, so it gets the collector back on."""
        collector_state(True)
        entered, leave = threading.Event(), threading.Event()

        def hold():
            with paused():
                entered.set()
                leave.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            assert not gc.isenabled()
            assert _child_reports() == "1"
        finally:
            leave.set()
            thread.join(10)
        assert gc.isenabled()

    def test_child_keeps_collector_off_when_found_off(self, collector_state):
        collector_state(False)
        entered, leave = threading.Event(), threading.Event()

        def hold():
            with paused():
                entered.set()
                leave.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            assert _child_reports() == "0"
        finally:
            leave.set()
            thread.join(10)
        assert not gc.isenabled()

    def test_forking_thread_keeps_its_own_pause(self, collector_state):
        """A fork from inside a pause: the child stays paused until its
        copy of the forking thread leaves, then restores."""
        collector_state(True)
        with paused():
            assert _child_reports(leave_pause=True) == "01"
        assert gc.isenabled()


# -- the pipeline ------------------------------------------------------------


def _entry_points(world, dataset):
    pipeline = world.pipeline()
    observations, discard = build_observations(dataset, world.ip2as)
    return {
        "run": lambda: pipeline.run(dataset),
        "run_without_churn": lambda: pipeline.run_without_churn(dataset),
        "run_from_observations": lambda: pipeline.run_from_observations(
            observations, discard
        ),
    }


class TestPipelinePaused:
    @ENTRY_STATES
    @pytest.mark.parametrize(
        "entry", ["run", "run_without_churn", "run_from_observations"]
    )
    def test_entry_point_runs_paused_and_restores(
        self, collector_state, monkeypatch, tiny_world, tiny_dataset,
        enabled, entry,
    ):
        seen = []
        split = pipeline_module.split_observations

        def spying_split(*args, **kwargs):
            seen.append(gc.isenabled())
            return split(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "split_observations", spying_split)
        call = _entry_points(tiny_world, tiny_dataset)[entry]
        collector_state(enabled)
        result = call()
        assert gc.isenabled() is enabled
        assert seen == [False]
        assert result.solutions

    def test_batch_chain_makes_no_cyclic_garbage(
        self, collector_state, small_world, small_dataset
    ):
        """With the collector off, a full collection after ``run`` and
        after ``run_without_churn`` finds nothing: pausing the collector
        over the chain leaves no garbage for it to free later.  A failure
        names the types caught in the cycles."""
        pipeline = small_world.pipeline()
        collector_state(False)
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for entry in (pipeline.run, pipeline.run_without_churn):
                result = entry(small_dataset)
                assert result.solutions
                del result
                found = gc.collect()
                cyclic = collections.Counter(
                    type(obj).__qualname__ for obj in gc.garbage
                )
                gc.garbage.clear()
                assert found == 0, (
                    f"{entry.__name__} left cyclic garbage: "
                    f"{cyclic.most_common(8)}"
                )
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
