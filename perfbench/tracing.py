"""Per-layer timers for the traced run, applied from outside the program.

Every timer wraps a public function at the boundary where the layer
above calls it: an attribute of one of the world's own instances
(``world.platform.run_test``, the serve client's ``flush``) or a name a
calling module imported (``repro.iclab.platform.simulate_http_fetch``).
The program is not edited; every patch is undone when its ``with``
block exits.

A timer group counts only its outermost call, so a wrapped function that
calls another wrapped function of the same group (``aspath_at`` calls
``schedule_for``) is not counted twice.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
import time
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List


class LayerClock:
    """Wall seconds and call counts per layer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so its outermost calls add to ``name``."""
        seconds, calls, depth = self.seconds, self.calls, self._depth

        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - started
                calls[name] += 1
                depth[name] = 0

        return wrapper

    @contextlib.contextmanager
    def patch(self, owner, attribute: str, name: str) -> Iterator[None]:
        """Time ``owner.attribute`` as layer ``name`` inside the block."""
        with replaced(owner, attribute, self.timed(name, getattr(owner, attribute))):
            yield


@contextlib.contextmanager
def replaced(owner, attribute: str, value) -> Iterator[None]:
    """Set ``owner.attribute`` to ``value`` for the block, then restore it.

    An attribute that lived on the class, not the instance, is removed
    from the instance again rather than copied onto it.
    """
    had_own = attribute in vars(owner)
    original = getattr(owner, attribute)
    setattr(owner, attribute, value)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


# -- peak memory ----------------------------------------------------------


def self_peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return _status_kib(os.getpid(), "VmHWM") / 1024.0


def _status_kib(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``."""
    out: List[int] = []
    pending = _children(pid)
    while pending:
        child = pending.pop()
        out.append(child)
        pending.extend(_children(child))
    return out


def kill_and_wait(pids: List[int], timeout: float = 10.0) -> None:
    """SIGKILL processes that are not our children, then wait until they
    are gone."""
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    for pid in pids:
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TreePeakSampler:
    """Peak RSS of a process and all its descendants, summed.

    ``VmHWM`` is each process's own high-water mark, so the last value
    read before a process exits is its peak.  A background thread polls
    every ``interval`` seconds because shard workers exit during the
    drain; :meth:`stop` takes one last sample first.
    """

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        for pid in [self.pid] + descendants(self.pid):
            try:
                peak = _status_kib(pid, "VmHWM")
            except (OSError, KeyError, ValueError):
                continue  # exited between listing and reading
            if peak > self.peaks.get(pid, 0):
                self.peaks[pid] = peak

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "TreePeakSampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop polling; the summed peak in MiB."""
        self.sample()
        self._stop.set()
        self._thread.join(timeout=5.0)
        return sum(self.peaks.values()) / 1024.0


# -- daemon-side metrics ---------------------------------------------------


def family_values(series: Dict[str, float], family: str) -> List[float]:
    """Every series of one metric family, whatever its labels."""
    return [
        value
        for name, value in series.items()
        if name == family or name.startswith(family + "{")
    ]


def family_sum(series: Dict[str, float], family: str) -> float:
    return sum(family_values(series, family))


def scrape(url: str, timeout: float = 10.0) -> Dict[str, float]:
    """The daemon's ``/metrics`` exposition, parsed by the program's own
    parser."""
    import urllib.request

    from repro.obs.export import parse_prometheus

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return parse_prometheus(response.read().decode("utf-8"))
