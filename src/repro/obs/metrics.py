"""The metrics registry: counters, gauges, and fixed-bucket histograms.

:class:`MetricsRegistry` is the one store behind every telemetry surface
in the repo — the per-shard gauges the sharded backend maintains, the
stream-engine counters exported at scrape time, the transport byte
tallies, and the :class:`~repro.util.profiling.StageTimer` adapter.  It
follows the same two contracts the timer established:

- **Zero cost when absent.**  Instrumented components hold an
  ``Optional`` registry (or pre-resolved instrument handles) and guard
  with one truth test; users who never enable metrics pay one ``if``.
- **Never touches canonical records.**  Nothing in a registry enters a
  ``PipelineResult`` or the content-addressed part of a job record;
  drains stay byte-identical with instrumentation attached (pinned in
  ``tests/test_obs.py``).

Three instrument kinds, Prometheus-shaped:

- :class:`Counter` — monotonically increasing totals; **merge adds**.
- :class:`Gauge` — last-write-wins level readings (queue depth, ingest
  lag); **merge overwrites** — this split is what fixes the historical
  ``StageTimer.merge`` double-count of ``set_counter`` values.
- :class:`Histogram` — fixed, sorted bucket bounds chosen at creation;
  **merge adds element-wise** (bounds must match).

Series are ``(name, labels)`` pairs; ``registry.counter(name, labels)``
get-or-creates and returns a cheap handle object whose ``inc``/``set``/
``observe`` methods are safe to call on hot paths.  Expensive state that
already lives elsewhere (engine stats dataclasses) exports through
*collectors* — callbacks invoked only at :meth:`MetricsRegistry.snapshot`
time, so steady-state ingestion pays nothing for it.

The injectable ``clock`` (used by :meth:`MetricsRegistry.time` and by
:mod:`repro.obs.trace`) makes snapshots fully deterministic under test.

:class:`RegistryView` (``registry.view(labels)``) is the multi-tenant
adapter: it speaks the full registry interface but stamps a fixed label
set onto every series it creates, so N tenant sessions can share one
daemon registry — and one scrape endpoint — without their identically
named series colliding.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

# The registry snapshot format version (persisted in drain telemetry and
# JSON dumps; bump on layout changes).
SNAPSHOT_FORMAT = 1

# Default latency buckets (seconds): sub-millisecond transport work up to
# multi-second end-to-end verdict latencies, roughly logarithmic.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

Labels = Optional[Dict[str, Any]]
_LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Labels) -> _LabelItems:
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def series_key(name: str, labels: Labels = None) -> str:
    """The canonical flat series identifier, ``name{k="v",...}``."""
    items = _label_items(labels)
    if not items:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in items)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total (merge semantics: add)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A level reading: last write wins (merge semantics: overwrite)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket distribution (merge semantics: element-wise add).

    ``bounds`` are the inclusive upper bucket edges; one implicit +Inf
    bucket catches the rest, so ``counts`` has ``len(bounds) + 1`` slots.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self, name: str, labels: _LabelItems, bounds: Tuple[float, ...]
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(edge) for edge in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class _TimerContext:
    __slots__ = ("_histogram", "_clock", "_started")

    def __init__(self, histogram: Histogram, clock) -> None:
        self._histogram = histogram
        self._clock = clock
        self._started = 0.0

    def __enter__(self) -> "_TimerContext":
        self._started = self._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._histogram.observe(self._clock() - self._started)
        return False


class MetricsRegistry:
    """Labeled counters, gauges, and histograms behind one snapshot.

    >>> registry = MetricsRegistry()
    >>> registry.counter("requests_total", {"shard": 0}).inc()
    >>> registry.gauge("queue_depth", {"shard": 0}).set(3)
    >>> [c["value"] for c in registry.snapshot()["counters"]]
    [1]
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelItems], Histogram] = {}
        self._collectors: Dict[str, Callable[["MetricsRegistry"], None]] = {}

    # -- instrument creation (get-or-create, cheap handles) ---------------

    def counter(self, name: str, labels: Labels = None) -> Counter:
        key = (name, _label_items(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(
                    key, Counter(name, key[1])
                )
        return instrument

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        key = (name, _label_items(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(
                    key, Gauge(name, key[1])
                )
        return instrument

    def histogram(
        self,
        name: str,
        labels: Labels = None,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, _label_items(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(name, key[1], buckets)
                )
        return instrument

    def time(self, histogram: Histogram) -> _TimerContext:
        """``with registry.time(h):`` — observe the block's duration."""
        return _TimerContext(histogram, self.clock)

    # -- collectors --------------------------------------------------------

    def add_collector(
        self,
        collector: Callable[["MetricsRegistry"], None],
        key: Optional[str] = None,
    ) -> None:
        """Register a snapshot-time exporter for state held elsewhere.

        Collectors run at :meth:`snapshot` (hence also at every scrape),
        never on hot paths.  A ``key`` makes registration idempotent:
        re-registering under the same key replaces the old collector —
        how a restored engine supersedes its predecessor.
        """
        with self._lock:
            self._collectors[
                key if key is not None else f"anon-{len(self._collectors)}"
            ] = collector

    def collect(self) -> None:
        """Run every registered collector once (snapshot does this)."""
        for collector in list(self._collectors.values()):
            collector(self)

    # -- iteration ---------------------------------------------------------

    def counters(self) -> Iterator[Counter]:
        with self._lock:
            instruments = list(self._counters.values())
        return iter(instruments)

    def gauges(self) -> Iterator[Gauge]:
        with self._lock:
            instruments = list(self._gauges.values())
        return iter(instruments)

    def histograms(self) -> Iterator[Histogram]:
        with self._lock:
            instruments = list(self._histograms.values())
        return iter(instruments)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-compatible, deterministically ordered dump.

        Runs collectors first, so lazily exported state (engine stats)
        is current.  Series sort on ``(name, labels)``.
        """
        self.collect()
        counters = sorted(
            self.counters(), key=lambda i: (i.name, i.labels)
        )
        gauges = sorted(self.gauges(), key=lambda i: (i.name, i.labels))
        histograms = sorted(
            self.histograms(), key=lambda i: (i.name, i.labels)
        )
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": [
                {
                    "name": c.name,
                    "labels": dict(c.labels),
                    "value": c.value,
                }
                for c in counters
            ],
            "gauges": [
                {
                    "name": g.name,
                    "labels": dict(g.labels),
                    "value": g.value,
                }
                for g in gauges
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in histograms
            ],
        }

    def view(self, labels: Dict[str, Any]) -> "RegistryView":
        """A registry facade that stamps ``labels`` on every series.

        The serve daemon hands each tenant session
        ``registry.view({"tenant": campaign})``: the session (and its
        backend, transports, engine collectors) instruments itself
        exactly as it would against a private registry, but every
        series — including a sharded backend's ``repro_shard_up`` —
        lands tenant-labeled in the shared one.
        """
        return RegistryView(self, labels)

    def merge(
        self, snapshot: Dict[str, Any], extra_labels: Labels = None
    ) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges overwrite, histograms add element-wise —
        the split the old ``StageTimer.merge`` lacked.  ``extra_labels``
        are applied to every merged series; the sharded backend passes
        ``{"shard": i}`` so worker-local series land as per-shard ones.
        """
        extra = dict(extra_labels or {})
        for entry in snapshot.get("counters", ()):
            labels = {**entry.get("labels", {}), **extra}
            self.counter(entry["name"], labels).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            labels = {**entry.get("labels", {}), **extra}
            self.gauge(entry["name"], labels).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            labels = {**entry.get("labels", {}), **extra}
            bounds = tuple(entry["bounds"])
            histogram = self.histogram(
                entry["name"], labels, buckets=bounds
            )
            if histogram.bounds != bounds:
                raise ValueError(
                    f"histogram {entry['name']!r}: bucket bounds differ "
                    f"({histogram.bounds} vs {bounds}); cannot merge"
                )
            counts = entry["counts"]
            for index, count in enumerate(counts):
                histogram.counts[index] += count
            histogram.sum += entry["sum"]
            histogram.count += entry["count"]


class RegistryView:
    """A label-stamping facade over a shared :class:`MetricsRegistry`.

    Duck-compatible with the registry everywhere instrumented code
    touches one — ``counter``/``gauge``/``histogram``/``time``/
    ``clock``/``add_collector``/``merge``/``snapshot`` — so a component
    built against a private registry multi-tenants onto a shared one
    without changes.  Collector keys are prefixed with the view's
    labels: two tenants registering the same engine collector key stay
    two collectors, and each collector receives the *view* (not the
    parent), so the series it creates at snapshot time are stamped too.
    """

    def __init__(
        self, parent: MetricsRegistry, labels: Dict[str, Any]
    ) -> None:
        self._parent = parent
        self.labels = {
            key: str(value) for key, value in (labels or {}).items()
        }
        self._prefix = series_key("view", self.labels)

    @property
    def clock(self) -> Callable[[], float]:
        return self._parent.clock

    def _stamp(self, labels: Labels) -> Dict[str, Any]:
        return {**(labels or {}), **self.labels}

    def counter(self, name: str, labels: Labels = None) -> Counter:
        return self._parent.counter(name, self._stamp(labels))

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        return self._parent.gauge(name, self._stamp(labels))

    def histogram(
        self,
        name: str,
        labels: Labels = None,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._parent.histogram(
            name, self._stamp(labels), buckets=buckets
        )

    def time(self, histogram: Histogram) -> _TimerContext:
        return self._parent.time(histogram)

    def add_collector(
        self,
        collector: Callable[["MetricsRegistry"], None],
        key: Optional[str] = None,
    ) -> None:
        view = self
        scoped = key if key is not None else f"anon-{id(collector)}"
        self._parent.add_collector(
            lambda _registry: collector(view),
            key=f"{self._prefix}:{scoped}",
        )

    def merge(
        self, snapshot: Dict[str, Any], extra_labels: Labels = None
    ) -> None:
        self._parent.merge(
            snapshot, extra_labels=self._stamp(extra_labels)
        )

    def collect(self) -> None:
        self._parent.collect()

    def snapshot(self) -> Dict[str, Any]:
        """The *shared* registry's snapshot (all tenants; collectors
        run).  A view has no private series to dump."""
        return self._parent.snapshot()


__all__ = [
    "SNAPSHOT_FORMAT",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistryView",
    "series_key",
]
