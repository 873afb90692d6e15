"""Job execution: in-process, and fanned out over worker processes.

``run_job`` is the one place the end-to-end chain (build world → run
campaign → run pipeline) is wired; everything else — examples, the serial
fallback, the multiprocessing pool — goes through it.  Records produced
by a worker are byte-identical to records produced serially: the canonical
record contains no timing, ordering, or host-specific data, which is what
lets the store treat a record as a pure function of its job spec.  Stage
timings (see :mod:`repro.util.profiling`) ride along under the ``perf``
key, which the store strips into a separate non-canonical sidecar.

The pool is deliberately plain ``Process`` + ``Pipe`` rather than
``ProcessPoolExecutor``: a hung job must be *terminated* when its
per-job timeout expires, and executor futures cannot be cancelled once
running.  Failed jobs (error / timeout / crash) are reported but never
stored, so a ``resume`` retries them.

Each worker's record is received by a dedicated daemon thread blocking on
the pipe and posting to a queue, so the driver thread never blocks on a
receive.  A worker wedged *mid-send* (OOM thrash, SIGSTOP) therefore
cannot escape the per-job timeout: the deadline scan terminates the
process, the receiver thread's pending ``recv`` fails with EOF, and the
job is reported as a timeout.

Fork-with-threads note: on Linux the pool forks, and once the first
receiver thread exists later forks happen in a multithreaded parent.
That is safe *here* because the forked child (:func:`_child_main`) never
touches any lock the receiver threads use — it only rebuilds the job
spec, runs the simulation, and writes to its own pipe end — but new
shared state on the worker side of the fork must keep it that way.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PipelineResult
from repro.iclab.dataset import Dataset
from repro.runner.results import (
    STATUS_CRASH,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    summarize_result,
)
from repro.runner.spec import JobSpec
from repro.runner.store import SCHEMA_VERSION, ResultStore
from repro.scenario.world import World
from repro.util.profiling import StageTimer

ProgressFn = Callable[[str], None]


@dataclass
class JobOutcome:
    """One in-process run with every artifact still live.

    Examples and notebooks use this to keep drilling into the world and
    result; sweep workers keep only ``record``.  The record — dominated
    by the serialized :class:`PipelineResult` — is built lazily, so
    in-process callers that never store it pay nothing for it.
    ``perf`` is the run's stage-timer snapshot (wall seconds per stage
    plus solver/routing counters).
    """

    job: JobSpec
    world: World
    dataset: Dataset
    result: PipelineResult
    perf: Optional[Dict[str, Any]] = None
    _record: Optional[Dict[str, Any]] = None

    @property
    def record(self) -> Dict[str, Any]:
        if self._record is None:
            self._record = _build_record(
                self.job, self.world, self.dataset, self.result, self.perf
            )
        return self._record


def _build_record(
    job: JobSpec,
    world: World,
    dataset: Dataset,
    result: PipelineResult,
    perf: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    stats = dataset.stats()
    true_censors = sorted(world.deployment.censor_asns)
    record = {
        "schema": SCHEMA_VERSION,
        "job_id": job.job_id,
        "label": job.label,
        "job": job.to_dict(),
        "status": STATUS_OK,
        "world": {
            "ases": len(world.graph),
            "links": world.graph.num_links,
            "vantage_points": len(world.vantage_points),
            "urls": len(world.test_list),
            "true_censors": true_censors,
        },
        "dataset": {
            "measurements": stats.measurements,
            "anomalies": stats.total_anomalies,
        },
        "summary": summarize_result(result, true_censors),
        "result": result.to_dict(),
    }
    if perf is not None:
        record["perf"] = perf
    return record


def run_job(job: JobSpec, timer: Optional[StageTimer] = None) -> JobOutcome:
    """Execute one job end-to-end in this process.

    Re-expressed on the :mod:`repro.api` façade: the job spec becomes a
    :class:`~repro.api.config.SessionConfig` and a
    :class:`~repro.api.session.LocalizationSession` runs the batch
    workload over the inline backend — the same world-build → campaign →
    pipeline chain (and the same stage timings) this function always
    wired, producing byte-identical records.

    A :class:`StageTimer` is threaded through the world's platform, path
    oracle, and the pipeline; pass your own to aggregate across jobs, or
    read the default one back from ``outcome.perf``.
    """
    # Deferred import: repro.api.session imports repro.runner.spec, and
    # this module loads during the repro.runner package init.
    from repro.api.config import SessionConfig
    from repro.api.session import LocalizationSession

    session = LocalizationSession(SessionConfig.from_job(job))
    outcome = session.run(timer=timer)
    return JobOutcome(
        job=job,
        world=outcome.world,
        dataset=outcome.dataset,
        result=outcome.result,
        perf=outcome.perf,
    )


def _failure_record(job: JobSpec, status: str, error: str) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "job_id": job.job_id,
        "label": job.label,
        "job": job.to_dict(),
        "status": status,
        "error": error,
    }


def execute_job(job: JobSpec) -> Dict[str, Any]:
    """Run one job, capturing any failure as an error record."""
    try:
        return run_job(job).record
    except Exception as exc:  # noqa: BLE001 - the record is the report
        return _failure_record(
            job, STATUS_ERROR, f"{type(exc).__name__}: {exc}"
        )


def _child_main(job_payload: Dict[str, Any], conn) -> None:
    """Worker entry point: rebuild the spec, run, ship the record back."""
    record = execute_job(JobSpec.from_dict(job_payload))
    conn.send(record)
    conn.close()


def _slim(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record without its full ``result`` payload or perf snapshot.

    The serialized :class:`PipelineResult` dominates a record's size;
    keeping it for every job of a large sweep would scale the driver's
    memory with total sweep output.  ``perf`` is dropped too so cache-hit
    records (which never had one) and freshly executed records compare
    equal.  The store holds both — read them back from there.
    """
    return {
        key: value
        for key, value in record.items()
        if key not in ("result", "perf")
    }


@dataclass
class SweepReport:
    """What happened to every job of one sweep invocation.

    ``records`` holds slimmed records (identity, status, summary — not
    the full serialized result; see :func:`_slim`).
    """

    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    elapsed_by_job: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.records)



def run_sweep(
    jobs: Sequence[JobSpec],
    store: Optional[ResultStore] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepReport:
    """Run every job, skipping store hits and checkpointing completions.

    ``workers <= 1`` runs serially in-process (the fallback when
    multiprocessing is unavailable or undesired) — unless ``timeout`` is
    set, which always routes jobs through worker processes, because
    terminating the worker is the only way to stop a hung job.
    Successful records are put into the store as they complete, so an
    interrupted sweep loses at most the in-flight jobs.
    """
    report = SweepReport()
    say = progress or (lambda message: None)
    todo: List[JobSpec] = []
    seen: set = set()
    for job in jobs:
        if job.job_id in seen:
            continue  # identical spec → identical record; run once
        seen.add(job.job_id)
        cached = store.get(job.job_id) if store is not None else None
        if cached is not None:
            report.records[job.job_id] = _slim(cached)
            report.cache_hits += 1
            say(f"[cache] {job.label}")
        else:
            todo.append(job)

    done = 0

    def handle(job: JobSpec, record: Dict[str, Any], elapsed: float) -> None:
        nonlocal done
        done += 1
        report.records[job.job_id] = _slim(record)
        report.elapsed_by_job[job.job_id] = elapsed
        report.executed += 1
        if record["status"] == STATUS_OK:
            if store is not None:
                store.put(record)
            summary = record["summary"]
            say(
                f"[{done}/{len(todo)}] {job.label}: "
                f"{summary['unique']} unique / {summary['multiple']} multiple "
                f"/ {summary['unsat']} unsat ({elapsed:.1f}s)"
            )
        else:
            report.failures += 1
            say(
                f"[{done}/{len(todo)}] {job.label}: "
                f"{record['status'].upper()} {record.get('error', '')} "
                f"({elapsed:.1f}s)"
            )

    if timeout is None and (workers <= 1 or len(todo) <= 1):
        for job in todo:
            started = time.monotonic()
            record = execute_job(job)
            handle(job, record, time.monotonic() - started)
    else:
        _run_parallel(
            todo, workers=max(1, workers), timeout=timeout, handle=handle
        )
    return report


def _pool_context():
    # Fork is the cheap path but only trustworthy on Linux; macOS moved
    # its default to spawn because forking after CoreFoundation use
    # aborts the child (bpo-33725).  Elsewhere, keep the platform default.
    if sys.platform == "linux":
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _Worker:
    """One in-flight job: its process, pipe, and receiver thread."""

    __slots__ = ("job", "process", "conn", "started")

    def __init__(self, ctx, job: JobSpec, completions) -> None:
        self.job = job
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_child_main, args=(job.to_dict(), child_conn)
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.started = time.monotonic()
        # The receiver owns the blocking recv so the driver thread never
        # does; a daemon thread can't hold up interpreter exit even if the
        # worker wedges forever.
        receiver = threading.Thread(
            target=_receive, args=(job.job_id, parent_conn, completions),
            daemon=True,
        )
        receiver.start()

    def close(self, terminate: bool) -> None:
        if terminate and self.process.is_alive():
            self.process.terminate()
        self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass


def _receive(job_id: str, conn, completions) -> None:
    try:
        record = conn.recv()
    except (EOFError, OSError):
        record = None
    completions.put((job_id, record))


def _run_parallel(
    jobs: Sequence[JobSpec],
    workers: int,
    timeout: Optional[float],
    handle: Callable[[JobSpec, Dict[str, Any], float], None],
) -> None:
    """A terminate-capable pool: one process per in-flight job."""
    ctx = _pool_context()
    pending = deque(jobs)
    active: Dict[str, _Worker] = {}
    completions: "queue_module.Queue[Tuple[str, Optional[Dict[str, Any]]]]" = (
        queue_module.Queue()
    )

    try:
        while pending or active:
            while pending and len(active) < workers:
                job = pending.popleft()
                active[job.job_id] = _Worker(ctx, job, completions)

            # Drain completed records first so a record racing a deadline
            # is never misreported as a timeout.
            try:
                job_id, record = completions.get(timeout=0.02)
            except queue_module.Empty:
                job_id, record = None, None
            if job_id is not None:
                worker = active.pop(job_id, None)
                if worker is not None:
                    elapsed = time.monotonic() - worker.started
                    if record is None:
                        # Receiver hit EOF: the worker died mid-record or
                        # before sending.
                        worker.close(terminate=True)
                        record = _failure_record(
                            worker.job,
                            STATUS_CRASH,
                            "worker died with exit code "
                            f"{worker.process.exitcode}",
                        )
                    else:
                        worker.close(terminate=False)
                    handle(worker.job, record, elapsed)

            if timeout is not None:
                now = time.monotonic()
                for job_id, worker in list(active.items()):
                    if now - worker.started <= timeout:
                        continue
                    # Deadline passed.  The record may still be sitting in
                    # the queue (received between scans): drain once more
                    # before declaring a timeout.
                    drained: List[Tuple[str, Optional[Dict[str, Any]]]] = []
                    timed_out_record: Optional[Dict[str, Any]] = None
                    while True:
                        try:
                            done_id, done_record = completions.get_nowait()
                        except queue_module.Empty:
                            break
                        if done_id == job_id:
                            timed_out_record = done_record
                        else:
                            drained.append((done_id, done_record))
                    for item in drained:
                        completions.put(item)
                    elapsed = now - worker.started
                    del active[job_id]
                    if timed_out_record is not None:
                        worker.close(terminate=False)
                        handle(worker.job, timed_out_record, elapsed)
                        continue
                    # Terminating the sender unblocks the receiver thread
                    # (EOF), whose late completion is ignored because the
                    # job is no longer active.
                    worker.close(terminate=True)
                    handle(
                        worker.job,
                        _failure_record(
                            worker.job,
                            STATUS_TIMEOUT,
                            f"exceeded {timeout:.1f}s",
                        ),
                        elapsed,
                    )
    finally:
        # On KeyboardInterrupt or a handler failure (e.g. the store's
        # disk filling), live non-daemon workers would otherwise be
        # joined by multiprocessing's atexit hook — a hung job would
        # block interpreter exit indefinitely.
        for worker in active.values():
            worker.close(terminate=True)


__all__ = [
    "JobOutcome",
    "run_job",
    "execute_job",
    "run_sweep",
    "SweepReport",
]
