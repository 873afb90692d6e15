"""One typed configuration for one localization session.

Before :mod:`repro.api`, a run's knobs were split across three objects —
:class:`~repro.scenario.config.ScenarioConfig` (the world),
:class:`~repro.core.pipeline.PipelineConfig` (the solve), and
:class:`~repro.runner.spec.JobSpec` (the JSON-friendly union of both the
sweep runner ships to workers).  :class:`SessionConfig` subsumes the
split: scenario preset + overrides, pipeline knobs, and — new — the
*execution policy* (which backend runs the work, how many shards, how
frames travel), all in primitives, so a session is content-addressable and
reconstructible in a worker process or from a checkpoint file exactly
like a job spec is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.core.pipeline import PipelineConfig
from repro.core.problem import DEFAULT_SOLUTION_CAP
from repro.runner.spec import WITH_CHURN, JobSpec
from repro.scenario.config import ScenarioConfig
from repro.stream.engine import LATE_ERROR, LATE_REOPEN

from repro.api.placement import AutoscalePolicy

BACKEND_INLINE = "inline"
BACKEND_SHARDED = "sharded"
BACKENDS = (BACKEND_INLINE, BACKEND_SHARDED)

TRANSPORT_PIPE = "pipe"
TRANSPORT_SOCKET = "socket"
TRANSPORTS = (TRANSPORT_PIPE, TRANSPORT_SOCKET)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a session's work is executed — orthogonal to *what* runs.

    ``backend`` picks the drain path: ``inline`` keeps today's
    single-threaded engine/pipeline; ``sharded`` partitions open windows
    across ``shards`` worker processes by the bucket key, ``chunk_size``
    observations per worker message.

    ``transport`` picks how shard frames travel: ``pipe`` forks local
    workers over multiprocessing pipes; ``socket`` runs the same wire
    protocol over TCP.  With ``socket`` and no ``shard_hosts``, the
    parent binds ephemeral localhost ports and spawns its own connecting
    workers (same-host TCP — the smoke-testable shape).  With
    ``shard_hosts`` (one ``host:port`` *listen* address per shard), the
    parent binds those addresses and waits ``connect_timeout`` seconds
    for external ``repro-runner shard-worker --connect`` processes.

    The sharded backend always recovers a dead shard: the parent
    respawns (pipe) or re-accepts (socket) the worker and rebuilds it
    from its last checkpoint slice plus a frame-replay log, and fails
    the stream only after ``RECOVERY_ATTEMPTS`` consecutive failed
    rebuilds.  Live placement changes (``session.rebalance()`` /
    ``add_shard()`` / ``remove_shard()``) are always allowed;
    ``autoscale`` is the :class:`AutoscalePolicy` the session (or serve
    tenant) polls to make them on its own — disabled by default, and
    only effective on the sharded backend.
    """

    backend: str = BACKEND_INLINE
    shards: int = 2
    chunk_size: int = 256          # observations per worker message
    late_policy: str = LATE_REOPEN
    transport: str = TRANSPORT_PIPE
    shard_hosts: Tuple[str, ...] = ()  # socket: per-shard listen addresses
    connect_timeout: float = 30.0      # socket: accept/reconnect seconds
    autoscale: AutoscalePolicy = field(default_factory=AutoscalePolicy)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.late_policy not in (LATE_REOPEN, LATE_ERROR):
            raise ValueError(f"unknown late policy: {self.late_policy!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got "
                f"{self.transport!r}"
            )
        if self.shard_hosts:
            if self.transport != TRANSPORT_SOCKET:
                raise ValueError(
                    "shard_hosts requires transport='socket'"
                )
            if len(self.shard_hosts) != self.shards:
                raise ValueError(
                    f"shard_hosts needs one listen address per shard "
                    f"({self.shards}), got {len(self.shard_hosts)}"
                )
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.autoscale.enabled and self.shard_hosts:
            raise ValueError(
                "autoscale cannot grow a fixed shard_hosts fleet; drop "
                "shard_hosts (self-spawned workers) or disable autoscale"
            )

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)   # recurses into autoscale
        payload["shard_hosts"] = list(self.shard_hosts)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecutionPolicy":
        kwargs = dict(payload)
        if "shard_hosts" in kwargs:
            kwargs["shard_hosts"] = tuple(kwargs["shard_hosts"])
        if isinstance(kwargs.get("autoscale"), dict):
            kwargs["autoscale"] = AutoscalePolicy.from_dict(
                kwargs["autoscale"]
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class SessionConfig:
    """Everything one :class:`~repro.api.session.LocalizationSession` needs.

    The scenario/pipeline fields mirror :class:`JobSpec` one-for-one
    (``None`` overrides mean "use the preset's value"), plus the
    :class:`ExecutionPolicy`.
    Validation is delegated to the ``JobSpec`` built in ``__post_init__``,
    so the two surfaces can never drift on what a legal workload is.
    """

    preset: str = "small"
    seed: int = 0
    churn: str = WITH_CHURN
    granularities: Tuple[str, ...] = ("day", "week", "month")
    anomalies: Tuple[str, ...] = ()  # () → the five ICLab anomalies
    solution_cap: int = DEFAULT_SOLUTION_CAP
    skip_anomaly_free: bool = False
    # scenario overrides
    duration_days: Optional[int] = None
    num_urls: Optional[int] = None
    num_vantage_points: Optional[int] = None
    tests_per_url_per_day: Optional[float] = None
    schedule: Optional[str] = None
    sweeps_per_pair_per_day: Optional[float] = None
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    _JOB_FIELDS = (
        "preset",
        "seed",
        "churn",
        "granularities",
        "anomalies",
        "solution_cap",
        "skip_anomaly_free",
        "duration_days",
        "num_urls",
        "num_vantage_points",
        "tests_per_url_per_day",
        "schedule",
        "sweeps_per_pair_per_day",
    )

    def __post_init__(self) -> None:
        self.job_spec()  # raises on any illegal scenario/pipeline knob

    # -- conversions ------------------------------------------------------

    def job_spec(self) -> JobSpec:
        """The equivalent runner job (execution policy stripped)."""
        return JobSpec(
            **{name: getattr(self, name) for name in self._JOB_FIELDS}
        )

    @classmethod
    def from_job(
        cls, job: JobSpec, execution: Optional[ExecutionPolicy] = None
    ) -> "SessionConfig":
        """Wrap an existing job spec, optionally with an execution policy."""
        kwargs = {name: getattr(job, name) for name in cls._JOB_FIELDS}
        if execution is not None:
            kwargs["execution"] = execution
        return cls(**kwargs)

    def scenario_config(self) -> ScenarioConfig:
        """The preset scenario with this session's overrides applied."""
        return self.job_spec().scenario_config()

    def pipeline_config(self) -> PipelineConfig:
        """The solve knobs."""
        return self.job_spec().pipeline_config()

    @property
    def without_churn(self) -> bool:
        """Whether this session applies the Figure-4 no-churn ablation."""
        return self.job_spec().without_churn

    # -- wire form --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (tuples become lists), round-trippable."""
        out: Dict[str, Any] = {}
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if config_field.name == "execution":
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[config_field.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionConfig":
        kwargs = dict(payload)
        for key in ("granularities", "anomalies"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "execution" in kwargs:
            kwargs["execution"] = ExecutionPolicy.from_dict(
                kwargs["execution"]
            )
        return cls(**kwargs)


__all__ = [
    "BACKENDS",
    "BACKEND_INLINE",
    "BACKEND_SHARDED",
    "TRANSPORTS",
    "TRANSPORT_PIPE",
    "TRANSPORT_SOCKET",
    "AutoscalePolicy",
    "ExecutionPolicy",
    "SessionConfig",
]
