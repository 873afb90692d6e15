"""repro.api — one session façade over batch, streaming, and sweeps.

The paper's pipeline is one logical operation — measurements in,
per-(URL, anomaly, window) censor verdicts out.  This package is its one
front door: a :class:`LocalizationSession` configured by a single typed
:class:`SessionConfig` (scenario preset + overrides, pipeline knobs, and
execution policy) runs any workload — one-shot batch, live ingest,
dataset or stored-job replay, or a whole sweep grid — through a pluggable
:class:`ExecutionBackend`:

- :class:`InlineBackend` — the current single-threaded paths;
- :class:`ShardedBackend` — open windows partitioned across worker
  processes by the bucket key, verdict events merged into one ordered
  subscriber stream, shard results merged into one
  :class:`~repro.core.pipeline.PipelineResult`.

Every backend drains byte-identical to ``LocalizationPipeline.run``
(pinned on the tiny and small presets in ``tests/test_api.py``), and
every session can :meth:`~LocalizationSession.checkpoint` its engine
state — per-problem observations, watermark — to a file from which
:meth:`LocalizationSession.restore` resumes mid-campaign, under the same
backend or a different one.

Quickstart::

    from repro.api import ExecutionPolicy, LocalizationSession

    session = LocalizationSession.from_preset(
        "small",
        seed=0,
        execution=ExecutionPolicy(backend="sharded", shards=4),
    )
    outcome = session.run()             # == LocalizationPipeline.run
    print(outcome.result.identified_censor_asns)
"""

from repro.api.backends import (
    BackendContext,
    BackendError,
    ExecutionBackend,
    InlineBackend,
    ShardedBackend,
    backend_for,
)
from repro.api.checkpoint import (
    CHECKPOINT_FORMAT,
    read_checkpoint,
    write_checkpoint,
)
from repro.api.config import (
    BACKENDS,
    TRANSPORTS,
    ExecutionPolicy,
    SessionConfig,
)
from repro.api.placement import (
    Autoscaler,
    AutoscalePolicy,
    PartitionMap,
    bucket_hash,
)
from repro.api.session import (
    LocalizationSession,
    SessionOutcome,
    StoredReplayOutcome,
)

__all__ = [
    "LocalizationSession",
    "SessionConfig",
    "ExecutionPolicy",
    "SessionOutcome",
    "StoredReplayOutcome",
    "ExecutionBackend",
    "InlineBackend",
    "ShardedBackend",
    "BackendContext",
    "BackendError",
    "backend_for",
    "PartitionMap",
    "Autoscaler",
    "AutoscalePolicy",
    "bucket_hash",
    "BACKENDS",
    "TRANSPORTS",
    "CHECKPOINT_FORMAT",
    "read_checkpoint",
    "write_checkpoint",
]
