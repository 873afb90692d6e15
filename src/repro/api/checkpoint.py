"""Checkpoint files: a session's config + engine state, atomically on disk.

One JSON document holds everything a restarted consumer needs to resume
mid-campaign: the :class:`~repro.api.config.SessionConfig` (which
deterministically regenerates the world, and therefore the IP-to-AS
database the restored engine converts with) and the backend-agnostic
engine state (:mod:`repro.stream.checkpoint` format).  Because the state
is backend-agnostic, a checkpoint written under the inline backend can be
restored under the sharded one — or under a different shard count — and
vice versa.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

from repro.util.fsio import atomic_write_bytes

# Format 2: the embedded ExecutionPolicy lost its workers, timeout,
# recovery, rebalance and shard_checkpoint_every fields, and its
# autoscale block keeps only enabled and max_shards.
# Format 3: the embedded SessionConfig lost its optimized field.
CHECKPOINT_FORMAT = 3


def write_checkpoint(
    path: os.PathLike,
    config_payload: Dict[str, Any],
    engine_payload: Dict[str, Any],
) -> Path:
    """Atomically write one checkpoint document; returns its path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format": CHECKPOINT_FORMAT,
        "config": config_payload,
        "engine": engine_payload,
    }
    atomic_write_bytes(
        target, json.dumps(document, sort_keys=True).encode("utf-8")
    )
    return target


def read_checkpoint(path: os.PathLike) -> Dict[str, Any]:
    """Load one checkpoint document (restoring it checks its format)."""
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


__all__ = ["CHECKPOINT_FORMAT", "write_checkpoint", "read_checkpoint"]
