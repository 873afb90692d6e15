"""Event sources feeding the streaming engine.

Two ways to drive a :class:`~repro.stream.engine.StreamingLocalizer`:

- :func:`stream_campaign` — the live drip feed: subscribes to the
  platform's measurement hook and runs the campaign, so the engine sees
  every measurement the moment ``ICLabPlatform.run_test`` produces it;
- :func:`replay_dataset` — replays a stored/previously collected dataset
  in its recorded order.

Both deliver measurements in the same order the batch pipeline
consumes them, which is what makes ``drain()`` byte-identical to
``LocalizationPipeline.run``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.observations import build_observations, first_path_only
from repro.core.pipeline import PipelineResult
from repro.iclab.dataset import Dataset
from repro.scenario.world import World
from repro.stream.engine import StreamingLocalizer


def stream_campaign(
    world: World,
    engine: StreamingLocalizer,
    progress_every: int = 0,
) -> Dataset:
    """Run the world's campaign, drip-feeding the engine as tests execute.

    Returns the dataset the campaign produced (identical to what
    ``world.run_campaign()`` alone would return); the engine is left
    undrained so callers can keep streaming or call ``drain()``.
    """
    platform = world.platform
    platform.add_listener(engine.ingest_measurement)
    try:
        return platform.run_campaign(progress_every=progress_every)
    finally:
        platform.remove_listener(engine.ingest_measurement)


def replay_dataset(
    dataset: Dataset,
    engine: StreamingLocalizer,
    without_churn: bool = False,
) -> None:
    """Replay every measurement of a stored dataset, in recorded order.

    With ``without_churn`` the Figure-4 ablation is applied first: the
    dataset is converted up front, :func:`first_path_only` drops every
    churn-created path, and the surviving observations are ingested in
    the filter's (timestamp-sorted) order — exactly the sequence
    ``LocalizationPipeline.run_without_churn`` solves, so the drained
    result stays byte-identical to the batch ablation.  The ablation is
    inherently offline (the anchor path per (vantage, URL) pair follows
    timestamp order, not arrival order), hence replay-only.
    """
    if not without_churn:
        for measurement in dataset:
            engine.ingest_measurement(measurement)
        return
    observations, stats = build_observations(
        dataset, engine.ip2as, anomalies=engine.config.anomalies
    )
    engine.merge_discard_stats(stats)
    for observation in first_path_only(observations):
        engine.ingest_observation(observation)


def compare_with_stored(
    result: PipelineResult, stored: Dict[str, Any]
) -> List[str]:
    """Differences between a stream result and a stored result payload.

    Compares the acceptance-criteria surface: per-problem statuses and
    the identified censor ASNs.  Returns human-readable mismatch lines
    (empty = equivalent).
    """
    mismatches: List[str] = []
    stored_statuses = {
        _key_id(entry["key"]): entry["status"]
        for entry in stored.get("solutions", [])
    }
    live_statuses = {
        _key_id(
            {
                "url": solution.key.url,
                "anomaly": solution.key.anomaly.value,
                "granularity": solution.key.granularity.value,
                "window": {"start": solution.key.window.start},
            }
        ): solution.status.value
        for solution in result.solutions
    }
    for key_id, status in sorted(stored_statuses.items()):
        live = live_statuses.get(key_id)
        if live is None:
            mismatches.append(f"missing problem {key_id}")
        elif live != status:
            mismatches.append(f"{key_id}: stored {status}, streamed {live}")
    for key_id in sorted(set(live_statuses) - set(stored_statuses)):
        mismatches.append(f"extra problem {key_id}")
    stored_censors = sorted(
        {
            finding["asn"]
            for finding in stored.get("censor_report", {}).get("findings", [])
        }
    )
    live_censors = result.identified_censor_asns
    if stored_censors != live_censors:
        mismatches.append(
            f"censors: stored {stored_censors}, streamed {live_censors}"
        )
    return mismatches


def _key_id(payload: Dict[str, Any]) -> Tuple[str, str, str, int]:
    return (
        payload["url"],
        payload["anomaly"],
        payload["granularity"],
        payload["window"]["start"],
    )


__all__ = [
    "stream_campaign",
    "replay_dataset",
    "compare_with_stored",
]
