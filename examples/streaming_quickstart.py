#!/usr/bin/env python3
"""Streaming quickstart: watch verdicts tighten as the campaign runs.

Instead of running a full campaign and solving everything in batch, this
example opens a :class:`repro.api.LocalizationSession` in live-ingest
mode: every test the platform executes flows into the session's
execution backend the moment it completes, open tomography problems
update incrementally, and verdict events print as candidate sets shrink
and censors get confirmed.  With ``--shards N`` the same stream is
partitioned across N worker processes by the bucket key — the drained
result is byte-identical either way, which the final batch comparison
demonstrates.  The time-to-localization table shows how many
measurements each true censor took to pin down.

Run with:  python examples/streaming_quickstart.py [--preset small]
           [--seed 0] [--shards N]
"""

import argparse

from repro.analysis.localization_time import TTL_HEADERS, TimeToLocalization
from repro.analysis.tables import format_table
from repro.api import ExecutionPolicy, LocalizationSession, SessionConfig
from repro.scenario.presets import PRESETS
from repro.stream import VerdictKind


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="small", choices=sorted(PRESETS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition across N worker processes (0 = inline)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    execution = (
        ExecutionPolicy(backend="sharded", shards=args.shards)
        if args.shards > 0
        else ExecutionPolicy()
    )
    session = LocalizationSession(
        SessionConfig(
            preset=args.preset, seed=args.seed, execution=execution
        )
    )

    # Print only the decisive moments; STATUS_CHANGED fires constantly.
    def narrate(event):
        if event.kind in (
            VerdictKind.CENSOR_IDENTIFIED,
            VerdictKind.CANDIDATES_SHRANK,
        ):
            print("  " + event.describe())

    session.subscribe(narrate)

    print(
        f"== streaming the {args.preset} campaign (seed {args.seed}, "
        f"{execution.backend} backend) =="
    )
    outcome = session.stream()
    world, dataset, result = outcome.world, outcome.dataset, outcome.result

    stats = session.stats
    print(
        f"\ndrained {stats.measurements} measurements into "
        f"{len(result.solutions)} problems "
        f"({stats.propagation_decided} verdicts decided by propagation, "
        f"{stats.fallback_solves} closed by the hitting-set count)"
    )

    batch = world.pipeline().run(dataset)
    identical = batch.to_dict() == result.to_dict()
    print(f"batch equivalence: {'byte-identical' if identical else 'MISMATCH'}")

    truth = sorted(world.deployment.censor_asns)
    ttl = TimeToLocalization.from_engine(session)
    print()
    print(
        format_table(
            TTL_HEADERS,
            ttl.rows(truth, world.country_by_asn),
            title="time to localization (vs hidden ground truth)",
        )
    )


if __name__ == "__main__":
    main()
