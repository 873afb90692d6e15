"""IP traceroutes to AS-level paths (paper §3.1, "Clause formulation").

Each measurement carries three traceroutes.  Conversion maps every
responsive hop through the historical IP-to-AS database at the
measurement's timestamp, collapses consecutive duplicates, bridges
non-responsive gaps only when both responsive sides agree on the AS, and
then requires all three runs to agree on one AS-level path.

The four inconclusive cases the paper discards:

1. ``UNMAPPABLE``       — no IP in a traceroute could be mapped to an AS;
2. ``TRACEROUTE_ERROR`` — traceroutes were not possible due to errors
   (including never reaching the destination AS);
3. ``AMBIGUOUS_GAP``    — a non-responsive hop separates two *different*
   ASes, so the AS chain cannot be inferred;
4. ``MULTIPLE_PATHS``   — the three traceroutes convert to more than one
   distinct AS-level path.

Because the platform knows which AS each vantage point sits in (record
field 1), the vantage AS is prepended when the first responsive hop's AS
differs — ICLab need not infer its own location from the traceroute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.iclab.measurement import Measurement
from repro.topology.ip2as import IpToAsDatabase
from repro.traceroute.simulate import Traceroute


class InconclusiveReason(enum.Enum):
    """Why a measurement's paths could not be converted (§3.1 cases 1-4)."""

    UNMAPPABLE = "no-ip-mappable"
    TRACEROUTE_ERROR = "traceroute-error"
    AMBIGUOUS_GAP = "ambiguous-nonresponsive-gap"
    MULTIPLE_PATHS = "multiple-as-paths"


class ConversionOutcome(enum.Enum):
    """Result category of a conversion attempt."""

    OK = "ok"
    DISCARDED = "discarded"


@dataclass(frozen=True)
class AsPathConversion:
    """Outcome of converting one measurement's traceroutes."""

    outcome: ConversionOutcome
    as_path: Tuple[int, ...] = ()
    reason: Optional[InconclusiveReason] = None

    @property
    def ok(self) -> bool:
        """Whether a single conclusive AS path was obtained."""
        return self.outcome is ConversionOutcome.OK


def convert_traceroute(
    traceroute: Traceroute,
    ip2as: IpToAsDatabase,
    timestamp: int,
) -> Tuple[Optional[Tuple[int, ...]], Optional[InconclusiveReason]]:
    """Convert one traceroute to an AS-level path.

    Returns ``(path, None)`` on success or ``(None, reason)`` on failure.
    The path collapses consecutive same-AS hops; a non-responsive or
    unmappable hop between two equal ASes is bridged, between two different
    ASes it is ambiguous (rule 3).
    """
    if traceroute.error:
        return None, InconclusiveReason.TRACEROUTE_ERROR
    resolve = ip2as.resolver_at(timestamp)
    mapped: List[Optional[int]] = []
    any_mapped = False
    for address in traceroute.addresses:
        if address is None:
            mapped.append(None)
            continue
        asn = resolve(address)
        mapped.append(asn)
        if asn is not None:
            any_mapped = True
    if not any_mapped:
        return None, InconclusiveReason.UNMAPPABLE
    path: List[int] = []
    pending_gap = False
    for asn in mapped:
        if asn is None:
            if path:
                pending_gap = True
            continue  # leading gaps are harmless: the vantage AS is known
        if path and asn == path[-1]:
            pending_gap = False
            continue
        if pending_gap and path:
            # Gap between two different ASes: AS inference not possible.
            return None, InconclusiveReason.AMBIGUOUS_GAP
        path.append(asn)
        pending_gap = False
    # A trailing gap is tolerated only if the destination was still reached
    # (i.e., the last responsive hop answered); otherwise the path may be a
    # truncated prefix, which rule 2 treats as an errored traceroute.
    if not traceroute.destination_reached:
        return None, InconclusiveReason.TRACEROUTE_ERROR
    return tuple(path), None


def convert_measurement(
    measurement: Measurement,
    ip2as: IpToAsDatabase,
    cache: Optional[Dict] = None,
) -> AsPathConversion:
    """Convert a measurement's three traceroutes to one AS-level path.

    ``cache`` (optional, supplied by batch converters) memoizes
    per-traceroute conversions: a traceroute's outcome is a pure function
    of its hop-address sequence, its error/reached flags, and the IP-to-AS
    epoch in force — and loss-free runs over popular router paths repeat
    those inputs thousands of times per campaign.  The key holds the run's
    own ``addresses`` tuple, which complete runs over one router path
    share, so a repeat hit compares by identity.
    """
    paths: List[Tuple[int, ...]] = []
    reasons: List[InconclusiveReason] = []
    epoch_key = (
        ip2as.epoch_index_at(measurement.timestamp) if cache is not None else 0
    )
    for traceroute in measurement.traceroutes:
        if cache is not None:
            signature = (
                traceroute.addresses,
                traceroute.error,
                traceroute.destination_reached,
                epoch_key,
            )
            converted = cache.get(signature)
            if converted is None:
                converted = cache[signature] = convert_traceroute(
                    traceroute, ip2as, measurement.timestamp
                )
            path, reason = converted
        else:
            path, reason = convert_traceroute(
                traceroute, ip2as, measurement.timestamp
            )
        if path is None:
            assert reason is not None
            reasons.append(reason)
        else:
            paths.append(_anchor(path, measurement))
    if not paths:
        # All three failed: report the most severe reason observed, in the
        # paper's rule order (errors, then unmappable, then ambiguity).
        for preferred in (
            InconclusiveReason.TRACEROUTE_ERROR,
            InconclusiveReason.UNMAPPABLE,
            InconclusiveReason.AMBIGUOUS_GAP,
        ):
            if preferred in reasons:
                return AsPathConversion(
                    ConversionOutcome.DISCARDED, reason=preferred
                )
        return AsPathConversion(
            ConversionOutcome.DISCARDED,
            reason=InconclusiveReason.TRACEROUTE_ERROR,
        )
    distinct = list(dict.fromkeys(paths))
    if len(distinct) > 1:
        return AsPathConversion(
            ConversionOutcome.DISCARDED,
            reason=InconclusiveReason.MULTIPLE_PATHS,
        )
    return AsPathConversion(ConversionOutcome.OK, as_path=distinct[0])


def _anchor(path: Tuple[int, ...], measurement: Measurement) -> Tuple[int, ...]:
    """Prepend the known vantage AS when the trace missed its own gateway."""
    if path and path[0] == measurement.vantage_asn:
        return path
    return (measurement.vantage_asn,) + path


__all__ = [
    "InconclusiveReason",
    "ConversionOutcome",
    "AsPathConversion",
    "convert_traceroute",
    "convert_measurement",
]
