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
from typing import Dict, List, Optional, Tuple

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


_ERROR = InconclusiveReason.TRACEROUTE_ERROR
_UNMAPPABLE = InconclusiveReason.UNMAPPABLE
_AMBIGUOUS = InconclusiveReason.AMBIGUOUS_GAP
_MULTIPLE = InconclusiveReason.MULTIPLE_PATHS

# When all three runs fail: the most severe reason observed wins, in the
# paper's rule order (errors, then unmappable, then ambiguity).
_SEVERITY = (_ERROR, _UNMAPPABLE, _AMBIGUOUS)

Converted = Tuple[Optional[Tuple[int, ...]], Optional[InconclusiveReason]]


def _hops_to_path(
    addresses: Tuple[Optional[int], ...], epoch_map: Dict
) -> Converted:
    """Rules 1 and 3 over one run's hop addresses: the part of a run's
    conversion that depends only on its addresses and the epoch.

    Collapses consecutive same-AS hops; a non-responsive or unmappable
    hop between two equal ASes is bridged, between two different ASes it
    is ambiguous.
    """
    path: List[int] = []
    pending_gap = False
    for asn in map(epoch_map.__getitem__, addresses):
        if asn is None:
            if path:
                pending_gap = True
            continue  # leading gaps are harmless: the vantage AS is known
        if path and asn == path[-1]:
            pending_gap = False
            continue
        if pending_gap:
            # Gap between two different ASes: AS inference not possible.
            return None, _AMBIGUOUS
        path.append(asn)
    if not path:
        return None, _UNMAPPABLE
    return tuple(path), None


def convert_traceroute(
    traceroute: Traceroute,
    ip2as: IpToAsDatabase,
    timestamp: int,
) -> Converted:
    """Convert one traceroute to an AS-level path.

    Returns ``(path, None)`` on success or ``(None, reason)`` on failure.
    The path collapses consecutive same-AS hops; a non-responsive or
    unmappable hop between two equal ASes is bridged, between two different
    ASes it is ambiguous (rule 3).  An errored run fails rule 2 before
    any mapping; a run that never reached its destination fails rule 2
    only when its addresses alone would convert.
    """
    if traceroute.error:
        return None, _ERROR
    path, reason = _hops_to_path(
        traceroute.addresses,
        ip2as.epoch_map(ip2as.epoch_index_at(timestamp)),
    )
    # A trailing gap is tolerated only if the destination was still reached
    # (i.e., the last responsive hop answered); otherwise the path may be a
    # truncated prefix, which rule 2 treats as an errored traceroute.
    if path is not None and not traceroute.destination_reached:
        return None, _ERROR
    return path, reason


def _convert(
    measurement: Measurement, ip2as: IpToAsDatabase, cache: Dict
) -> Converted:
    """The conversion core: ``(as_path, None)`` or ``(None, reason)``.

    Each run's address part (:func:`_hops_to_path`) is memoized in
    ``cache`` by ``(epoch, addresses)`` — a nested dict, one inner dict
    per epoch.  It is a pure function of those two, and loss-free runs
    over popular router paths repeat them thousands of times per
    campaign; complete runs over one router path share one ``addresses``
    tuple, so a repeat hit compares by identity.  The run's ``error``
    and ``destination_reached`` flags apply outside the memo, with the
    precedence of :func:`convert_traceroute`.
    """
    index = ip2as.epoch_index_at(measurement.timestamp)
    memo = cache.get(index)
    if memo is None:
        memo = cache[index] = {}
    paths: List[Tuple[int, ...]] = []
    reasons: List[InconclusiveReason] = []
    for run in measurement.traceroutes:
        if run.error:
            reasons.append(_ERROR)
            continue
        addresses = run.addresses
        converted = memo.get(addresses)
        if converted is None:
            converted = memo[addresses] = _hops_to_path(
                addresses, ip2as.epoch_map(index)
            )
        path, reason = converted
        if path is None:
            reasons.append(reason)
        elif run.destination_reached:
            paths.append(path)
        else:
            reasons.append(_ERROR)
    if not paths:
        for preferred in _SEVERITY:
            if preferred in reasons:
                return None, preferred
        return None, _ERROR
    vantage = measurement.vantage_asn
    first = paths[0]
    anchored = _anchor(first, vantage)
    for path in paths:
        # Distinct raw paths can anchor to one path, so compare anchored.
        if path is not first and _anchor(path, vantage) != anchored:
            return None, _MULTIPLE
    return anchored, None


def convert_measurement(
    measurement: Measurement,
    ip2as: IpToAsDatabase,
    cache: Optional[Dict] = None,
) -> AsPathConversion:
    """Convert a measurement's three traceroutes to one AS-level path.

    All runs that convert must agree on one path (rule 4); failed runs
    are ignored when one converts.  ``cache`` (optional, supplied by
    batch converters) memoizes per-run conversions across measurements
    (see :func:`_convert`); its contents are private to this module.
    """
    path, reason = _convert(
        measurement, ip2as, {} if cache is None else cache
    )
    if path is None:
        return AsPathConversion(ConversionOutcome.DISCARDED, reason=reason)
    return AsPathConversion(ConversionOutcome.OK, as_path=path)


def _anchor(path: Tuple[int, ...], vantage_asn: int) -> Tuple[int, ...]:
    """Prepend the known vantage AS when the trace missed its own gateway."""
    if path[0] == vantage_asn:
        return path
    return (vantage_asn,) + path


__all__ = [
    "InconclusiveReason",
    "ConversionOutcome",
    "AsPathConversion",
    "convert_traceroute",
    "convert_measurement",
]
