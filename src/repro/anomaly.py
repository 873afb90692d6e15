"""The five anomaly types ICLab detects (paper §2.1, Table 1).

Shared vocabulary across the censorship models (which techniques cause
which anomalies), the detectors (which anomalies a capture exhibits), and
the tomography core (one CNF per anomaly type).
"""

from __future__ import annotations

import enum


class Anomaly(enum.Enum):
    """A censorship-indicative anomaly type.

    The first five are ICLab's detectors (paper §2.1).  ``THROTTLE`` and
    ``BRIDGE`` belong to the paper's stated future work (§5: M-Lab
    throughput data for throttling, and Tor-bridge reachability), which
    this reproduction implements in :mod:`repro.extensions`; they are not
    part of :meth:`all` so the main pipeline and Table-1 accounting match
    the paper exactly.
    """

    DNS = "dns"      # injected DNS responses (two answers for one query)
    RST = "rst"      # spurious TCP reset packets
    SEQ = "seq"      # overlapping or gapped TCP sequence numbers
    TTL = "ttl"      # IP TTL of later packets inconsistent with the SYNACK
    BLOCK = "block"  # a recognizable blockpage was served
    THROTTLE = "throttle"  # extension: bandwidth throttling (M-Lab analog)
    BRIDGE = "bridge"      # extension: Tor bridge reachability blocking

    # Members are singletons compared by identity, so the C-level
    # identity hash is consistent with equality.  Enum's own __hash__
    # (a Python-level hash of the name) showed up in profiles of the
    # stream engine, whose bucket keys start with an Anomaly.
    __hash__ = object.__hash__

    @classmethod
    def all(cls) -> tuple["Anomaly", ...]:
        """The five ICLab anomaly types, in the paper's Figure-1b order."""
        return (cls.BLOCK, cls.DNS, cls.RST, cls.SEQ, cls.TTL)

    def __str__(self) -> str:
        return self.value


__all__ = ["Anomaly"]
