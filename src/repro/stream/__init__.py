"""Online streaming localization: incremental verdicts over live events.

The batch pipeline answers "which ASes censored?" after a full campaign;
this subsystem answers it *while the campaign runs*.  A
:class:`StreamingLocalizer` ingests measurements one at a time (from the
platform's drip-feed hook or a dataset replay), keeps every open (URL,
anomaly, window) tomography problem's clause ledger and unit-propagation
closure up to date incrementally, and emits verdict-delta events —
candidate set shrank, censor identified, window closed — to subscriber
callbacks.  Draining the stream reproduces the
batch :class:`~repro.core.pipeline.PipelineResult` byte for byte.

Quickstart::

    from repro.scenario import build_world, tiny
    from repro.stream import StreamingLocalizer, stream_campaign

    world = build_world(tiny(seed=0))
    engine = StreamingLocalizer(world.ip2as, world.country_by_asn)
    engine.subscribe(lambda event: print(event.describe()))
    stream_campaign(world, engine)        # verdicts stream out live
    result = engine.drain()               # == LocalizationPipeline.run
"""

from repro.stream.engine import (
    CensorIdentification,
    StreamOrderError,
    StreamingLocalizer,
)
from repro.stream.events import Subscriber, VerdictEvent, VerdictKind
from repro.stream.sources import replay_dataset, stream_campaign
from repro.stream.state import ProblemState, StreamStats

__all__ = [
    "StreamingLocalizer",
    "StreamOrderError",
    "CensorIdentification",
    "VerdictEvent",
    "VerdictKind",
    "Subscriber",
    "ProblemState",
    "StreamStats",
    "stream_campaign",
    "replay_dataset",
]
