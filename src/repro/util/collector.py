"""Pause the cyclic garbage collector around bulk, cycle-free work.

The localization chain and the wire codec build hundreds of thousands of
container objects (observations, path tuples, ledgers, solutions, pickled
frames) that form no reference cycles: reference counting frees all of
their garbage.  Every collection the allocation count triggers meanwhile
walks the live ones and frees nothing; at seed 1 those collections were
a fifth of ``LocalizationPipeline.run``.  :func:`paused` switches the
collector off for the duration of a block.

The collector's switch is process-wide, so the pause is shared: it is
re-entrant (a paused pipeline may call a paused codec) and thread-safe.
Under one lock, the first thread to enter records whether the collector
was on and disables it; the last thread to leave turns it back on only
if the first entrant found it on.  A caller that runs with the collector
off therefore never gets it switched on by a pause.

Depths are kept per thread so that a fork stays safe: the child of a
fork made while other threads were inside a pause inherits a disabled
collector, but none of those threads exist in the child to re-enable
it.  An ``os.register_at_fork`` hook keeps only the forking thread's own
depth in the child and, when that is zero, restores the state the first
entrant found.
"""

from __future__ import annotations

import gc
import os
import threading
from typing import Dict

_lock = threading.Lock()
_depths: Dict[int, int] = {}   # thread ident -> nesting depth, while > 0
_resume = False                # the collector was on when the pause began


class _Pause:
    """The shared pause; stateless, all state is module-level."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _resume
        ident = threading.get_ident()
        with _lock:
            if not _depths:
                _resume = gc.isenabled()
                gc.disable()
            _depths[ident] = _depths.get(ident, 0) + 1

    def __exit__(self, *exc_info: object) -> None:
        ident = threading.get_ident()
        with _lock:
            depth = _depths.pop(ident) - 1
            if depth:
                _depths[ident] = depth
            elif not _depths and _resume:
                gc.enable()


_PAUSE = _Pause()


def paused() -> _Pause:
    """A context manager that keeps the cyclic collector off inside it."""
    return _PAUSE


def _after_fork_in_child() -> None:
    global _lock
    # Another thread may have held the lock at the fork; it does not
    # exist here to release it.
    _lock = threading.Lock()
    ident = threading.get_ident()
    own = _depths.pop(ident, 0)
    others = bool(_depths)
    _depths.clear()
    if own:
        _depths[ident] = own   # the forking thread's own exit restores
    elif others and _resume:
        gc.enable()


os.register_at_fork(after_in_child=_after_fork_in_child)


__all__ = ["paused"]
