"""Run callables in forked child processes and collect their results.

:func:`run_forked` runs its first task in the calling process and every
other task in a child made by ``os.fork``, so a child starts from the
caller's whole state without rebuilding or pickling it.  Each child
pickles its task's return value down a pipe and leaves with
``os._exit``, running none of the parent's cleanup.  The parent decodes
the replies under :func:`repro.util.collector.paused`: they are bulk,
cycle-free records.

Failures are loud and leave nothing behind.  An exception in a child
re-raises in the parent, chained to the child's traceback text.  If the
parent's own task raises or is interrupted, every child is SIGKILLed and
reaped before the exception leaves; no child outlives the call.  A child
whose parent dies first finishes its task and exits at the broken pipe.

Forking is only safe where :func:`fork_is_safe` says so: with another
thread alive, a child could inherit a lock held by a thread that does
not exist in it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import sys
import threading
import traceback
from typing import Any, Callable, Dict, List, NoReturn, Sequence, Tuple

from repro.util import collector


def fork_is_safe() -> bool:
    """Whether this process may fork children that run Python code.

    False without ``os.fork``, with another thread alive, and in a
    :mod:`multiprocessing` child, whose pool already fills the CPUs.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    # A multiprocessing child has the package imported; a process that
    # never imported it is no such child.
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is None or multiprocessing.parent_process() is None


def run_forked(tasks: Sequence[Callable[[], Any]]) -> List[Any]:
    """Each task's return value, in order: ``tasks[0]`` runs here, every
    other task in a forked child."""
    children: Dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    received: List[Tuple[int, int, bytes]] = []  # (pid, wait status, reply)
    try:
        for task in tasks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child_main(task, write_fd, [read_fd, *children.values()])
            os.close(write_fd)
            children[pid] = read_fd
        results = [tasks[0]()]
        for pid, read_fd in list(children.items()):
            blob = _read_all(read_fd)
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(read_fd)
            received.append((pid, status, blob))
    finally:
        for pid, read_fd in children.items():
            os.close(read_fd)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    with collector.paused():
        results.extend(_decode(*reply) for reply in received)
    return results


def _child_main(
    task: Callable[[], Any], write_fd: int, inherited: List[int]
) -> NoReturn:
    try:
        for read_fd in inherited:
            os.close(read_fd)
        # The inherited heap is the parent's: keep collections off it.
        gc.freeze()
        try:
            reply: tuple = ("ok", task())
        except BaseException as exc:  # the parent re-raises it
            text = traceback.format_exc()
            try:
                reply = ("error", text, pickle.dumps(exc))
            except Exception:  # unpicklable: the text still goes
                reply = ("error", text, None)
        with collector.paused():
            blob = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as out:
            out.write(blob)
    finally:
        os._exit(0)


def _decode(pid: int, status: int, blob: bytes) -> Any:
    if not blob:
        raise RuntimeError(
            f"forked child {pid} exited with code "
            f"{os.waitstatus_to_exitcode(status)} and no result"
        )
    reply = pickle.loads(blob)
    if reply[0] == "ok":
        return reply[1]
    _, text, pickled = reply
    error: BaseException = RuntimeError(f"forked child {pid} failed")
    if pickled is not None:
        # Some exceptions pickle but cannot be rebuilt.
        with contextlib.suppress(Exception):
            error = pickle.loads(pickled)
    raise error from _ChildTraceback(text)


class _ChildTraceback(Exception):
    """A forked child's traceback text, chained to its exception."""

    def __str__(self) -> str:
        return "\n\n" + self.args[0]


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


__all__ = ["fork_is_safe", "run_forked"]
