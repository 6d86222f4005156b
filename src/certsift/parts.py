"""Work in parts on the usable CPUs: forked children, results joined in order.

Lockstep tree growth (ml.tree) and feature extraction (features) both cut
a job into independent parts whose results, joined in part order, are
exactly what one process makes.  shares is the one cut: when its caller
says forking is worth it, one contiguous share per usable CPU, each
sequence of the job cut alongside the others; else one share.  in_parts
runs all parts but the last in forked children, which inherit the caller's
state copy-on-write and send their results back pickled through a pipe,
and the last in the caller.

What a second process buys depends on the host's state, not on the job
alone.  On the 2-vCPU Xeon VM these thresholds were set on, five raw trials
of one extraction ran 1.0 to 1.9 times as fast in two processes as in one,
and a change whose throughput gain rested on the second CPU measured slower
in its benchmark than before.  So a fork threshold needs sweeps in more than
one host state (the second CPU idle, and busy), each recorded where the
threshold is set.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
from collections.abc import Callable, Sequence
from typing import NoReturn


def usable_cpus() -> int:
    """The CPUs a job may be cut over: those this process may run on, on
    Linux while no other thread is alive (a fork copies only the calling
    thread, and a lock another thread holds stays locked in the child),
    else 1."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def shares(*sequences: Sequence, worth: bool) -> list[tuple]:
    """The sequences cut alongside into contiguous shares, a tuple of one
    slice of each a share: when worth, max(1, min(usable CPUs, len of the
    first)) shares, each sequence's in proportion to its length; else one
    share of the whole."""
    n = max(1, min(usable_cpus(), len(sequences[0]))) if worth else 1
    return [tuple(items[len(items) * i // n : len(items) * (i + 1) // n] for items in sequences)
            for i in range(n)]


def in_parts(fn: Callable, parts: Sequence) -> list:
    """fn's result for each part, in order; fn never returns None.  The last
    part runs here, the others each in a forked child that sends its result
    back through a pipe and leaves by os._exit.  A part whose child cannot
    be forked, fails or sends short data runs here afterwards, as it would
    have there.  Every child is reaped before this returns or raises; on an
    error or interrupt it is killed first."""
    children: list[list] = []  # per part forked: [pid, read end], each None once done
    try:
        for part in parts[:-1]:
            read, write = os.pipe()
            child = [None, read]
            children.append(child)
            try:
                with contextlib.suppress(OSError):  # if not forked, it runs here below
                    child[0] = os.fork()
                if child[0] == 0:
                    _send(fn, part, write)
            finally:
                os.close(write)
        results = [None] * len(children) + [fn(parts[-1])]  # None: nothing received
        for i, child in enumerate(children):
            pid, read = child
            with open(read, "rb") as fh:
                child[1] = None
                data = fh.read()
            if pid is not None:
                child[0] = None
                if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
                    with contextlib.suppress(pickle.UnpicklingError, EOFError):  # if short
                        results[i] = pickle.loads(data)
    finally:
        for pid, read in children:
            if read is not None:
                os.close(read)
            if pid is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [fn(part) if result is None else result for result, part in zip(results, parts)]


def _send(fn: Callable, part, write: int) -> NoReturn:
    """In a forked child: pickle what fn returns for part to the pipe write,
    and exit, 0 once all is written, running no exit handler and flushing
    no buffer the parent left."""
    code = 1
    try:
        with open(write, "wb", closefd=False) as out:
            pickle.dump(fn(part), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
