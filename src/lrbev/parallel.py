"""The worker threads that every stage of a frame shares.

``each`` is the package's one parallel map. It runs ``fn(item)`` for each
item and hands the results to the calling thread in item order, as a list
or one by one to an ``add`` callback. The calling thread works through the
items itself, and up to ``workers - 1`` helper tasks on a shared thread
pool claim items beside it, always the lowest unclaimed one. A map of one
item, or on one worker, runs inline and never starts the pool. ``each``
closes its map before it returns or raises, so no helper outlives it.

Nested maps: a map called from inside a pool task (``pipeline`` runs each
sibling stream, whose GEMM blocks are maps, as one) works the same way.
Its caller runs its items itself whenever no helper has claimed them, so
no map ever waits for a task that has not started, and nested maps cannot
deadlock however busy the pool is; at worst the caller runs every item.

Items run under the caller's floating-point error handling. Once an item
fails, no further item starts; the map raises the first failure in item
order once every started item has finished. Since items are claimed in
ascending order, every item before a failing one has run, so that is the
failure a one-worker run raises. When ``fn``'s result depends on its item
alone, the results do not depend on the worker count.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .nn import BLAS_PINNED


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API on this platform
        return os.cpu_count() or 1


# Threads a frame's maps run on, the calling thread included: one per
# usable CPU, or one when BLAS could not be pinned to a thread per call (its
# own threads would then compete with the workers for the cores).
WORKERS = _usable_cpus() if BLAS_PINNED else 1
_POOLS: dict = {}


def _pool(threads: int) -> ThreadPoolExecutor:
    # Keyed by process too: a child forked after the pool started has none
    # of its threads.
    key = (os.getpid(), threads)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS.setdefault(key, ThreadPoolExecutor(
            threads, thread_name_prefix="lrbev"))
    return pool


class _Map:
    """The state one ``each`` call shares with its helpers. Items are
    claimed in ascending order, fewer than ``window`` past the next item the
    caller takes, so at most ``window`` items are running or waiting to be
    taken at once."""

    def __init__(self, fn, items: list, window: int):
        self.fn, self.items, self.window = fn, items, window
        self.err = np.geterr()   # thread-local: helpers would start at the defaults
        self.cond = threading.Condition()
        self.claimed = self.finished = self.taken = 0
        self.stop = False        # an item failed, or the caller closed the map
        self.done: dict = {}     # item index -> (result, error), until taken

    def _claim(self, block: bool):
        """The index of the lowest unclaimed item, claimed; None when no
        item is left, the map stopped, or the window is full and ``block``
        is false."""
        with self.cond:
            while True:
                if self.stop or self.claimed == len(self.items):
                    return None
                if self.claimed < self.taken + self.window:
                    self.claimed += 1
                    return self.claimed - 1
                if not block:
                    return None
                self.cond.wait()

    def _run(self, i: int) -> None:
        try:
            with np.errstate(**self.err):
                out = self.fn(self.items[i]), None
        except BaseException as e:
            out = None, e
        with self.cond:
            self.done[i] = out
            self.finished += 1
            self.stop |= out[1] is not None
            self.cond.notify_all()

    def help(self) -> None:
        """A helper task: claims and runs items until none is left."""
        while (i := self._claim(block=True)) is not None:
            self._run(i)

    def take(self, i: int):
        """Item ``i``'s result, once every item before it has been taken;
        the caller runs unclaimed items while ``i`` runs elsewhere. Raises
        the item's error once every started item has finished."""
        while True:
            with self.cond:
                if i in self.done:
                    break
            j = self._claim(block=False)
            if j is None:
                with self.cond:
                    self.cond.wait_for(lambda: i in self.done)
                break
            self._run(j)
        with self.cond:
            out, err = self.done.pop(i)
            self.taken = i + 1
            self.cond.notify_all()
        if err is not None:
            self.close()
            raise err
        return out

    def close(self) -> None:
        """Starts no further item and waits for every started one."""
        with self.cond:
            self.stop = True
            self.cond.notify_all()
            self.cond.wait_for(lambda: self.finished == self.claimed)


def each(fn, items, workers: int, add=None) -> list:
    """``fn(item)`` of every item on up to ``workers`` threads: the caller
    and ``workers - 1`` pool helpers (see the module docstring). Calls
    ``add(item, result)`` on the calling thread in item order, or, without
    ``add``, returns the results in item order. At most ``workers`` items
    run at once, and at most ``2 * workers`` are running or hold a result
    not yet added: a helper that finishes an item before the caller adds
    the one before it goes on with the next instead of idling, and a map's
    memory stays bounded. Inline for one item or one worker. Once ``fn`` or
    ``add`` raises, no further item starts, and the error leaves once every
    started item has finished."""
    items = list(items)
    results: list = []
    if add is None:
        add = lambda _, result: results.append(result)   # noqa: E731
    if workers < 2 or len(items) < 2:
        for item in items:
            add(item, fn(item))
        return results
    run = _Map(fn, items, 2 * workers)
    pool = _pool(workers - 1)
    helpers = [pool.submit(run.help) for _ in range(min(workers, len(items)) - 1)]
    try:
        for i, item in enumerate(items):
            add(item, run.take(i))
    finally:
        run.close()
        # A helper that has not started would find nothing left: cancelled,
        # it is never waited for, however busy the pool is. (``wait`` would
        # count it done only once a pool thread dequeued it.)
        wait([helper for helper in helpers if not helper.cancel()])
    return results
