"""Make a list of calls on up to two threads, results in call order.

The oracle's samplers and the formatter's chunks of a table both
run here. Their work is numpy ufuncs, fills and masks, which leave the
GIL, so two calls overlap; each call owns its buffers, so which thread
runs a call, and when, cannot change its result.
"""

from __future__ import annotations

import os
import threading


def _usable_cpus() -> int:
    """How many CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def call_all(calls, order) -> list:
    """Make every call in ``calls``, on up to two threads.

    The calling thread and at most one worker take the next index from
    ``order`` until none is left. Returns, in the order of ``calls``,
    each call's result or the exception it raised. No worker starts for
    fewer than two calls or when the process may use one CPU only. The
    cap of two bounds memory at two calls' buffers at once.
    """
    results: list = [None] * len(calls)
    pending = list(order)

    def work() -> None:
        while True:
            try:
                i = pending.pop(0)  # one atomic list operation
            except IndexError:
                return
            try:
                results[i] = calls[i]()
            except Exception as exc:  # raised by the caller, in call order
                results[i] = exc

    workers = [
        threading.Thread(target=work) for _ in range(min(2, len(calls), _usable_cpus()) - 1)
    ]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        pending.clear()  # on an interrupt, a worker stops after its call
        for worker in workers:
            worker.join()
    return results
