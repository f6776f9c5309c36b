"""Worker-count control.

LAWBOUND_THREADS caps the thread pools of `parallel_map`: the per-member
start states of a sampler step, the pair of ensembles that
`rollout.push_coupling` pushes side by side through the Euler solver, and
the member blocks of one Euler march.  Each item is computed independently
and results are gathered in input order, so outputs do not depend on the
worker count.

One pool per worker count is created on first use and kept for the life
of the process.  A pool made per call starts fresh threads each time, and
glibc gives a thread that starts before its predecessors have finished
exiting a malloc arena of its own; every such arena keeps part of what is
freed in it, so each one more raised peak RSS (by about 17 MB when the
two ensembles of a 16-member coupling at n=64 are pushed side by side).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

__all__ = ["worker_count", "parallel_map"]


def worker_count() -> int:
    raw = os.environ.get("LAWBOUND_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"LAWBOUND_THREADS must be an integer, got {raw!r}")
    return min(4, os.cpu_count() or 1)


_pools = {}                   # worker count -> its executor
_in_pool = threading.local()


def _mark_pool_thread():
    _in_pool.active = True


def parallel_map(fn, items):
    """[fn(x) for x in items], the items spread over the shared pool.

    Every item finishes before the first exception, in input order, is
    raised.  A call made from a pool thread runs inline: its items would
    otherwise wait for threads that are busy with the outer call."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1 or getattr(_in_pool, "active", False):
        return [fn(x) for x in items]
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools.setdefault(workers, ThreadPoolExecutor(
            max_workers=workers, initializer=_mark_pool_thread))
    futures = [pool.submit(fn, x) for x in items]
    wait(futures)
    return [f.result() for f in futures]
