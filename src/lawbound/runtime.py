"""Worker-count control.

LAWBOUND_THREADS caps the thread pools of `parallel_map`: the per-member
start states of a sampler step, and the member blocks of one Euler march
(one call per march, or one per meeting of a march whose workers meet, as
`euler.push_coupling`'s do at its checkpoints).  Each item is computed
independently and results are gathered in input order, so outputs do not
depend on the worker count.

One pool per worker count is created on first use and kept for the life
of the process.  A pool made per call starts fresh threads each time, and
glibc gives a thread that starts before its predecessors have finished
exiting a malloc arena of its own; every such arena keeps part of what is
freed in it, so each one more raised peak RSS (by about 17 MB when the
two ensembles of a 16-member coupling at n=64 were pushed side by side).

`_single_blas_thread` runs a block with numpy's OpenBLAS on one thread.
`cli.main` runs each command inside it: the pool above already spreads
the work, and after each product a second BLAS thread only spins, about
0.1 s of CPU at a time.  Library calls keep the caller's BLAS setting.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import lru_cache

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


# (get, set) thread-count entry points: the scipy-openblas of numpy's
# wheels, then a system OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas():
    """(get, set) of the OpenBLAS mapped into this process, or None: no
    /proc/self/maps, no OpenBLAS there (another BLAS), or no known symbol.
    Looked up at the first call, after numpy has loaded its BLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, put_name in _OPENBLAS_SYMBOLS:
            try:
                get, put = getattr(lib, get_name), getattr(lib, put_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    caller's count, also when the block raises.  A no-op for other BLAS."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
