"""Worker-count control.

LAWBOUND_THREADS caps the thread pools of `parallel_map`: the per-member
seed draws of a sampler step, the pair of ensembles that
`rollout.push_coupling` pushes side by side through the Euler solver, the
member blocks of one Euler march, and the row blocks of a distance
matrix.  Each item is computed independently and results are
gathered in input order, so outputs do not depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["worker_count", "parallel_map"]


def worker_count() -> int:
    raw = os.environ.get("LAWBOUND_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"LAWBOUND_THREADS must be an integer, got {raw!r}")
    return min(4, os.cpu_count() or 1)


def parallel_map(fn, items):
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
