"""Order-preserving parallel map over independent tasks.

The Monte Carlo and forecast harnesses share this one helper.  Each task
draws nothing from shared state, so results do not depend on how tasks are
split into chunks or across workers; only the wall time does.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

# Chunks per worker: enough that the last chunk leaves little idle time,
# few enough that a chunk's fits share large lockstep batches.  On the
# bench cli-batch workload (2 workers) 4 gave the best throughput of 16, 8,
# 4 and 2.
CHUNKS_PER_WORKER = 4


def parallel_map(fn, items, workers: int) -> list:
    """``fn(chunk)`` over contiguous chunks of ``items``, concatenated in order.

    ``fn`` takes a list of items and returns one result per item, so a
    chunk's items can share work.  With ``workers <= 1`` (or fewer than two
    items) it is one call on all items in this process.  Otherwise one
    process pool runs chunks of ``ceil(len / (workers * CHUNKS_PER_WORKER))``
    items; results come back in input order either way.  ``fn`` and the
    items must be picklable.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return fn(items)
    size = math.ceil(len(items) / (workers * CHUNKS_PER_WORKER))
    chunks = [items[lo : lo + size] for lo in range(0, len(items), size)]
    # The platform's default start method (fork on Linux): a spawned worker
    # re-imports numpy and scipy, about 1.4 s per 2-worker pool on a 2-core
    # host against about 30 ms for fork.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for part in pool.map(fn, chunks) for result in part]
