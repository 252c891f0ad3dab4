"""Order-preserving parallel map over independent tasks.

The Monte Carlo and forecast harnesses share this one helper.  Each task
draws nothing from shared state, so results do not depend on how tasks are
split into chunks or across workers; only the wall time does.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

# Chunks per worker, shared out over the runs of equal key: enough that the
# last chunk leaves little idle time, few enough that a chunk's fits share
# large lockstep batches.  On the bench cli-batch workload (2 workers,
# unkeyed chunks) 4 gave the best throughput of 16, 8, 4 and 2; with keyed
# chunks 1, 3 and 4 were within the spread of one setting's runs.
CHUNKS_PER_WORKER = 4


def parallel_map(fn, items, workers: int, key=None) -> list:
    """``fn(chunk)`` over contiguous chunks of ``items``, concatenated in order.

    ``fn`` takes a list of items and returns one result per item, so a
    chunk's items can share work.  A chunk never straddles two runs of
    consecutive items with equal ``key(item)`` (all items are one run
    without a ``key``).  With ``workers <= 1`` (or fewer than two items)
    each run is one call in this process.  Otherwise one process pool runs
    the chunks: each run is cut into chunks of ``ceil(len(run) / parts)``
    items, ``parts = ceil(workers * CHUNKS_PER_WORKER / runs)``.  Results
    come back in input order either way.  ``fn`` and the items must be
    picklable.
    """
    items = list(items)
    keys = [key(item) for item in items] if key is not None else [None] * len(items)
    starts = [i for i in range(len(items)) if i == 0 or keys[i] != keys[i - 1]]
    runs = list(zip(starts, starts[1:] + [len(items)]))
    workers = min(workers, len(items))
    if workers <= 1:
        return [result for lo, hi in runs for result in fn(items[lo:hi])]
    parts = math.ceil(workers * CHUNKS_PER_WORKER / len(runs))
    chunks = []
    for lo, hi in runs:
        size = math.ceil((hi - lo) / parts)
        chunks += [items[a : min(a + size, hi)] for a in range(lo, hi, size)]
    # The platform's default start method (fork on Linux): a spawned worker
    # re-imports numpy, scipy.special and mollifit, about 0.8 s per 2-worker
    # pool on a 2-core host against about 15 ms for fork.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for part in pool.map(fn, chunks) for result in part]
