"""The one way synthesis, detection and correlation spread work over threads.

Thermal synthesis (`_spectral`) maps its phase batches, a modulation
(`signal`) and detection their sample blocks, and correlation its slices
of the first channel.  Each caller splits its work by a rule of its own
that does not depend on the thread count, or sums exact partial
results, so every result is the same bits for any `threads`.

How many workers a stage starts is decided by `worker_count` alone:
`threads` (the `-j` bound), the stage's blocks and the CPUs the process
may run on, whichever is fewest.  More workers than CPUs would only add
their buffers and scratch to the peak memory.

What a worker holds beyond a stage's inputs and outputs is sized in
bytes against `SCRATCH_BYTES`, not in samples, and allocated on the
calling thread (`map_runs`): a pool thread's own temporaries would land
in a malloc arena of its own and stay there.  Thermal synthesis states
the two cases where its buffers may be larger (see `_spectral`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

SCRATCH_BYTES = 1 << 21  # the most one scratch buffer of a worker may hold


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(threads: int, blocks: int) -> int:
    """Workers for `blocks` blocks under `-j threads`: min(threads, blocks, CPUs), at least 1."""
    return max(1, min(threads, blocks, _cpus()))


def map_blocks(fn, *blocks, threads: int) -> list:
    """`list(map(fn, *blocks))`, spread over `worker_count(threads, blocks)` threads.

    One worker runs the blocks inline on the calling thread: a pool
    worker would get its own malloc arena, and its temporaries would
    land on fresh pages instead of reusing the caller's heap.  The
    results come back in block order either way.
    """
    blocks = [list(b) for b in blocks]
    workers = worker_count(threads, min(len(b) for b in blocks))
    if workers == 1:
        return list(map(fn, *blocks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *blocks))


def map_runs(fn, blocks: int, scratch, *, threads: int) -> list:
    """fn(buffers, b0, b1) for contiguous runs [b0, b1) of range(blocks), one run per worker.

    There are `worker_count(threads, blocks)` runs of as equal a length
    as can be, in order, and each run gets its own `scratch()`, called
    here on the calling thread.  The results come back in run order.
    """
    workers = worker_count(threads, blocks)
    edges = [blocks * w // workers for w in range(workers + 1)]
    buffers = [scratch() for _ in range(workers)]
    return map_blocks(fn, buffers, edges[:-1], edges[1:], threads=workers)
