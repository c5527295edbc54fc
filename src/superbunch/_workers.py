"""The one way detection and correlation spread blocks of work over threads."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def map_blocks(fn, *blocks, threads: int) -> list:
    """`list(map(fn, *blocks))`, spread over `threads` worker threads.

    One thread runs the blocks inline on the calling thread: a pool
    worker would get its own malloc arena, and its temporaries would
    land on fresh pages instead of reusing the caller's heap.  The
    results come back in block order either way.
    """
    if threads == 1:
        return list(map(fn, *blocks))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *blocks))
