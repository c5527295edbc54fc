"""The one way synthesis, detection and correlation spread work over threads.

Thermal synthesis (`_spectral`) maps its phase batches, a modulation
(`signal`) and detection their sample blocks, and correlation its slices
of the first channel.  Each caller splits its work by a rule of its own
that does not depend on the thread count, or sums exact partial
results, so every result is the same bits for any `threads`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def map_blocks(fn, *blocks, threads: int) -> list:
    """`list(map(fn, *blocks))`, spread over at most `threads` worker threads.

    The pool has no more workers than blocks.  One worker runs the
    blocks inline on the calling thread: a pool worker would get its own
    malloc arena, and its temporaries would land on fresh pages instead
    of reusing the caller's heap.  The results come back in block order
    either way.
    """
    blocks = [list(b) for b in blocks]
    workers = min(threads, min(len(b) for b in blocks))
    if workers <= 1:
        return list(map(fn, *blocks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *blocks))
