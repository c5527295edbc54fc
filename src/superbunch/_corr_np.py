"""Numpy pair-counting kernel.

For every ordered pair (t1 from d1[start:stop], t2 from d2) with
0 < |t1 - t2| <= half_bins*dtau the bin index is half_bins + q for
t1 > t2 and half_bins - 1 - q for t1 < t2, where
q = (|t1 - t2| - 1) // dtau.  All quantities are integer nanoseconds;
exact zero lags fall on no bin (they cannot be mirrored symmetrically
with an even bin count).

Both cases are one floor division of the signed lag tau = t1 - t2:
half_bins + (tau - [tau > 0]) // dtau.  For tau > 0 that is
half_bins + (tau - 1) // dtau = half_bins + q; for tau < 0 floor division
gives tau // dtau = -1 - (|tau| - 1) // dtau, so the sum is
half_bins - 1 - q.  A zero lag lands in bin half_bins by the same
formula; the zero-lag pairs are counted once per D1 event by
`searchsorted` and subtracted from that bin afterwards.  The
`searchsorted` window bounds already give |tau| <= half_bins*dtau, so
every index is inside the histogram.

The D1 events are processed in chunks cut where the running pair count
crosses `_PAIRS`, so the per-pair temporaries stay near `_PAIRS` int64
values whatever the rate and window (a single D1 event with more
partners than that is a chunk of its own).
"""

import numpy as np

_PAIRS = 1 << 18


def pair_histogram(d1, d2, dtau_ns, half_bins, start=0, stop=None):
    if stop is None:
        stop = d1.shape[0]
    window = dtau_ns * half_bins
    counts = np.zeros(2 * half_bins, dtype=np.int64)
    t = d1[start:stop]
    lo = np.searchsorted(d2, t - window, side="left")
    per = np.searchsorted(d2, t + window, side="right")
    per -= lo
    ends = np.cumsum(per)
    a = 0
    while a < t.size:
        done = int(ends[a - 1]) if a else 0
        b = max(int(np.searchsorted(ends, done + _PAIRS, side="right")), a + 1)
        n = int(ends[b - 1]) - done
        if n:
            k = per[a:b]
            # flat index into d2 of every (t1, partner) pair of the chunk
            j = np.repeat(lo[a:b] - (ends[a:b] - k - done), k)
            j += np.arange(n)
            tau = np.repeat(t[a:b], k)
            tau -= d2[j]
            del j
            tau -= tau > 0
            tau //= dtau_ns
            tau += half_bins
            counts += np.bincount(tau, minlength=2 * half_bins)
        a = b
    zero = np.searchsorted(d2, t, side="right") - np.searchsorted(d2, t, side="left")
    counts[half_bins] -= zero.sum()
    return counts
