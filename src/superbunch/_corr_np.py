"""Numpy pair-counting kernel.

For every ordered pair (t1 from d1[start:stop], t2 from d2) with
0 < |t1 - t2| <= half_bins*dtau the bin index is half_bins + q for
t1 > t2 and half_bins - 1 - q for t1 < t2, where
q = (|t1 - t2| - 1) // dtau.  All quantities are integer nanoseconds;
exact zero lags fall on no bin (they cannot be mirrored symmetrically
with an even bin count).
"""

import numpy as np

_CHUNK = 8192


def pair_histogram(d1, d2, dtau_ns, half_bins, start=0, stop=None):
    if stop is None:
        stop = d1.shape[0]
    window = dtau_ns * half_bins
    counts = np.zeros(2 * half_bins, dtype=np.int64)
    for a in range(start, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        t = d1[a:b]
        lo = np.searchsorted(d2, t - window, side="left")
        hi = np.searchsorted(d2, t + window, side="right")
        per = hi - lo
        total = int(per.sum())
        if total == 0:
            continue
        ends = np.cumsum(per)
        # flat index j into d2 for every (t1, candidate) pair
        j = np.arange(total) - np.repeat(ends - per, per) + np.repeat(lo, per)
        tau = np.repeat(t, per) - d2[j]
        tau = tau[tau != 0]
        if tau.size == 0:
            continue
        q = (np.abs(tau) - 1) // dtau_ns
        inside = q < half_bins
        q = q[inside]
        bins = np.where(tau[inside] > 0, half_bins + q, half_bins - 1 - q)
        counts += np.bincount(bins, minlength=2 * half_bins)
    return counts
