"""Numpy pair-counting kernel.

For every ordered pair (t1 from d1[start:stop], t2 from d2) with
0 < |t1 - t2| <= W = half_bins*dtau the bin index is half_bins + q for
t1 > t2 and half_bins - 1 - q for t1 < t2, where
q = (|t1 - t2| - 1) // dtau.  All quantities are integer nanoseconds;
exact zero lags fall on no bin (they cannot be mirrored symmetrically
with an even bin count).

Each D1 event's partners are split into two runs of consecutive d2
indices, found by `searchsorted`: those before it,
[left(t1 - W), left(t1)), and those after it, [right(t1), right(t1 + W)).
Pairs at exactly zero lag fall in neither.  On each run the bin is one
affine floor of t2 with no sign test: before t1 it is
(t1 - 1 + W - t2) // dtau = half_bins + q, after t1 it is
(t1 + W - t2) // dtau = half_bins - 1 - q.  Both numerators lie in
[0, 2W), so every index is inside the histogram.

The pairs are visited by partner offset, not by D1 event.  A block of
`_BLOCK` D1 events gives 2*_BLOCK runs, sorted by length (a stable sort
on a uint16 key is a radix sort; runs of 65536 or more partners fall
back to the int64 key), so the runs longer than offset m are a suffix.
For m = 0, 1, ... one gather of d2[first + m] over that suffix, one
subtraction, one floor division and one `bincount` count the m-th
partner of every run still open; the division is unsigned, as every
numerator is non-negative, which gives the same floor and costs less
than the signed one.  Once fewer than `_TAIL` runs are open
their remaining pairs are enumerated flat, `_TAIL_PAIRS` at a time, so
a few events with huge windows cost no Python loop per offset.  Working
memory is a few int64 arrays of 2*_BLOCK runs plus about 40 bytes per
tail pair, whatever the rate and window.
"""

import numpy as np

_BLOCK = 1 << 15
_TAIL = 1000
_TAIL_PAIRS = 1 << 16


def pair_histogram(d1, d2, dtau_ns, half_bins, start=0, stop=None):
    if stop is None:
        stop = d1.shape[0]
    window = dtau_ns * half_bins
    counts = np.zeros(2 * half_bins, dtype=np.int64)
    for a in range(start, stop, _BLOCK):
        t = d1[a : min(a + _BLOCK, stop)]
        # partners before t1, then partners after t1
        first = np.concatenate(
            (np.searchsorted(d2, t - window, side="left"), np.searchsorted(d2, t, side="right"))
        )
        lens = np.concatenate(
            (np.searchsorted(d2, t, side="left"), np.searchsorted(d2, t + window, side="right"))
        )
        lens -= first
        base = np.concatenate((t + (window - 1), t + window))
        _count_runs(counts, d2, first, lens, base, dtau_ns)
    return counts


def _count_runs(counts, d2, first, lens, base, dtau_ns):
    """Add (base[i] - d2[first[i] + m]) // dtau_ns for 0 <= m < lens[i], every run i."""
    n = lens.size
    key = lens.astype(np.uint16) if lens.max() < 1 << 16 else lens
    order = np.argsort(key, kind="stable")
    lens = lens[order]
    first = first[order]
    base = base[order]
    # offsets m below m_stop leave at least _TAIL runs open
    m_stop = int(lens[n - _TAIL]) if n >= _TAIL else 0
    suffix = np.searchsorted(lens, np.arange(m_stop), side="right")
    buf = np.empty(n, dtype=np.int64)
    for m, k in enumerate(suffix.tolist()):
        v = buf[: n - k]
        # the indices are in range; mode="raise" would buffer out= and
        # cost twice as much
        np.take(d2[m:], first[k:], out=v, mode="clip")
        np.subtract(base[k:], v, out=v)
        _floor_in_place(v, dtau_ns)
        counts += np.bincount(v, minlength=counts.size)
    k = int(np.searchsorted(lens, m_stop, side="right"))
    _count_flat(counts, d2, first[k:] + m_stop, lens[k:] - m_stop, base[k:], dtau_ns)


def _count_flat(counts, d2, first, lens, base, dtau_ns):
    """The same sum as _count_runs, enumerated _TAIL_PAIRS pairs at a time."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    for p in range(0, total, _TAIL_PAIRS):
        q = min(p + _TAIL_PAIRS, total)
        # runs a..b-1 hold pairs p..q-1; a run may straddle a chunk edge
        a = int(np.searchsorted(ends, p, side="right"))
        b = int(np.searchsorted(ends, q, side="left")) + 1
        k = np.minimum(ends[a:b], q) - np.maximum(ends[a:b] - lens[a:b], p)
        # flat index into d2 of pair p + x is first[i] - (ends[i] - lens[i]) + p + x
        j = np.repeat(first[a:b] - ends[a:b] + lens[a:b] + p, k)
        j += np.arange(q - p)
        v = np.repeat(base[a:b], k)
        v -= d2[j]
        del j
        _floor_in_place(v, dtau_ns)
        counts += np.bincount(v, minlength=counts.size)


def _floor_in_place(v, dtau_ns):
    """v //= dtau_ns for v >= 0, by the unsigned division: the same floor, and faster."""
    u = v.view(np.uint64)
    u //= np.uint64(dtau_ns)
