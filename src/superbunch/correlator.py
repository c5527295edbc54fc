"""Coincidence histograms and normalized second-order correlation curves.

The histogram counts every ordered pair of events (one per channel) whose
lag falls inside a symmetric window.  Work is integer nanoseconds
throughout.  Bins are arranged mirror-symmetrically about zero lag: the
bin q steps to the positive side covers lags in (q*dtau, (q+1)*dtau] and
its negative twin covers the negated range, so correlating a stream with
itself produces an exactly symmetric histogram.  A pair at exactly zero
lag belongs to no bin (with an even bin count there is no symmetric place
for it); at nanosecond resolution such pairs are a vanishing fraction of
any physical window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _corr_np, _kernels
from ._text import write_csv
from ._workers import map_blocks, worker_count
from .errors import DataError


# Every window is shorter than this many nanoseconds.  The correlator adds
# its window to int64 timestamps, so a photon file's timestamps stay this
# far below 2**63 (`detection.TIMESTAMP_END_NS`), and a 1 ns bin keeps the
# counts addressable.
WINDOW_LIMIT_NS = 2**58

# The most bins per side: 16 MB of int64 counts, so a window too wide for
# its bins is refused before the histogram is allocated.
HALF_BINS_LIMIT = 2**20


@dataclass(frozen=True, eq=False)
class G2Curve:
    """Normalized correlation values on a lag grid with 1-sigma errors."""

    tau: np.ndarray
    value: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        value = np.asarray(self.value, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        for name, arr in (("tau", tau), ("value", value), ("stderr", stderr)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            object.__setattr__(self, name, arr)
        if not (tau.size == value.size == stderr.size):
            raise ValueError("tau, value and stderr must have equal length")
        if tau.size == 0:
            raise ValueError("curve must not be empty")
        if not np.all(np.isfinite(value)):
            raise ValueError("curve values must be finite")
        if stderr.min() < 0:
            raise ValueError("errors must be nonnegative")

    def __len__(self) -> int:
        return self.tau.size


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Raw pair counts plus the metadata needed to normalize them."""

    dtau_ns: int
    half_bins: int
    counts: np.ndarray
    n1: int
    n2: int
    duration_s: float

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.dtau_ns < 1:
            raise ValueError("bin width must be at least 1 ns")
        if self.half_bins < 1:
            raise ValueError("need at least one bin per side")
        if counts.shape != (2 * self.half_bins,):
            raise ValueError("counts length must be 2 * half_bins")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if self.n1 < 1 or self.n2 < 1:
            raise DataError("both channels must contain events")
        if not self.duration_s > 0:
            raise ValueError("acquisition duration must be positive")

    @property
    def nbins(self) -> int:
        return 2 * self.half_bins

    @property
    def window_s(self) -> float:
        return self.half_bins * self.dtau_ns * 1e-9

    @property
    def bin_s(self) -> float:
        return self.dtau_ns * 1e-9

    def bin_centers_s(self) -> np.ndarray:
        k = np.arange(self.nbins)
        return (k - self.half_bins + 0.5) * self.dtau_ns * 1e-9


def merge(a: CoincidenceHistogram, b: CoincidenceHistogram) -> CoincidenceHistogram:
    """Sum two partial histograms of the same acquisition.

    Partial histograms arise from partitioning the first channel (each
    pair is attributed to its D1 event, so a partition of D1 splits the
    pair set exactly); merging is associative and commutative.
    """
    meta = ("dtau_ns", "half_bins", "n1", "n2", "duration_s")
    for name in meta:
        if getattr(a, name) != getattr(b, name):
            raise ValueError(f"cannot merge histograms with different {name}")
    return CoincidenceHistogram(
        dtau_ns=a.dtau_ns,
        half_bins=a.half_bins,
        counts=a.counts + b.counts,
        n1=a.n1,
        n2=a.n2,
        duration_s=a.duration_s,
    )


def histogram_geometry(bin_s: float, window_s: float, resolution_ns: int) -> tuple[int, int]:
    """The bin width in whole nanoseconds and the bins per side, (dtau_ns, half_bins).

    The window is rounded to a whole number of bins.  Raises ValueError
    when the window, requested or as rounded to half_bins * dtau_ns,
    reaches WINDOW_LIMIT_NS, spans fewer than ten or more than
    HALF_BINS_LIMIT bins per side, or the bin is narrower than the
    timestamp resolution or not a whole number of its ticks (a bin of
    2.5 ticks would hold two lags and its neighbour three: a comb in g2).
    """
    too_wide = "window_s must be shorter than 2**58 ns"
    if not window_s * 1e9 < WINDOW_LIMIT_NS:
        raise ValueError(too_wide)
    half_bins = int(round(window_s / bin_s))
    if half_bins < 10:
        raise ValueError("window_s must span at least ten bins of bin_s")
    if half_bins > HALF_BINS_LIMIT:
        raise ValueError("window_s must span at most 2**20 bins of bin_s per side")
    dtau_ns = int(round(bin_s * 1e9))
    # the correlator adds this window to the timestamps: rounding may widen it
    if dtau_ns * half_bins >= WINDOW_LIMIT_NS:
        raise ValueError(too_wide)
    if dtau_ns < max(1, resolution_ns):
        raise ValueError("bin_s must not be below resolution_ns, the timestamp resolution")
    if dtau_ns % resolution_ns:
        raise ValueError(
            f"bin_s must be a whole number of {resolution_ns} ns timestamp ticks, got {dtau_ns} ns"
        )
    return dtau_ns, half_bins


def coincidence_histogram(
    stream,
    bin_s: float,
    window_s: float,
    *,
    threads: int = 1,
    d1_range: tuple[int, int] | None = None,
) -> CoincidenceHistogram:
    """Histogram all D1 x D2 pairs with |t1 - t2| within the window.

    `stream` is a PhotonStream, whose channels are sorted by construction;
    an empty channel raises DataError.  The bins are those of
    histogram_geometry at the stream's resolution.  `d1_range` restricts
    counting to a slice of the first channel (used for partial histograms;
    see merge()).  `threads` splits the first channel into one slice per
    worker, `worker_count` of `threads` and its `_corr_np._BLOCK`-event
    blocks; the result is bit-identical for any thread count because
    partial counts are summed exactly.
    """
    d1, d2 = stream.d1, stream.d2
    dtau_ns, half_bins = histogram_geometry(bin_s, window_s, stream.resolution_ns)
    i0, i1 = d1_range if d1_range is not None else (0, d1.size)
    if not (0 <= i0 <= i1 <= d1.size):
        raise ValueError("d1_range out of bounds")
    # each slice holds a partial histogram: no more of them than the work fills
    slices = worker_count(threads, (i1 - i0) // _corr_np._BLOCK)
    edges = np.linspace(i0, i1, slices + 1).astype(int)
    count = partial(_kernels.pair_histogram, d1, d2, dtau_ns, half_bins)
    parts = map_blocks(count, edges[:-1], edges[1:], threads=slices)
    counts = np.sum(parts, axis=0, dtype=np.int64)
    return CoincidenceHistogram(
        dtau_ns=dtau_ns,
        half_bins=half_bins,
        counts=counts,
        n1=d1.size,
        n2=d2.size,
        duration_s=stream.duration_s,
    )


def normalize_g2(hist: CoincidenceHistogram) -> G2Curve:
    """Normalize counts by the accidental rate: g2 = counts * T / (N1 N2 dtau).

    The curve has one point per bin, at the bin centres.  Statistical
    errors are Poisson: g2 / sqrt(counts).  A zero-count bin gets value 0
    and a one-count upper bound as its error.
    """
    scale = hist.duration_s / (hist.n1 * hist.n2 * hist.bin_s)
    value = hist.counts * scale
    stderr = np.where(hist.counts > 0, value / np.sqrt(np.maximum(hist.counts, 1)), scale)
    return G2Curve(tau=hist.bin_centers_s(), value=value, stderr=stderr)


def g2_zero_estimate(hist: CoincidenceHistogram) -> tuple[float, float]:
    """Zero-lag estimate (value, stderr) from the two innermost bins, pooled.

    The bins just either side of zero lag are summed and normalized as one
    bin of twice the width, with normalize_g2's Poisson error and its
    one-count bound when both are empty.
    """
    scale = hist.duration_s / (hist.n1 * hist.n2 * hist.bin_s) / 2.0
    counts = int(hist.counts[hist.half_bins - 1] + hist.counts[hist.half_bins])
    value = counts * scale
    return value, (value / math.sqrt(counts) if counts else scale)


@dataclass(frozen=True)
class PeakBackground:
    """Peak-to-background ratio with a reliability flag.

    `background_unresolved` is set when the apparent correlation time is
    an appreciable fraction of the window, meaning the outer bins do not
    reach the uncorrelated plateau and the ratio underestimates the true
    contrast, and when the outer bins hold no coincidences at all, so
    `background` is 0 and the ratio inf: no background was measured.
    """

    ratio: float
    peak: float
    background: float
    background_unresolved: bool


def peak_background_ratio(hist: CoincidenceHistogram) -> PeakBackground:
    """Peak bin over the mean of the outer 20 percent of bins."""
    if hist.nbins < 20:
        raise ValueError("need at least 20 bins to estimate a background")
    outer = max(1, hist.nbins // 10)
    background = float(
        np.concatenate([hist.counts[:outer], hist.counts[-outer:]]).mean()
    )
    peak = float(hist.counts.max())
    if background <= 0:
        return PeakBackground(float("inf"), peak, background, True)
    # crude correlation width: bins whose excess is above half the peak excess
    excess = hist.counts - background
    top = peak - background
    if top <= 0:  # a flat histogram: no correlation time to resolve
        return PeakBackground(peak / background, peak, background, False)
    wide = int((excess > 0.5 * top).sum())
    corr_time = wide * hist.bin_s / 2.0
    return PeakBackground(
        ratio=peak / background,
        peak=peak,
        background=background,
        background_unresolved=corr_time > hist.window_s / 4.0,
    )


def write_g2_csv(curve: G2Curve, path) -> None:
    write_csv(path, ("tau_s", "g2", "stderr"), curve.tau, curve.value, curve.stderr)


def write_histogram_csv(hist: CoincidenceHistogram, path) -> None:
    write_csv(path, ("tau_s", "counts"), hist.bin_centers_s(), hist.counts)
