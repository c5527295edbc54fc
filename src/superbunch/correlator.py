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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DataError


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
    an empty channel raises DataError.  `bin_s` must be at least the
    stream's timestamp resolution and the window at least ten bins wide.
    The window is rounded to a whole number of bins.  `d1_range` restricts
    counting to a slice of the first channel (used for partial histograms;
    see merge()).  `threads` splits the first channel across workers; the
    result is bit-identical for any thread count because partial counts
    are summed exactly.
    """
    d1 = np.ascontiguousarray(stream.d1, dtype=np.int64)
    d2 = np.ascontiguousarray(stream.d2, dtype=np.int64)
    dtau_ns = int(round(bin_s * 1e9))
    if dtau_ns < max(1, stream.resolution_ns):
        raise ValueError("bin width must not be below the timestamp resolution")
    half_bins = int(round(window_s / bin_s))
    if half_bins < 10:
        raise ValueError("window must span at least ten bins")
    i0, i1 = d1_range if d1_range is not None else (0, d1.size)
    if not (0 <= i0 <= i1 <= d1.size):
        raise ValueError("d1_range out of bounds")
    if threads <= 1 or i1 - i0 < 2:
        counts = _kernels.pair_histogram(d1, d2, dtau_ns, half_bins, i0, i1)
    else:
        edges = np.linspace(i0, i1, threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    lambda se: _kernels.pair_histogram(
                        d1, d2, dtau_ns, half_bins, se[0], se[1]
                    ),
                    zip(edges[:-1], edges[1:]),
                )
            )
        counts = np.sum(parts, axis=0, dtype=np.int64)
    return CoincidenceHistogram(
        dtau_ns=dtau_ns,
        half_bins=half_bins,
        counts=counts,
        n1=d1.size,
        n2=d2.size,
        duration_s=stream.duration_s,
    )


def normalize_g2(hist: CoincidenceHistogram, symmetric: bool = False) -> G2Curve:
    """Normalize counts by the accidental rate: g2 = counts * T / (N1 N2 dtau).

    Statistical errors are Poisson: g2 / sqrt(counts).  A zero-count bin
    gets value 0 and a one-count upper bound as its error.  With
    `symmetric` the two bins at each |lag| are pooled and the curve is
    returned on positive lags only.
    """
    scale = hist.duration_s / (hist.n1 * hist.n2 * hist.bin_s)
    if symmetric:
        pos = hist.counts[hist.half_bins :]
        neg = hist.counts[: hist.half_bins][::-1]
        counts = pos + neg
        tau = (np.arange(hist.half_bins) + 0.5) * hist.bin_s
        scale = scale / 2.0
    else:
        counts = hist.counts
        tau = hist.bin_centers_s()
    value = counts * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        stderr = np.where(counts > 0, value / np.sqrt(np.maximum(counts, 1)), scale)
    return G2Curve(tau=tau, value=value, stderr=stderr)


def g2_zero_estimate(hist: CoincidenceHistogram) -> tuple[float, float]:
    """Zero-lag estimate from the two innermost bins (value, stderr)."""
    c = int(hist.counts[hist.half_bins - 1] + hist.counts[hist.half_bins])
    scale = hist.duration_s / (hist.n1 * hist.n2 * hist.bin_s) / 2.0
    value = c * scale
    stderr = value / np.sqrt(c) if c > 0 else scale
    return float(value), float(stderr)


@dataclass(frozen=True)
class PeakBackground:
    """Peak-to-background ratio with a reliability flag.

    `background_unresolved` is set when the apparent correlation time is
    an appreciable fraction of the window, meaning the outer bins do not
    reach the uncorrelated plateau and the ratio underestimates the true
    contrast.
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
    if top <= 0:
        return PeakBackground(peak / background, peak, background, True)
    wide = int((excess > 0.5 * top).sum())
    corr_time = wide * hist.bin_s / 2.0
    return PeakBackground(
        ratio=peak / background,
        peak=peak,
        background=background,
        background_unresolved=corr_time > hist.window_s / 4.0,
    )


def write_g2_csv(curve: G2Curve, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("tau_s,g2,stderr\n")
        for t, v, e in zip(curve.tau, curve.value, curve.stderr):
            fh.write(f"{float(t)!r},{float(v)!r},{float(e)!r}\n")


def write_histogram_csv(hist: CoincidenceHistogram, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("tau_s,counts\n")
        for t, c in zip(hist.bin_centers_s(), hist.counts):
            fh.write(f"{float(t)!r},{int(c)}\n")
