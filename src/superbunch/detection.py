"""Photon detection: inhomogeneous Poisson sampling and timestamp files.

The light's total rate into the beam splitter is 2 * rate * I_i / <I>,
piecewise constant on the trace's dt grid.  Each detector adds a flat,
uncorrelated dark rate d; by Poisson superposition and splitting, the
two are the same law as a constant 2 * d added to the light's rate
before the beam splitter.  So the event count of sample i is exactly
Poisson(mu_i) with mu_i = (2 * rate * I_i / <I> + 2 * d) * dt, photons
and dark counts alike, and its events fall uniformly inside the sample
(Lewis & Shedler 1979).  The 50:50 beam splitter sends each event to
detector D1 or D2 with a fair coin.

The trace is processed in blocks of `_BLOCK` samples; block b owns the
generator `substream(seed, "detect", b)`, and the events of global
sample i hang off a hash of i alone, so the result does not depend on
how many workers process the blocks.  A block's only draws are one
uniform u_i per sample, in sample order, read a chunk of samples at a
time (each uniform is one 64-bit output, so the chunking does not
change the values); the count is the inverse-CDF Poisson k_i, the
smallest k with u_i < F(k; mu_i).  The counts do depend on `_BLOCK`,
which decides the generator a sample's uniform comes from.

Event j (0 <= j < k_i) of global sample i takes the 64-bit word
w = mix(key ^ (mix(i) + j)), with `mix` the splitmix64 finalizer and
key = substream_seed(seed, "detect-offsets") mod 2**64.  Its time is
t0 + (i + (w >> 11) * 2**-53) * dt, and it goes to D1 iff w & 1 == 0.

A chunk's uniforms, mu, CDF and the comparison u >= F(0; mu) take
`_SAMPLE_SCRATCH` bytes a sample, and a chunk is as many samples as fill
`_workers.SCRATCH_BYTES`, not a fixed count: each worker holds one set,
allocated on the calling thread (`_workers.map_runs`).  Apart from
these, a block holds only its events.

For a fixed u_i the count is non-decreasing in mu_i, and the events of
a sample are the first k_i of a fixed per-sample sequence.  So under a
shared seed the events of a pointwise-dimmer trace (same declared mean
and dark rate) are a per-sample prefix, hence a subset, of those of a
brighter one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _text
from ._text import line_of
from ._workers import SCRATCH_BYTES, map_runs
from .correlator import WINDOW_LIMIT_NS
from .errors import ConfigError, DataError, ResolutionError
from .seeding import substream, substream_seed
from .signal import IntensityTrace, require_finite

_BLOCK = 1 << 20
_SAMPLE_SCRATCH = 25  # bytes per sample of a chunk: its uniform, mu, CDF, u >= CDF


@dataclass(frozen=True)
class DetectorConfig:
    """Per-detector mean count rate, timestamp resolution, dark rate."""

    rate_hz: float = 50e3
    resolution_ns: int = 1
    dark_rate_hz: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if not self.rate_hz > 0:
            raise ValueError("count rate must be positive")
        if not (isinstance(self.resolution_ns, int) and self.resolution_ns >= 1):
            raise ValueError("resolution_ns must be a whole number, at least 1")
        # the correlator's window limit; a larger tick overflows a float below
        if self.resolution_ns >= WINDOW_LIMIT_NS:
            raise ValueError("resolution_ns must be below 2**58")
        # detect_photons' pile-up bound holds light and dark counts together;
        # its dark part alone is checked here, before any work
        if not 0 <= 2 * self.dark_rate_hz * (self.resolution_ns * 1e-9) <= 0.1:
            raise ValueError("dark_rate_hz must lie between 0 and 0.05 events per tick")


@dataclass(frozen=True, eq=False)
class PhotonStream:
    """Timestamps (integer ns, sorted ascending) for the two detectors."""

    d1: np.ndarray
    d2: np.ndarray
    resolution_ns: int
    duration_s: float

    def __post_init__(self):
        for name in ("d1", "d2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            if np.any(arr[1:] < arr[:-1]):
                raise ValueError(f"{name} timestamps are not sorted")
        if self.resolution_ns < 1:
            raise ValueError("resolution must be at least 1 ns")
        if not self.duration_s > 0:
            raise ValueError("duration must be positive")

    @property
    def n1(self) -> int:
        return self.d1.size

    @property
    def n2(self) -> int:
        return self.d2.size


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z) -> np.ndarray:
    """splitmix64 finalizer, elementwise over a uint64 array.

    Works on a 1-D array copy: uint64 array arithmetic wraps silently,
    where numpy scalars would warn on overflow.
    """
    z = np.array(z, dtype=np.uint64, ndmin=1)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _poisson_levels(u, mu, cdf, above) -> list[np.ndarray]:
    """Inverse-CDF Poisson draws, as levels of the counts.

    The count of element i is k_i, the smallest k with u_i < F(k; mu_i);
    level j lists, ascending, the i with k_i > j, so photon j of every
    sample in it exists.  `cdf` (floats) and `above` (booleans), of u's
    length, are scratch: they take F(0; mu) = exp(-mu) and u >= F(0; mu).
    Only the elements still at or above the CDF are walked on.  Past the
    mode the walk stops once a term no longer changes the CDF, so a u
    within rounding of 1 cannot run on.  The terms are formed as exp(j
    log mu - mu - log j!), so a large mu whose exp(-mu) underflows still
    climbs to its mode.  The count is non-decreasing in mu for a fixed u,
    except where u lies within rounding of 1: there the CDF's own
    rounding decides where the walk ends.
    """
    np.negative(mu, out=cdf)
    np.exp(cdf, out=cdf)
    idx = np.flatnonzero(np.greater_equal(u, cdf, out=above))
    u, mu, cdf = u.take(idx), mu.take(idx), cdf.take(idx)
    log_mu = np.log(mu)
    levels = []
    j = 0
    while idx.size:
        levels.append(idx)
        j += 1
        nxt = cdf + np.exp(j * log_mu - mu - math.lgamma(j + 1))
        go = np.flatnonzero((u >= nxt) & ((nxt != cdf) | (j <= mu)))
        idx, u, mu, log_mu, cdf = (a.take(go) for a in (idx, u, mu, log_mu, nxt))
    return levels


def detect_photons(
    trace: IntensityTrace,
    cfg: DetectorConfig,
    seed: int,
    *,
    threads: int = 1,
) -> PhotonStream:
    """Sample photon and dark-count timestamps from an intensity trace.

    See the module docstring.  Raises ValueError when a sample is
    infinite, and ResolutionError when the peak total (pre-split) rate,
    dark counts included, and the timestamp resolution imply more than
    0.1 expected events per tick.
    """
    top = float(trace.samples.max())
    # the trace refused nan and negative samples, so this refuses the infinite ones
    if not np.isfinite(top):
        raise ValueError(f"intensity must be finite, got a peak of {top!r}")
    scale = 2.0 * cfg.rate_hz / trace.mean
    dark = 2.0 * cfg.dark_rate_hz
    lam_top = scale * top + dark
    res_ns = cfg.resolution_ns
    if lam_top * (res_ns * 1e-9) > 0.1:
        raise ResolutionError(
            f"peak rate {lam_top:g} Hz, dark counts included, exceeds 0.1 events per "
            f"{res_ns} ns tick (lower [detection] rate_hz, dark_rate_hz or resolution_ns)"
        )
    n = trace.n
    t0_ns = round(trace.t0 * 1e9)
    end_ns = t0_ns + round(trace.duration * 1e9)
    nblocks = (n + _BLOCK - 1) // _BLOCK
    mu_scale, mu_dark = scale * trace.dt, dark * trace.dt
    key = np.uint64(substream_seed(seed, "detect-offsets") % (1 << 64))
    # a worker's uniforms, mu, CDF and comparison of a chunk fill its scratch
    chunk = max(1, min(n, _BLOCK, SCRATCH_BYTES // _SAMPLE_SCRATCH))

    def scratch():
        u, mu, cdf = np.empty((3, chunk))
        return u, mu, cdf, np.empty(chunk, dtype=bool)

    def run_block(b: int, u, mu, cdf, above):
        rng = substream(seed, "detect", b)
        i0 = b * _BLOCK
        i1 = min(n, i0 + _BLOCK)
        parts_ts, parts_ch1 = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=bool)]
        for c0 in range(i0, i1, chunk):
            m = min(chunk, i1 - c0)
            rng.random(out=u[:m])
            np.multiply(trace.samples[c0 : c0 + m], mu_scale, out=mu[:m])
            # without dark counts, mu + 0.0 is mu
            np.add(mu[:m], mu_dark, out=mu[:m])
            levels = _poisson_levels(u[:m], mu[:m], cdf[:m], above[:m])
            if not levels:
                continue
            # event j of sample i, for every i in level j
            i = np.concatenate(levels) + c0
            j = np.repeat(np.arange(len(levels), dtype=np.uint64), [a.size for a in levels])
            w = _mix(key ^ (_mix(i) + j))
            t_s = trace.t0 + (i + (w >> np.uint64(11)) * 2.0**-53) * trace.dt
            ticks = np.rint(t_s * 1e9 / res_ns).astype(np.int64) * res_ns
            parts_ts.append(np.clip(ticks, t0_ns, end_ns))
            parts_ch1.append((w & np.uint64(1)) == 0)
        ts = np.concatenate(parts_ts)
        ch1 = np.concatenate(parts_ch1)
        order = np.argsort(ts, kind="stable")
        ts, ch1 = ts[order], ch1[order]
        return ts[ch1], ts[~ch1]

    def run(buffers, b0, b1):
        return [run_block(b, *buffers) for b in range(b0, b1)]

    runs = map_runs(run, nblocks, scratch, threads=threads)
    d1, d2 = (np.concatenate(channel) for channel in zip(*(p for r in runs for p in r)))
    # both ends are whole nanoseconds, so this is the decimal duration
    # (samples * dt need not be: 200000 * 1e-6 = 0.19999999999999998)
    return PhotonStream(d1=d1, d2=d2, resolution_ns=res_ns, duration_s=(end_ns - t0_ns) / 1e9)


# ---------------------------------------------------------------------------
# timestamp files
#
# text: one "channel,timestamp_ns" record per line, channels 1 and 2,
#       sorted by timestamp, no header; `_text_rows` encodes the records
#       only after `_check_records` has passed them, so it formats ascending
#       non-negative timestamps alone
# binary: little-endian records of (uint64 timestamp_ns, uint8 channel),
#       no header
# Both hold timestamps in [0, TIMESTAMP_END_NS): the correlator adds its
# window, below WINDOW_LIMIT_NS, to int64 timestamps; and events on both
# channels.  `_check_records` and `_check_channels` hold both the writer
# and the reader to that, so every file the package writes reads back.
#
# The reader takes `_CHUNK_RECORDS` records at a time from one open handle
# (`np.fromfile` for binary, `_text.read_blocks` for text), as many as fit
# `_workers.SCRATCH_BYTES` at `_RECORD_SCRATCH` bytes a record.  Each
# chunk passes `_check_records`, its first timestamp held to the last of
# the chunk before, and its channels are split into parts joined once at
# the end: beside the stream's own 8 bytes an event, the read holds one
# chunk and, while a channel is joined, that channel's parts.
# ---------------------------------------------------------------------------

TIMESTAMP_END_NS = 2**63 - WINDOW_LIMIT_NS

_BINARY_DTYPE = np.dtype([("timestamp_ns", "<u8"), ("channel", "u1")])
# bytes a record of a chunk takes: its int64 text row's 16 (or its 9
# binary bytes), its timestamp's contiguous 8 and the channel-1 mask's 1
_RECORD_SCRATCH = 25
_CHUNK_RECORDS = SCRATCH_BYTES // _RECORD_SCRATCH
_TEXT_ROWS = 1 << 16  # the text rows `_text_rows` encodes at a time

_TEXT_EXTENSIONS = (".txt", ".csv")
_BINARY_EXTENSIONS = (".bin", ".phot")


def _format_for(path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("text", "binary"):
            raise ValueError(f"unknown photon file format {fmt!r}")
        return fmt
    name = str(path).lower()
    if any(name.endswith(e) for e in _TEXT_EXTENSIONS):
        return "text"
    if any(name.endswith(e) for e in _BINARY_EXTENSIONS):
        return "binary"
    raise ConfigError(f"cannot infer photon file format from {path!r}")


def _interleave(stream: PhotonStream) -> tuple[np.ndarray, np.ndarray]:
    """Both channels' records by timestamp, channel 1 first at a tie."""
    ts = np.concatenate([stream.d1, stream.d2])
    # stable: a tie keeps D1's events, which come first, ahead of D2's
    order = np.argsort(ts, kind="stable")
    return ts[order], (order >= stream.n1).astype(np.uint8) + 1


def _record(i: int) -> str:
    return f"record {i + 1}"


def _check_records(path, ts: np.ndarray, ch: np.ndarray, at, prev: int = 0) -> None:
    """Raise DataError unless every record is in the file formats' domain.

    Each channel must be 1 or 2 and each timestamp in [0,
    TIMESTAMP_END_NS), in ascending order and not below `prev`, the
    timestamp before the first record.  The error names `path` and
    `at(i)`, the line or record of the first record i at fault.
    """
    bad = (ch != 1) & (ch != 2)
    if bad.any():
        pos = int(np.argmax(bad))
        raise DataError(f"{path}: invalid channel {int(ch[pos])} at {at(pos)}")
    # a uint64 of 2**63 or more reads as a negative int64
    bad = (ts < 0) | (ts >= TIMESTAMP_END_NS)
    if bad.any():
        pos = int(np.argmax(bad))
        raise DataError(f"{path}: timestamp outside [0, 2**63 - 2**58) ns at {at(pos)}")
    if ts.size and ts[0] < prev:
        raise DataError(f"{path}: timestamps not sorted at {at(0)}")
    bad = ts[1:] < ts[:-1]
    if bad.any():
        raise DataError(f"{path}: timestamps not sorted at {at(int(np.argmax(bad)) + 1)}")


def _check_channels(path, n1: int, n2: int) -> None:
    """Raise DataError, naming `path` and the channel, unless both channels have events."""
    if not (n1 and n2):
        raise DataError(f"{path}: no events on channel {2 if n1 else 1}")


_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # t < _POW10[k] has at most k + 1 digits
_QUADS = np.array([b"%04d" % q for q in range(10**4)], dtype="S4").view(np.uint32)


def _text_rows(ts: np.ndarray, ch: np.ndarray):
    """The text records of checked (ts, ch), as uint8 matrices of ASCII bytes.

    Ascending timestamps in [0, 2**63) change digit count only at a power
    of ten, so the rows between two powers are one matrix of equal width:
    the channel digit, a comma, the timestamp's digits and a newline, the
    bytes "%d,%d\\n" gives.  At most `_TEXT_ROWS` rows at a time.
    """
    cuts = [0, *np.searchsorted(ts, _POW10), ts.size]
    for digits, (start, stop) in enumerate(zip(cuts, cuts[1:]), 1):
        for a in range(start, stop, _TEXT_ROWS):
            b = min(stop, a + _TEXT_ROWS)
            t = ts[a:b]
            quads = np.empty((b - a, -(-digits // 4)), np.uint32)
            for g in range(quads.shape[1] - 1, -1, -1):
                t, q = np.divmod(t, 10**4)
                quads[:, g] = _QUADS.take(q)
            rows = np.empty((b - a, digits + 3), np.uint8)
            rows[:, 0] = ch[a:b] + ord("0")
            rows[:, 1] = ord(",")
            rows[:, 2:-1] = quads.view(np.uint8)[:, -digits:]
            rows[:, -1] = ord("\n")
            yield rows


def write_photon_stream(stream: PhotonStream, path, fmt: str | None = None) -> None:
    """Write both channels to one file, text or binary by extension.

    The records pass the reader's checks before the file is opened: a
    timestamp outside [0, TIMESTAMP_END_NS) raises DataError naming the
    path and the line or record, an empty channel DataError naming the
    path and the channel, and neither writes anything.
    """
    kind = _format_for(path, fmt)
    _check_channels(path, stream.n1, stream.n2)
    ts, ch = _interleave(stream)
    # no header: record i is line i + 1 of a text file
    _check_records(path, ts, ch, (lambda i: f"line {i + 1}") if kind == "text" else _record)
    with open(path, "wb") as fh:
        if kind == "text":
            for rows in _text_rows(ts, ch):
                fh.write(rows)
        else:
            rec = np.empty(ts.size, dtype=_BINARY_DTYPE)
            rec["timestamp_ns"] = ts
            rec["channel"] = ch
            fh.write(rec)


def read_photon_stream(
    path,
    fmt: str | None = None,
    resolution_ns: int = 1,
    duration_s: float | None = None,
) -> PhotonStream:
    """Load a timestamp file, a chunk of `_CHUNK_RECORDS` records at a time.

    The files carry no header, so the acquisition duration is not stored;
    pass `duration_s` for exact rate normalization (otherwise it is
    inferred as the span of the timestamps plus one resolution tick,
    last - first + resolution_ns, as a recording's clock may start
    anywhere).  A `duration_s` that is not positive or not below the 2**63 ns int64
    timestamps can reach raises ConfigError; one shorter than the span of
    the timestamps, DataError.  A missing or malformed file, or a record
    `_check_records` refuses (the writer's own check), raises DataError
    naming the path and the line or record at fault, counted over the
    whole file.  Each chunk is loaded, then checked for channels, range
    and order, before the next is read, so of a file with several faults
    the first of the earliest faulty chunk is named.
    """
    if duration_s is not None and not 0 < duration_s * 1e9 < 2**63:
        raise ConfigError(f"--duration-s must be positive and below 2**63 ns, got {duration_s!r}")
    if _format_for(path, fmt) == "text":
        chunks = _text.read_blocks(path, 2, _CHUNK_RECORDS, dtype=np.int64, exact=True)
        columns = lambda rows: (rows[:, 1], rows[:, 0])
        at = lambda i: f"line {line_of(path, i)}"
    else:
        chunks = _binary_chunks(path)
        # a uint64 of 2**63 or more views as a negative int64
        columns = lambda rec: (rec["timestamp_ns"].view(np.int64), rec["channel"])
        at = _record
    parts1, parts2 = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    done = first = last = 0  # records read; the first and the last timestamp
    for chunk in chunks:
        ts, ch = columns(chunk)
        # contiguous: `compress` would copy a strided column at each call
        ts = np.ascontiguousarray(ts)
        _check_records(path, ts, ch, lambda i: at(done + i), prev=last)
        if not done:
            first = int(ts[0])
        last = int(ts[-1])
        done += ts.size
        is1 = ch == 1
        parts1.append(ts.compress(is1))
        parts2.append(ts.compress(np.logical_not(is1, out=is1)))
        del chunk, ts, ch, is1  # before the next chunk is loaded
    # one channel at a time, so only one channel's parts outlive its join
    d1 = _join(parts1)
    d2 = _join(parts2)
    _check_channels(path, d1.size, d2.size)
    if duration_s is None:
        duration_s = (last - first + resolution_ns) * 1e-9
    elif round(duration_s * 1e9) < last - first:
        raise DataError(f"{path}: timestamps span {last - first} ns, more than {duration_s:g} s")
    return PhotonStream(d1=d1, d2=d2, resolution_ns=resolution_ns, duration_s=duration_s)


def _join(parts: list) -> np.ndarray:
    """The concatenation of `parts`, which it empties."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _binary_chunks(path):
    """The records of a binary file, `_CHUNK_RECORDS` at a time."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            records, rem = divmod(size, _BINARY_DTYPE.itemsize)
            if rem:
                raise DataError(f"{path}: truncated record {records + 1} at byte {size - rem}")
            for start in range(0, records, _CHUNK_RECORDS):
                yield np.fromfile(fh, _BINARY_DTYPE, count=min(_CHUNK_RECORDS, records - start))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
