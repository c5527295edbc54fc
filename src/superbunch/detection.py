"""Photon detection: inhomogeneous Poisson sampling and timestamp files.

Photons are generated by thinning: a homogeneous candidate process at a
ceiling rate is accepted with probability lambda(t)/ceiling, where
lambda(t) = 2 * rate * I(t) / <I> is the total rate into the beam
splitter; each accepted photon lands on detector D1 or D2 with an
independent fair coin.  The trace is processed in fixed blocks of samples
and every block owns a derived RNG substream, so the result is identical
no matter how many workers process the blocks.

Within one block the draw order is fixed: candidate count (Poisson), then
candidate times, acceptance uniforms, channel uniforms, then dark-count
draws (only when the dark rate is nonzero).  The acceptance comparison is
monotone in the intensity, so with a shared seed and a shared explicit
`rate_ceiling_hz` the accepted events of a pointwise-smaller trace are a
subset of those of a larger one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ResolutionError
from .seeding import substream
from .signal import IntensityTrace

_BLOCK = 1 << 20

# beam splitter ratio is fixed by the apparatus
SPLIT = 0.5


@dataclass(frozen=True)
class DetectorConfig:
    """Per-detector mean count rate, timestamp resolution, dark rate."""

    rate_hz: float = 50e3
    resolution_s: float = 1e-9
    dark_rate_hz: float = 0.0

    def __post_init__(self):
        if not self.rate_hz > 0:
            raise ValueError("count rate must be positive")
        if self.dark_rate_hz < 0:
            raise ValueError("dark rate cannot be negative")
        res_ns = round(self.resolution_s * 1e9)
        if res_ns < 1 or abs(self.resolution_s * 1e9 - res_ns) > 1e-6:
            raise ValueError("resolution must be a whole number of nanoseconds")

    @property
    def resolution_ns(self) -> int:
        return round(self.resolution_s * 1e9)


@dataclass(frozen=True, eq=False)
class PhotonStream:
    """Timestamps (integer ns, sorted ascending) for the two detectors."""

    d1: np.ndarray
    d2: np.ndarray
    resolution_ns: int
    duration_s: float
    t0_ns: int = 0

    def __post_init__(self):
        for name in ("d1", "d2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            if arr.size > 1 and np.any(np.diff(arr) < 0):
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


def _quantize(t_s: np.ndarray, res_ns: int, t0_ns: int, end_ns: int) -> np.ndarray:
    ticks = np.rint(t_s * 1e9 / res_ns).astype(np.int64) * res_ns
    return np.clip(ticks, t0_ns, end_ns)


def detect_photons(
    trace: IntensityTrace,
    cfg: DetectorConfig,
    seed: int,
    *,
    rate_ceiling_hz: float | None = None,
    threads: int = 1,
) -> PhotonStream:
    """Sample photon timestamps from an intensity trace.

    `rate_ceiling_hz` fixes the thinning ceiling for the total (pre-split)
    rate; by default each block uses its own maximum.  Supplying the same
    ceiling and seed across runs couples their candidate processes (see
    module docstring).  Raises ResolutionError when the ceiling rate and
    timestamp resolution imply more than 0.1 expected events per tick.
    """
    lam = (2.0 * cfg.rate_hz / trace.mean) * trace.samples
    lam_top = float(lam.max())
    if rate_ceiling_hz is not None:
        if rate_ceiling_hz < lam_top:
            raise ValueError("rate ceiling below the peak instantaneous rate")
        lam_top = float(rate_ceiling_hz)
    if lam_top * cfg.resolution_s > 0.1:
        raise ResolutionError(
            f"peak rate {lam_top:g} Hz exceeds 0.1 events per {cfg.resolution_s:g} s tick"
        )
    n = trace.n
    res_ns = cfg.resolution_ns
    t0_ns = round(trace.t0 * 1e9)
    end_ns = t0_ns + round(trace.duration * 1e9)
    nblocks = (n + _BLOCK - 1) // _BLOCK

    def run_block(b: int) -> tuple[np.ndarray, np.ndarray]:
        rng = substream(seed, "detect", b)
        i0 = b * _BLOCK
        i1 = min(n, i0 + _BLOCK)
        span = i1 - i0
        dur = span * trace.dt
        block = lam[i0:i1]
        ceiling = float(block.max()) if rate_ceiling_hz is None else float(rate_ceiling_hz)
        n_cand = int(rng.poisson(ceiling * dur)) if ceiling > 0 else 0
        if n_cand == 0:
            empty = np.empty(0, dtype=np.int64)
            ts, ch1 = empty, empty.astype(bool)
        else:
            u_time = rng.random(n_cand)
            u_accept = rng.random(n_cand)
            u_chan = rng.random(n_cand)
            idx = np.minimum((u_time * span).astype(np.intp), span - 1)
            keep = u_accept * ceiling < block[idx]
            t_s = trace.t0 + (i0 + u_time[keep] * span) * trace.dt
            ts = _quantize(t_s, res_ns, t0_ns, end_ns)
            ch1 = u_chan[keep] < SPLIT
        if cfg.dark_rate_hz > 0:
            t_start = trace.t0 + i0 * trace.dt
            extra_ts, extra_ch = [ts], [ch1]
            for is_d1 in (True, False):
                n_dark = int(rng.poisson(cfg.dark_rate_hz * dur))
                t_d = t_start + rng.random(n_dark) * dur
                extra_ts.append(_quantize(t_d, res_ns, t0_ns, end_ns))
                extra_ch.append(np.full(n_dark, is_d1))
            ts = np.concatenate(extra_ts)
            ch1 = np.concatenate(extra_ch)
        order = np.argsort(ts, kind="stable")
        ts, ch1 = ts[order], ch1[order]
        return ts[ch1], ts[~ch1]

    if threads <= 1 or nblocks == 1:
        parts = [run_block(b) for b in range(nblocks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_block, range(nblocks)))
    d1 = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
    d2 = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.int64)
    return PhotonStream(
        d1=d1, d2=d2, resolution_ns=res_ns, duration_s=trace.duration, t0_ns=t0_ns
    )


# ---------------------------------------------------------------------------
# timestamp files
#
# text: one "channel,timestamp_ns" record per line, channels 1 and 2,
#       sorted by timestamp, no header
# binary: little-endian records of (uint64 timestamp_ns, uint8 channel),
#       no header
# ---------------------------------------------------------------------------

_BINARY_DTYPE = np.dtype([("timestamp_ns", "<u8"), ("channel", "u1")])

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
    raise ValueError(f"cannot infer photon file format from {path!r}")


def _interleave(stream: PhotonStream) -> tuple[np.ndarray, np.ndarray]:
    ts = np.concatenate([stream.d1, stream.d2])
    ch = np.concatenate(
        [np.ones(stream.n1, dtype=np.uint8), np.full(stream.n2, 2, dtype=np.uint8)]
    )
    order = np.lexsort((ch, ts))
    return ts[order], ch[order]


def write_photon_stream(stream: PhotonStream, path, fmt: str | None = None) -> None:
    """Write both channels to one file, text or binary by extension."""
    kind = _format_for(path, fmt)
    ts, ch = _interleave(stream)
    if kind == "text":
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, np.column_stack([ch, ts]), fmt="%d", delimiter=",")
    else:
        rec = np.empty(ts.size, dtype=_BINARY_DTYPE)
        rec["timestamp_ns"] = ts.astype(np.uint64)
        rec["channel"] = ch
        with open(path, "wb") as fh:
            fh.write(rec.tobytes())


def _split_channels(ts, ch, where: str) -> tuple[np.ndarray, np.ndarray]:
    bad = (ch != 1) & (ch != 2)
    if bad.any():
        pos = int(np.argmax(bad))
        raise DataError(f"invalid channel {int(ch[pos])} at {where} {pos + 1}")
    if ts.size > 1 and np.any(np.diff(ts) < 0):
        pos = int(np.argmax(np.diff(ts) < 0)) + 1
        raise DataError(f"timestamps not sorted at {where} {pos + 1}")
    return ts[ch == 1], ts[ch == 2]


def read_photon_stream(
    path,
    fmt: str | None = None,
    resolution_ns: int = 1,
    duration_s: float | None = None,
) -> PhotonStream:
    """Load a timestamp file.

    The files carry no header, so the acquisition duration is not stored;
    pass `duration_s` for exact rate normalization (otherwise it is
    inferred as the last timestamp plus one resolution tick).
    """
    kind = _format_for(path, fmt)
    if kind == "text":
        ts, ch = _read_text(path)
        where = "line"
    else:
        ts, ch = _read_binary(path)
        where = "record"
    if ts.size == 0:
        raise DataError(f"{path}: no events")
    d1, d2 = _split_channels(ts, ch, where)
    if duration_s is None:
        duration_s = (int(ts.max()) + resolution_ns) * 1e-9
    return PhotonStream(
        d1=d1, d2=d2, resolution_ns=resolution_ns, duration_s=duration_s
    )


def _read_text(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError:
        # slow pass to point at the offending line
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.strip().split(",")
                if len(parts) != 2:
                    raise DataError(f"{path}: malformed record on line {lineno}")
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    raise DataError(f"{path}: malformed record on line {lineno}")
        raise DataError(f"{path}: malformed text stream")
    if data.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if data.shape[1] != 2:
        raise DataError(f"{path}: expected 2 columns, found {data.shape[1]}")
    return data[:, 1], data[:, 0]


def _read_binary(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    rem = len(raw) % _BINARY_DTYPE.itemsize
    if rem:
        raise DataError(
            f"{path}: truncated record at byte {len(raw) - rem}"
        )
    rec = np.frombuffer(raw, dtype=_BINARY_DTYPE)
    ts = rec["timestamp_ns"]
    wraps = ts > np.iinfo(np.int64).max
    if wraps.any():
        pos = int(np.argmax(wraps))
        raise DataError(f"{path}: timestamp {int(ts[pos])} >= 2**63 at record {pos + 1}")
    return ts.astype(np.int64), rec["channel"]
