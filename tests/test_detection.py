import functools
import hashlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from superbunch import (
    Constant,
    DataError,
    DetectorConfig,
    IntensityTrace,
    PhotonStream,
    ResolutionError,
    coincidence_histogram,
    detect_photons,
    normalize_g2,
    read_photon_stream,
    sample_intensity,
    write_photon_stream,
)
from superbunch import _workers, detection


def _constant_trace(duration=10.0, dt=1e-5, level=1.0):
    n = int(round(duration / dt))
    return sample_intensity(Constant(level), 0.0, dt, n, 0)


def test_total_rate_and_split():
    cfg = DetectorConfig(rate_hz=1e4, resolution_ns=1)
    stream = detect_photons(_constant_trace(10.0), cfg, seed=1)
    total = stream.d1.size + stream.d2.size
    # Poisson(2e5): allow 5 sigma
    assert abs(total - 2e5) < 5 * np.sqrt(2e5)
    # 50:50 splitter: binomial z-test at 5 sigma
    assert abs(stream.d1.size - stream.d2.size) < 5 * np.sqrt(total)


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("threads", [1, 2])
def test_blocks_run_on_the_calling_thread_only_when_serial(monkeypatch, threads):
    # one thread starts no worker: every block's draws run on the caller
    seen = []
    levels = detection._poisson_levels

    def spy(*args):
        seen.append(threading.get_ident())
        return levels(*args)

    monkeypatch.setattr(detection, "_poisson_levels", spy)
    monkeypatch.setattr(detection, "_BLOCK", 1000)
    detect_photons(_constant_trace(0.1), DetectorConfig(rate_hz=1e4), seed=3, threads=threads)
    assert len(seen) == 10
    assert (threading.get_ident() in seen) == (threads == 1)


def test_intensity_weighting_is_unbiased():
    # step trace: second half three times brighter; event counts follow
    samples = np.concatenate([np.ones(500_000), 3.0 * np.ones(500_000)])
    trace = IntensityTrace(0.0, 1e-5, samples, float(samples.mean()))
    cfg = DetectorConfig(rate_hz=2e4, resolution_ns=1)
    stream = detect_photons(trace, cfg, seed=3)
    ts = np.sort(np.concatenate([stream.d1, stream.d2]))
    mid = 5.0 * 1e9
    n_lo = int(np.searchsorted(ts, mid))
    n_hi = ts.size - n_lo
    expect_lo = ts.size * 0.25
    assert abs(n_lo - expect_lo) < 5 * np.sqrt(expect_lo)
    assert n_hi > n_lo


def test_timestamps_quantized_and_in_range():
    cfg = DetectorConfig(rate_hz=5e3, resolution_ns=10)
    stream = detect_photons(_constant_trace(2.0), cfg, seed=2)
    for arr in (stream.d1, stream.d2):
        assert np.all(arr % 10 == 0)
        assert np.all(arr >= 0)
        assert np.all(arr <= 2.0 * 1e9)
    assert stream.resolution_ns == 10


@pytest.mark.usefixtures("many_cpus")
def test_thread_count_does_not_change_results():
    trace = _constant_trace(30.0, 1e-5)  # 3e6 samples: several blocks
    cfg = DetectorConfig(rate_hz=2e4, resolution_ns=1)
    a = detect_photons(trace, cfg, seed=5, threads=1)
    b = detect_photons(trace, cfg, seed=5, threads=4)
    assert np.array_equal(a.d1, b.d1)
    assert np.array_equal(a.d2, b.d2)


def test_seed_changes_results():
    cfg = DetectorConfig(rate_hz=1e4, resolution_ns=1)
    a = detect_photons(_constant_trace(1.0), cfg, seed=1)
    b = detect_photons(_constant_trace(1.0), cfg, seed=2)
    assert not np.array_equal(a.d1, b.d1)


@pytest.mark.usefixtures("many_cpus")
def test_monotone_coupling_across_blocks_and_threads():
    # under a shared seed the dimmer trace's events are a subset of the
    # brighter one's, across blocks of different peaks and thread counts
    rng = np.random.default_rng(8)
    bright = rng.random(1_500_000) + 0.5
    t_bright = IntensityTrace(0.0, 1e-5, bright, 1.0)
    t_dim = IntensityTrace(0.0, 1e-5, 0.4 * bright, 1.0)
    cfg = DetectorConfig(rate_hz=1e3, resolution_ns=1)
    a = detect_photons(t_dim, cfg, seed=9)
    b = detect_photons(t_bright, cfg, seed=9, threads=2)
    assert np.all(np.isin(a.d1, b.d1)) and np.all(np.isin(a.d2, b.d2))
    assert b.d1.size + b.d2.size > a.d1.size + a.d2.size


def _golden_trace():
    # exact in binary: the digests below must not hinge on libm (the
    # counts use exp and log, but only a uniform within rounding of a CDF
    # step could tell two implementations apart)
    k = np.arange(1_200_000)  # two detection blocks
    samples = 1.0 + (k % 97) / 96.0
    return IntensityTrace(0.0, 1e-6, samples, 1.5)


def _stream_digest(stream):
    h = hashlib.sha256()
    h.update(stream.d1.astype("<i8").tobytes())
    h.update(b"|")
    h.update(stream.d2.astype("<i8").tobytes())
    return h.hexdigest()


_GOLDEN = {
    "default_detector": (
        dict(cfg=DetectorConfig(rate_hz=1e5), kwargs={}),
        "5e6c56d89f7fbfc4eaa66af2c3d5eadc6826ce1ee2a87a8bb542b0a5e56bbfd6",
    ),
    "dark_counts_two_threads": (
        dict(cfg=DetectorConfig(rate_hz=1e5, dark_rate_hz=5e3), kwargs={"threads": 2}),
        "3d96da8394d8024ee18bbb4d6b2e3abce5a5747dfdc6c03f7115211e8bf79d65",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_realizations_are_pinned(case):
    # the random realization of a (trace, config, seed) is part of the
    # reproducibility contract: any change to the draws shows up here
    spec, digest = _GOLDEN[case]
    stream = detect_photons(_golden_trace(), spec["cfg"], seed=11, **spec["kwargs"])
    assert stream.d1.size > 0 and stream.d2.size > 0
    assert _stream_digest(stream) == digest


def _short_trace():
    # a few thousand samples at about one photon each
    k = np.arange(5_000)
    return IntensityTrace(0.0, 1e-3, 1.0 + (k % 89) / 88.0, 1.5)


@pytest.mark.parametrize("chunk", [1, 5, 1000])
def test_sample_chunks_do_not_change_events(monkeypatch, chunk):
    # blocks of 2048 samples keep the trace several blocks long, with a
    # partial last block, while a chunk of one sample stays affordable
    monkeypatch.setattr("superbunch.detection._BLOCK", 2048)
    cases = [
        (DetectorConfig(rate_hz=500.0), {}),
        (DetectorConfig(rate_hz=500.0, dark_rate_hz=300.0), {"threads": 2}),
    ]
    trace = _short_trace()
    expected = [detect_photons(trace, cfg, seed=7, **kw) for cfg, kw in cases]
    # a chunk of `chunk` samples fills the scratch
    monkeypatch.setattr(detection, "SCRATCH_BYTES", chunk * detection._SAMPLE_SCRATCH)
    for (cfg, kw), want in zip(cases, expected):
        got = detect_photons(trace, cfg, seed=7, **kw)
        assert want.n1 > 1000 and want.n2 > 1000
        assert np.array_equal(got.d1, want.d1)
        assert np.array_equal(got.d2, want.d2)


def _detection_peak(n, rate_hz, threads=1):
    """(traced peak bytes of detect_photons on n unit samples, events)."""
    trace = IntensityTrace(0.0, 1e-6, np.ones(n), 1.0)
    tracemalloc.start()
    try:
        stream = detect_photons(trace, DetectorConfig(rate_hz=rate_hz), seed=2, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, stream.n1 + stream.n2


def test_detection_memory_is_bounded_by_the_sample_chunk():
    # one block of 2**20 samples at about 0.04 expected photons each
    peak, events = _detection_peak(1 << 20, 2e4)
    assert 3e4 < events < 5e4
    bound = detection.SCRATCH_BYTES + 64 * events
    assert peak < bound, f"peak {peak / 1e6:.1f} MB"
    # holding a whole block's uniforms, mu and CDF would not fit
    assert 3 * 8 * detection._BLOCK > bound


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("threads", [1, 2])
def test_detection_scratch_does_not_grow_with_the_trace(monkeypatch, threads):
    # 2**20 and 2**22 samples at 0.004 expected photons each: apart from
    # the photons, 64 bytes each at most, the peak is a chunk per worker
    # and does not grow with the trace, which a float per sample would
    # (8 MB to 32 MB); blocks of 2**18 samples give both lengths as many
    # workers as threads
    monkeypatch.setattr(detection, "_BLOCK", 1 << 18)
    assert detection.SCRATCH_BYTES // detection._SAMPLE_SCRATCH < detection._BLOCK
    scratch = {}
    for n in (1 << 20, 1 << 22):
        peak, events = _detection_peak(n, 2e3, threads)
        assert 0.8 * 4e-3 * n < events < 1.2 * 4e-3 * n
        scratch[n] = peak - 64 * events
        assert scratch[n] <= threads * detection.SCRATCH_BYTES, f"{scratch[n] / 1e6:.2f} MB"
    grown = scratch[1 << 22] - scratch[1 << 20]
    assert grown <= 2**16, f"grew by {grown / 1e6:.2f} MB"


def _counts(u, mu):
    levels = detection._poisson_levels(u, mu, np.empty(u.size), np.empty(u.size, dtype=bool))
    for lo, hi in zip(levels, levels[1:]):
        assert np.all(np.isin(hi, lo))  # each level is within the one below
    return np.bincount(np.concatenate([[]] + levels).astype(int), minlength=u.size)


def _poisson_cdf(k, mu):
    return sum(math.exp(-mu) * mu**j / math.factorial(j) for j in range(k + 1))


def test_poisson_counts_small_cases():
    mu = np.full(5, 1.0)
    # F(0..3; 1) = 0.3679, 0.7358, 0.9197, 0.9810
    u = np.array([0.0, 0.3, 0.5, 0.8, 0.95])
    assert _counts(u, mu).tolist() == [0, 0, 1, 2, 3]
    assert _counts(u, np.zeros(5)).tolist() == [0] * 5
    # against the textbook CDF, away from its steps
    rng = np.random.default_rng(0)
    for m in (0.01, 0.5, 3.0, 20.0):
        u = rng.random(2000)
        want = []
        for x in u:
            k = 0
            while x >= _poisson_cdf(k, m):
                k += 1
            want.append(k)
        got = _counts(u, np.full(u.size, m))
        near_step = np.array([abs(x - _poisson_cdf(k, m)) < 1e-12 for x, k in zip(u, want)])
        assert np.array_equal(got[~near_step], np.array(want)[~near_step])


def test_poisson_counts_are_monotone_in_mu():
    mu = np.linspace(0.0, 30.0, 3001)
    u = np.random.default_rng(1).random(500).tolist() + [0.0, 0.5, 1 - 1e-9]
    for x in u:
        k = _counts(np.full(mu.size, x), mu)
        assert np.all(np.diff(k) >= 0), x


def test_poisson_counts_terminate_near_one_and_past_underflow():
    u = np.array([1 - 2.0**-53])
    k = int(_counts(u, np.array([100.0]))[0])
    assert 150 < k < 300
    # exp(-800) underflows to 0; the walk must still reach the median
    k = int(_counts(np.array([0.5]), np.array([800.0]))[0])
    assert abs(k - 800) <= 1


def test_mix_is_splitmix64():
    def reference(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    # the first output of splitmix64 seeded with 0
    assert int(detection._mix(0x9E3779B97F4A7C15)[0]) == 0xE220A8397B1DCDAF
    z = [0, 1, 2, 2**63, 2**64 - 1, 0x0123456789ABCDEF]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = detection._mix(np.array(z, dtype=np.uint64))
    assert [int(x) for x in got] == [reference(x) for x in z]


def test_per_sample_counts_are_poisson():
    # constant trace at mu = 2 photons per 1 ms sample; holds for any
    # exact sampler of the piecewise-constant rate, thinning included
    n, dt = 20_000, 1e-3
    trace = IntensityTrace(0.0, dt, np.ones(n), 1.0)
    stream = detect_photons(trace, DetectorConfig(rate_hz=1e3), seed=12)
    ts = np.concatenate([stream.d1, stream.d2])
    counts = np.bincount(np.bincount(ts // 1_000_000, minlength=n), minlength=9)
    observed = np.append(counts[:8], counts[8:].sum())
    pmf = np.array([math.exp(-2.0) * 2.0**j / math.factorial(j) for j in range(8)])
    expected = n * np.append(pmf, 1 - pmf.sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < 27.88  # chi-square upper 0.999 point, 9 dof


def test_offsets_are_uniform_within_a_sample():
    n, dt = 20_000, 1e-3
    trace = IntensityTrace(0.0, dt, np.ones(n), 1.0)
    stream = detect_photons(trace, DetectorConfig(rate_hz=1e3), seed=13)
    frac = np.concatenate([stream.d1, stream.d2]) % 1_000_000 / 1e6
    observed = np.bincount((frac * 20).astype(int), minlength=20)
    expected = frac.size / 20
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < 43.82  # chi-square upper 0.999 point, 19 dof


def test_pileup_guard():
    cfg = DetectorConfig(rate_hz=1e6, resolution_ns=1000)
    with pytest.raises(ResolutionError):
        detect_photons(_constant_trace(0.1, 1e-7), cfg, seed=0)


def test_an_infinite_sample_is_refused_before_the_resolution_check():
    samples = np.ones(1000)
    samples[500] = np.inf
    trace = IntensityTrace(0.0, 1e-6, samples, 1.0)
    with pytest.raises(ValueError, match="finite") as info:
        detect_photons(trace, DetectorConfig(rate_hz=1e3), seed=0)
    assert not isinstance(info.value, ResolutionError)


# Gate of the dark counts, on a dark-only run (a constant trace at a
# negligible light rate), from first principles: each bound holds on
# correct physics but at the stated false-alarm rate.  Each detector's
# count is Poisson((d + rate) * T): two-sided normal tail 1e-4 each, z =
# 3.891.  The events over 20 equal time bins: the chi-square upper 0.999
# point with 19 degrees of freedom.  The cross-correlation over 100 bins
# of z values: as criterion 7 of tests/test_acceptance.py, the
# chi-square upper 0.999 point with 100 degrees of freedom and the
# two-sided Bonferroni bound on the largest |z| at family-wise 1e-3.
_Z_DARK = 3.891
_CHI2_999_19 = 43.82
_CHI2_999_100, _ZMAX_BONFERRONI = 149.45, 4.417
_DARK_HZ, _DARK_LIGHT_HZ, _DARK_T = 1e3, 1e-3, 20.0


@functools.lru_cache(maxsize=None)
def _dark_only():
    cfg = DetectorConfig(rate_hz=_DARK_LIGHT_HZ, dark_rate_hz=_DARK_HZ)
    return detect_photons(_constant_trace(_DARK_T, 1e-4), cfg, seed=4)


def test_dark_counts():
    stream = _dark_only()
    expected = (_DARK_HZ + _DARK_LIGHT_HZ) * _DARK_T
    for count in (stream.n1, stream.n2):
        assert abs(count - expected) < _Z_DARK * math.sqrt(expected), count


def test_dark_counts_are_uniform_in_time():
    stream = _dark_only()
    ts = np.concatenate([stream.d1, stream.d2])
    observed, _ = np.histogram(ts, bins=20, range=(0, _DARK_T * 1e9))
    expected = ts.size / 20
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < _CHI2_999_19


def test_dark_counts_are_uncorrelated_across_detectors():
    # two independent uniform streams over T expect 1 - |tau| / T, not 1
    curve = normalize_g2(coincidence_histogram(_dark_only(), 1e-3, 5e-2))
    assert curve.value.size == 100
    z = (curve.value - (1 - np.abs(curve.tau) / _DARK_T)) / curve.stderr
    chi2, zmax = float(np.sum(z * z)), float(np.max(np.abs(z)))
    assert chi2 < _CHI2_999_100 and zmax < _ZMAX_BONFERRONI, (chi2, zmax)


def test_pileup_bound_covers_light_and_dark_counts(monkeypatch):
    # 1 us ticks: light at 0.08 events a tick and dark counts at 0.03 pass
    # alone, and together exceed the bound of 0.1 before any draw
    trace = _constant_trace(0.01)
    light = DetectorConfig(rate_hz=4e4, resolution_ns=1000)
    dark = DetectorConfig(rate_hz=1e-3, resolution_ns=1000, dark_rate_hz=1.5e4)
    both = DetectorConfig(rate_hz=4e4, resolution_ns=1000, dark_rate_hz=1.5e4)
    for cfg in (light, dark):
        stream = detect_photons(trace, cfg, seed=0)
        assert stream.n1 + stream.n2 > 0
    monkeypatch.setattr(detection, "substream", None)  # a draw would fail at once
    with pytest.raises(ResolutionError, match="dark_rate_hz"):
        detect_photons(trace, both, seed=0)


def test_stream_validation():
    with pytest.raises(ValueError):
        PhotonStream(np.array([3, 1]), np.array([1]), 1, 1.0)


@pytest.mark.parametrize("ext,fmt", [("txt", "text"), ("csv", "text"), ("bin", "binary"), ("phot", "binary")])
def test_write_read_round_trip(tmp_path, ext, fmt):
    cfg = DetectorConfig(rate_hz=5e3, resolution_ns=1)
    stream = detect_photons(_constant_trace(1.0), cfg, seed=6)
    path = tmp_path / f"photons.{ext}"
    write_photon_stream(stream, path)
    back = read_photon_stream(path, duration_s=1.0)
    assert np.array_equal(back.d1, stream.d1)
    assert np.array_equal(back.d2, stream.d2)
    # explicit format argument overrides the extension
    other = tmp_path / "photons.dat"
    write_photon_stream(stream, other, fmt=fmt)
    back2 = read_photon_stream(other, fmt=fmt, duration_s=1.0)
    assert np.array_equal(back2.d1, stream.d1)


@pytest.mark.parametrize("ext", ["txt", "bin"])
def test_chunk_size_does_not_change_the_stream(tmp_path, monkeypatch, ext):
    # chunks of one record, of a few, and one chunk for the whole file
    stream = detect_photons(_constant_trace(1.0), DetectorConfig(rate_hz=300.0), seed=6)
    assert 400 < stream.n1 + stream.n2 < 1000
    path = tmp_path / f"photons.{ext}"
    write_photon_stream(stream, path)
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(detection, "_CHUNK_RECORDS", chunk)
        back = read_photon_stream(path)
        assert back.d1.tobytes() == stream.d1.tobytes(), chunk
        assert back.d2.tobytes() == stream.d2.tobytes(), chunk
        first = min(stream.d1[0], stream.d2[0])
        last = max(stream.d1[-1], stream.d2[-1])
        assert back.duration_s == (int(last) - int(first) + 1) * 1e-9


def _traced_read(path) -> tuple[int, int]:
    """The events of a photon file and the tracemalloc peak of reading it."""
    tracemalloc.start()
    try:
        stream = read_photon_stream(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return stream.n1 + stream.n2, peak


def test_a_chunk_fits_the_scratch_budget():
    assert detection._CHUNK_RECORDS * detection._RECORD_SCRATCH <= _workers.SCRATCH_BYTES


# the default chunk, and a small one for text, whose traced read is slow per line
@pytest.mark.parametrize("ext,chunk", [("bin", None), ("txt", 1 << 12)])
def test_read_memory_is_the_stream_plus_one_chunk(tmp_path, monkeypatch, ext, chunk):
    # the stream's own 8 bytes an event, its parts while a channel is
    # joined, and one chunk's buffers; a whole-file read takes 26 bytes an event
    if chunk is not None:
        monkeypatch.setattr(detection, "_CHUNK_RECORDS", chunk)
    records = detection._CHUNK_RECORDS
    budget = records * detection._RECORD_SCRATCH
    rng = np.random.default_rng(3)
    peaks = []
    for events in (4 * records, 16 * records):
        ts = np.sort(rng.integers(0, 10**10, events))
        to_d1 = rng.random(events) < 0.5
        path = tmp_path / f"photons{events}.{ext}"
        write_photon_stream(PhotonStream(ts[to_d1], ts[~to_d1], 1, 10.0), path)
        del ts, to_d1
        read, peak = _traced_read(path)
        assert read == events
        assert peak <= 16 * events + budget, f"{peak / events:.1f} bytes an event"
        peaks.append(peak)
    # flat per event: the longer file costs at most 16 bytes more an event
    assert peaks[1] - peaks[0] <= 16 * 12 * records, [p / 1e6 for p in peaks]


def test_a_short_text_file_costs_no_full_chunk(tmp_path):
    # np.loadtxt allocates all max_rows rows before it reads: a block no
    # larger than the file can hold keeps a short text read near the
    # binary one's 0.04 MB, where a full chunk's rows would take 1.36 MB
    stream = detect_photons(_constant_trace(1.0), DetectorConfig(rate_hz=500.0), seed=6)
    assert 900 < stream.n1 + stream.n2 < 1100
    path = tmp_path / "photons.txt"
    write_photon_stream(stream, path)
    read, peak = _traced_read(path)
    assert read == stream.n1 + stream.n2
    assert peak <= 0.25e6, f"{peak / 1e6:.2f} MB"


def test_text_format_layout(tmp_path):
    stream = PhotonStream(np.array([100, 300]), np.array([200]), 1, 1e-6)
    path = tmp_path / "p.txt"
    write_photon_stream(stream, path)
    assert path.read_text() == "1,100\n2,200\n1,300\n"


def test_text_photons_golden_bytes(tmp_path):
    # channel then timestamp in plain decimal: a zero, a tie between the
    # detectors (channel 1 first) and a timestamp past 2**32
    d1 = np.array([0, 5, 1_000_000_007, 2**40 + 3])
    stream = PhotonStream(d1, np.array([5, 17, 999]), 1, 2000.0)
    path = tmp_path / "photons.txt"
    write_photon_stream(stream, path)
    assert path.read_bytes() == (
        b"1,0\n1,5\n2,5\n2,17\n2,999\n1,1000000007\n1,1099511627779\n"
    )


def test_text_writer_chunk_boundaries(tmp_path, monkeypatch):
    # rows are formatted in chunks; a boundary must not drop or double a line
    monkeypatch.setattr("superbunch.detection._TEXT_ROWS", 2)
    stream = PhotonStream(np.array([100, 300, 500]), np.array([200, 400]), 1, 1e-6)
    path = tmp_path / "p.txt"
    write_photon_stream(stream, path)
    assert path.read_text() == "1,100\n2,200\n1,300\n2,400\n1,500\n"


def test_binary_format_layout(tmp_path):
    stream = PhotonStream(np.array([100, 300]), np.array([200]), 1, 1e-6)
    path = tmp_path / "p.bin"
    write_photon_stream(stream, path)
    blob = path.read_bytes()
    assert len(blob) == 3 * 9  # u64 timestamp + u8 channel per record
    rec = np.frombuffer(blob, dtype=[("timestamp_ns", "<u8"), ("channel", "u1")])
    assert list(rec["timestamp_ns"]) == [100, 200, 300]
    assert list(rec["channel"]) == [1, 2, 1]


_LAST_NS = 2**63 - 2**58 - 1  # the last timestamp a photon file holds


# every digit count of a timestamp, each side of each power of ten, the
# last timestamp the files hold, and a run of 24 rows about 10**6
_EDGES = np.unique(
    [0, _LAST_NS]
    + [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
    + list(range(10**6 - 12, 10**6 + 12))
)


def _edge_stream() -> PhotonStream:
    # every other edge on both channels, so D1 and D2 tie there
    return PhotonStream(_EDGES, _EDGES[::2], 1, 9e9)


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_text_edges_match_percent_d(tmp_path, monkeypatch, chunk_rows):
    # 7-row chunks end both inside a run of one digit count and between two
    if chunk_rows is not None:
        monkeypatch.setattr("superbunch.detection._TEXT_ROWS", chunk_rows)
    stream = _edge_stream()
    path = tmp_path / "p.txt"
    write_photon_stream(stream, path)
    records = sorted([(t, 1) for t in stream.d1.tolist()] + [(t, 2) for t in stream.d2.tolist()])
    assert path.read_bytes() == "".join("%d,%d\n" % (ch, t) for t, ch in records).encode()


@pytest.mark.parametrize("fmt, unit", [("txt", "line"), ("bin", "record")])
def test_timestamp_domain_edges_write_and_read_back(tmp_path, fmt, unit):
    path = tmp_path / f"photons.{fmt}"
    stream = _edge_stream()
    write_photon_stream(stream, path)
    back = read_photon_stream(path)
    assert np.array_equal(back.d1, stream.d1) and np.array_equal(back.d2, stream.d2)
    # what the reader would refuse is not written: -1 is record 1, and
    # 2**63 - 2**58 record 3, after channel 2's 7
    outside = "timestamp outside [0, 2**63 - 2**58) ns at"
    for d1, at in (([-1, 5], 1), ([5, _LAST_NS + 1], 3)):
        path = tmp_path / f"outside.{fmt}"
        with pytest.raises(DataError) as err:
            write_photon_stream(PhotonStream(np.array(d1), np.array([7]), 1, 1.0), path)
        assert str(err.value) == f"{path}: {outside} {unit} {at}"
        assert not path.exists()


@pytest.mark.parametrize("fmt", ["txt", "bin"])
def test_a_stream_with_an_empty_channel_is_not_written(tmp_path, fmt):
    # the reader refuses such a file, so the writer does too
    path = tmp_path / f"photons.{fmt}"
    for d1, d2, empty in (([5], [], 2), ([], [5], 1)):
        stream = PhotonStream(np.array(d1, np.int64), np.array(d2, np.int64), 1, 1.0)
        with pytest.raises(DataError) as err:
            write_photon_stream(stream, path)
        assert str(err.value) == f"{path}: no events on channel {empty}"
        assert not path.exists()


def test_duration_inferred_when_absent(tmp_path):
    stream = PhotonStream(np.array([100]), np.array([250]), 1, 1.0)
    path = tmp_path / "p.txt"
    write_photon_stream(stream, path)
    back = read_photon_stream(path)
    assert back.duration_s == pytest.approx((250 - 100 + 1) * 1e-9)


def test_bad_channel_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,100\n3,200\n")
    with pytest.raises(DataError):
        read_photon_stream(path)


def test_unsorted_file_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,300\n2,200\n")
    with pytest.raises(DataError):
        read_photon_stream(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("1,100\n2,oops\n1,300\n", "line 2: malformed record"),
        ("# hdr\n1,100\n2,oops\n", "line 3: malformed record"),
        ("# hdr\n1,10\n3,20\n", "invalid channel 3 at line 3"),
        ("1,10\n\n3,20\n", "invalid channel 3 at line 3"),
        ("# a\n# b\n1,300\n2,200\n", "timestamps not sorted at line 4"),
        ("1,10,5\n2,20,6\n", "line 1: expected 2 columns, found 3"),
        ("1,10\n\n2,20,6\n", "line 3: expected 2 columns, found 3"),
        # Python's int never overflows, numpy's int64 does
        ("1,10\n2,99999999999999999999\n", "line 2: malformed record"),
        # Python's int takes underscores and non-ASCII digits, np.loadtxt does not
        ("1,10\n2,1_000\n", "line 2: malformed record"),
        ("1,10\n2,\u0661\u0662\n", "line 2: malformed record"),
    ],
    ids=[
        "bad-cell",
        "bad-cell-after-comment",
        "channel-after-comment",
        "channel-after-blank-line",
        "unsorted-after-comments",
        "three-columns",
        "ragged",
        "twenty-digit",
        "underscore",
        "arabic-indic-digits",
    ],
)
def test_malformed_text_reports_line(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        read_photon_stream(path)
    assert str(err.value) == f"{path}: {message}"


def test_empty_text_file_fails_without_a_warning(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no data rows"):
            read_photon_stream(path)


def test_files_that_loaded_before_still_load(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# channel,timestamp_ns\n1,10\n\n2, 20 # late\r\n\n1,+30\n2,40")
    # np.loadtxt warns of the blank and comment lines max_rows does not count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = read_photon_stream(path)
    assert stream.d1.tolist() == [10, 30]
    assert stream.d2.tolist() == [20, 40]


@pytest.mark.parametrize("chunk", [1, 2])
def test_blank_and_comment_lines_between_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(detection, "_CHUNK_RECORDS", chunk)
    test_files_that_loaded_before_still_load(tmp_path)


def test_truncated_binary_reports_offset(tmp_path):
    stream = PhotonStream(np.array([100, 300]), np.array([200]), 1, 1e-6)
    path = tmp_path / "p.bin"
    write_photon_stream(stream, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataError, match="byte"):
        read_photon_stream(path)


def test_binary_timestamp_beyond_int64_reports_record(tmp_path):
    stream = PhotonStream(np.array([100, 300]), np.array([200]), 1, 1e-6)
    path = tmp_path / "p.bin"
    write_photon_stream(stream, path)
    blob = bytearray(path.read_bytes())
    blob[9:17] = (2**63).to_bytes(8, "little")  # second record's timestamp
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="record 2"):
        read_photon_stream(path)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(rate_hz=0.0)
    for resolution_ns in (0, 2.5):
        with pytest.raises(ValueError):
            DetectorConfig(rate_hz=1e3, resolution_ns=resolution_ns)
    with pytest.raises(ValueError):
        DetectorConfig(rate_hz=1e3, dark_rate_hz=-1.0)
