import numpy as np
import pytest

from superbunch import (
    Constant,
    DataError,
    DetectorConfig,
    IntensityTrace,
    PhotonStream,
    ResolutionError,
    detect_photons,
    read_photon_stream,
    sample_intensity,
    write_photon_stream,
)


def _constant_trace(duration=10.0, dt=1e-5, level=1.0):
    n = int(round(duration / dt))
    return sample_intensity(Constant(level), 0.0, dt, n, 0)


def test_total_rate_and_split():
    cfg = DetectorConfig(rate_hz=1e4, resolution_s=1e-9)
    stream = detect_photons(_constant_trace(10.0), cfg, seed=1)
    total = stream.d1.size + stream.d2.size
    # Poisson(2e5): allow 5 sigma
    assert abs(total - 2e5) < 5 * np.sqrt(2e5)
    # 50:50 splitter: binomial z-test at 5 sigma
    assert abs(stream.d1.size - stream.d2.size) < 5 * np.sqrt(total)


def test_intensity_weighting_is_unbiased():
    # step trace: second half three times brighter; event counts follow
    samples = np.concatenate([np.ones(500_000), 3.0 * np.ones(500_000)])
    trace = IntensityTrace(0.0, 1e-5, samples, float(samples.mean()))
    cfg = DetectorConfig(rate_hz=2e4, resolution_s=1e-9)
    stream = detect_photons(trace, cfg, seed=3)
    ts = np.sort(np.concatenate([stream.d1, stream.d2]))
    mid = 5.0 * 1e9
    n_lo = int(np.searchsorted(ts, mid))
    n_hi = ts.size - n_lo
    expect_lo = ts.size * 0.25
    assert abs(n_lo - expect_lo) < 5 * np.sqrt(expect_lo)
    assert n_hi > n_lo


def test_timestamps_quantized_and_in_range():
    cfg = DetectorConfig(rate_hz=5e3, resolution_s=10e-9)
    stream = detect_photons(_constant_trace(2.0), cfg, seed=2)
    for arr in (stream.d1, stream.d2):
        assert np.all(arr % 10 == 0)
        assert np.all(arr >= 0)
        assert np.all(arr <= 2.0 * 1e9)
    assert stream.resolution_ns == 10


def test_thread_count_does_not_change_results():
    trace = _constant_trace(30.0, 1e-5)  # 3e6 samples: several blocks
    cfg = DetectorConfig(rate_hz=2e4, resolution_s=1e-9)
    a = detect_photons(trace, cfg, seed=5, threads=1)
    b = detect_photons(trace, cfg, seed=5, threads=4)
    assert np.array_equal(a.d1, b.d1)
    assert np.array_equal(a.d2, b.d2)


def test_seed_changes_results():
    cfg = DetectorConfig(rate_hz=1e4, resolution_s=1e-9)
    a = detect_photons(_constant_trace(1.0), cfg, seed=1)
    b = detect_photons(_constant_trace(1.0), cfg, seed=2)
    assert not np.array_equal(a.d1, b.d1)


def test_monotone_coupling_with_shared_ceiling():
    # two traces with the same declared mean and a shared explicit ceiling:
    # the dimmer trace's events are a subset of the brighter one's
    rng = np.random.default_rng(8)
    bright = rng.random(200_000) + 0.5
    dim = 0.4 * bright
    t_bright = IntensityTrace(0.0, 1e-5, bright, 1.0)
    t_dim = IntensityTrace(0.0, 1e-5, dim, 1.0)
    cfg = DetectorConfig(rate_hz=1e4, resolution_s=1e-9)
    ceiling = 2 * 1e4 * bright.max() / 1.0
    a = detect_photons(t_dim, cfg, seed=9, rate_ceiling_hz=ceiling)
    b = detect_photons(t_bright, cfg, seed=9, rate_ceiling_hz=ceiling)
    assert set(a.d1).issubset(set(b.d1))
    assert set(a.d2).issubset(set(b.d2))
    assert b.d1.size + b.d2.size > a.d1.size + a.d2.size


def test_ceiling_below_peak_rejected():
    cfg = DetectorConfig(rate_hz=1e4, resolution_s=1e-9)
    with pytest.raises(ValueError):
        detect_photons(_constant_trace(1.0), cfg, seed=0, rate_ceiling_hz=1e3)


def test_pileup_guard():
    cfg = DetectorConfig(rate_hz=1e6, resolution_s=1e-6)
    with pytest.raises(ResolutionError):
        detect_photons(_constant_trace(0.1, 1e-7), cfg, seed=0)


def test_dark_counts():
    trace = _constant_trace(20.0)
    cfg = DetectorConfig(rate_hz=1e-3, resolution_s=1e-9, dark_rate_hz=1e3)
    stream = detect_photons(trace, cfg, seed=4)
    total = stream.d1.size + stream.d2.size
    assert abs(total - 2 * 1e3 * 20.0) < 5 * np.sqrt(2 * 1e3 * 20.0)


def test_stream_validation():
    with pytest.raises(ValueError):
        PhotonStream(np.array([3, 1]), np.array([1]), 1, 1.0)


@pytest.mark.parametrize("ext,fmt", [("txt", "text"), ("csv", "text"), ("bin", "binary"), ("phot", "binary")])
def test_write_read_round_trip(tmp_path, ext, fmt):
    cfg = DetectorConfig(rate_hz=5e3, resolution_s=1e-9)
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


def test_text_format_layout(tmp_path):
    stream = PhotonStream(np.array([100, 300]), np.array([200]), 1, 1e-6)
    path = tmp_path / "p.txt"
    write_photon_stream(stream, path)
    assert path.read_text() == "1,100\n2,200\n1,300\n"


def test_binary_format_layout(tmp_path):
    stream = PhotonStream(np.array([100, 300]), np.array([200]), 1, 1e-6)
    path = tmp_path / "p.bin"
    write_photon_stream(stream, path)
    blob = path.read_bytes()
    assert len(blob) == 3 * 9  # u64 timestamp + u8 channel per record
    rec = np.frombuffer(blob, dtype=[("timestamp_ns", "<u8"), ("channel", "u1")])
    assert list(rec["timestamp_ns"]) == [100, 200, 300]
    assert list(rec["channel"]) == [1, 2, 1]


def test_duration_inferred_when_absent(tmp_path):
    stream = PhotonStream(np.array([100]), np.array([250]), 1, 1.0)
    path = tmp_path / "p.txt"
    write_photon_stream(stream, path)
    back = read_photon_stream(path)
    assert back.duration_s == pytest.approx((250 + 1) * 1e-9)


def test_malformed_text_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,100\n2,oops\n1,300\n")
    with pytest.raises(DataError, match="line 2"):
        read_photon_stream(path)


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
    with pytest.raises(ValueError):
        DetectorConfig(rate_hz=1e3, resolution_s=0.5e-9)
    with pytest.raises(ValueError):
        DetectorConfig(rate_hz=1e3, dark_rate_hz=-1.0)
