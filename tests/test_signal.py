import tracemalloc

import numpy as np
import pytest

from superbunch import (
    BandNoise,
    ConfigError,
    Constant,
    EomDrive,
    EomTransfer,
    IntensityTrace,
    Sinusoid,
    eom_transfer,
    modulation_autocorrelation,
    sample_intensity,
    write_intensity_csv,
)
from superbunch.signal import modulate_in_place
from superbunch.speckle import SpeckleParams, generate_speckle_field


def test_eom_transfer_reference_points():
    # center, crest, trough and one full period of the measured transfer
    assert eom_transfer(0.49) == pytest.approx(2.04, abs=1e-12)
    assert eom_transfer(0.49 + 8.65 / 2) == pytest.approx(2.04 + 1.92, abs=1e-12)
    assert eom_transfer(0.49 - 8.65 / 2) == pytest.approx(2.04 - 1.92, abs=1e-12)
    assert eom_transfer(3.0) == pytest.approx(eom_transfer(3.0 + 2 * 8.65), abs=1e-12)
    # output stays within the physical transmission range for any drive
    v = np.linspace(-30, 30, 4001)
    out = eom_transfer(v)
    assert out.min() >= 2.04 - 1.92 - 1e-12
    assert out.max() <= 2.04 + 1.92 + 1e-12


def test_eom_transfer_scalar_and_errors():
    assert isinstance(eom_transfer(1.0), float)
    with pytest.raises(ValueError):
        eom_transfer(np.nan)
    custom = EomTransfer(offset=1.0, amplitude=0.5, period_v=2.0, center_v=0.0)
    assert eom_transfer(0.0, custom) == pytest.approx(1.0)
    assert eom_transfer(1.0, custom) == pytest.approx(1.5)


def test_constant_trace():
    tr = sample_intensity(Constant(base_intensity=2.5), 0.0, 1e-6, 100, 0)
    assert tr.mean == pytest.approx(2.5)
    assert np.all(tr.samples == 2.5)
    assert tr.n == 100
    assert tr.duration == pytest.approx(1e-4)


def test_sinusoid_matches_closed_form_autocorrelation():
    depth, f0 = 0.6, 50e3
    omega = 2 * np.pi * f0
    tr = sample_intensity(Sinusoid(1.0, depth, omega, 0.0), 0.0, 1e-6, 200_000, 0)
    curve = modulation_autocorrelation(tr, 60e-6)
    expected = 1.0 + 0.5 * depth**2 * np.cos(omega * curve.tau)
    assert np.max(np.abs(curve.value - expected)) < 1e-3


def test_sinusoid_alias_guard():
    with pytest.raises(ConfigError):
        sample_intensity(Sinusoid(1.0, 0.8, 2 * np.pi * 50e3, 0.0), 0.0, 1e-5, 100, 0)
    # ten samples per period is allowed
    sample_intensity(Sinusoid(1.0, 0.8, 2 * np.pi * 50e3, 0.0), 0.0, 2e-6, 100, 0)


def test_sinusoid_depth_bounds():
    with pytest.raises(ValueError):
        Sinusoid(1.0, 1.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        Sinusoid(1.0, -0.1, 1.0, 0.0)


def test_band_noise_statistics():
    model = BandNoise(mean_intensity=1.0, cutoff_hz=200.0)
    tr = sample_intensity(model, 0.0, 1e-4, 1_000_000, 7)
    assert tr.mean == pytest.approx(np.mean(tr.samples))
    assert tr.mean == pytest.approx(1.0, abs=1e-9)  # scaled to the requested mean
    # thermal statistics: <X^2>/<X>^2 = 2 (about 20k coherence cells here)
    ratio = np.mean(tr.samples**2) / tr.mean**2
    assert ratio == pytest.approx(2.0, abs=0.08)
    assert np.all(tr.samples >= 0)


def test_band_noise_is_band_limited():
    model = BandNoise(mean_intensity=1.0, cutoff_hz=100.0)
    tr = sample_intensity(model, 0.0, 1e-3, 65_536, 3)
    spec = np.abs(np.fft.rfft(tr.samples - tr.mean)) ** 2
    freqs = np.fft.rfftfreq(tr.n, 1e-3)
    inside = spec[freqs <= 2 * model.cutoff_hz].sum()
    outside = spec[freqs > 2 * model.cutoff_hz].sum()
    # |a|^2 of a field limited to +-cutoff/2... occupies at most the cutoff width
    assert outside < 1e-18 * inside


def test_band_noise_clip_moments_match_closed_form():
    # for unit-mean exponential X clipped at c:
    #   <min(X,c)>   = 1 - exp(-c)
    #   <min(X,c)^2> = 2 - 2(c+1) exp(-c)
    for clip, ratio in [(3.0, 1.77398), (2.0, 1.58895), (1.5, 1.46574)]:
        model = BandNoise(1.0, 200.0, clip_level=clip)
        tr = sample_intensity(model, 0.0, 1e-4, 2_000_000, 11)
        measured = np.mean(tr.samples**2) / tr.mean**2
        assert measured == pytest.approx(ratio, abs=0.02), f"clip={clip}"
        assert tr.samples.max() <= clip + 1e-9


def test_band_noise_quantization():
    model = BandNoise(1.0, 200.0, clip_level=2.0, quantization_bits=8)
    tr = sample_intensity(model, 0.0, 1e-4, 500_000, 5)
    levels = np.unique(tr.samples)
    assert len(levels) <= 256
    step = 2.0 / 255
    assert np.allclose(np.round(tr.samples / step), tr.samples / step, atol=1e-9)


def test_quantization_memory_stays_near_its_output():
    # the sweep_noise_threads modulation: 8-bit band noise at 2M samples;
    # quantizing through temporaries traced 48 MB
    n = 2_000_000
    model = BandNoise(1.0, 200.0, quantization_bits=8)
    tracemalloc.start()
    try:
        samples, _ = model.sample(0.0, 1e-5, n, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.nbytes == 8 * n
    assert peak < 2 * samples.nbytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "model",
    [Constant(2.0), Sinusoid(1.0, 0.9, 2 * np.pi * 50e3, 0.3), EomDrive(vpp=8.0)],
    ids=["constant", "sinusoid", "eom_sine"],
)
def test_deterministic_modulation_adds_no_trace_to_the_speckle(model):
    # the README speckle at 2M samples (not a multiple of the block); the
    # speckle synthesis alone peaks near 1.8 traces, and separate modulation,
    # speckle and product traces peaked at 3.0 (4.0 for the eom drive)
    n = 2_000_000
    speckle = SpeckleParams(bandwidth=62831.853, seed=1)
    tracemalloc.start()
    try:
        joint = modulate_in_place(model, generate_speckle_field(speckle, 0.0, 1e-6, n), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.samples.nbytes == 8 * n
    assert peak < 2.0 * joint.samples.nbytes, f"peak {peak / joint.samples.nbytes:.2f} traces"


@pytest.mark.parametrize(
    "synthesize, quantity, limit",
    [
        (lambda dt: sample_intensity(Sinusoid(1.0, 0.8, 2 * np.pi * 50e3, 0.0), 0.0, dt, 100, 0),
         "[modulation] frequency_hz = 50000", 2e-6),
        (lambda dt: sample_intensity(BandNoise(1.0, 200.0), 0.0, dt, 1000, 0),
         "[modulation] cutoff_hz = 200", 5e-4),
        (lambda dt: sample_intensity(EomDrive(vpp=8.0, frequency_hz=50e3), 0.0, dt, 100, 0),
         "[modulation] frequency_hz = 50000", 2e-6),
        (lambda dt: generate_speckle_field(SpeckleParams(bandwidth=62831.853, seed=0), 0.0, dt, 100),
         "[speckle] bandwidth_rad_s = 62831.9", 1e-5),
    ],
    ids=["sinusoid", "band_noise", "eom", "speckle"],
)
def test_coarse_dt_names_quantity_and_limit(synthesize, quantity, limit):
    # one rule for every sampled process: ten samples per shortest timescale
    with pytest.raises(ConfigError) as err:
        synthesize(limit * 1.01)
    assert quantity in str(err.value)
    assert f"need dt <= {limit:g}" in str(err.value)
    synthesize(limit)  # exactly at the limit is allowed


def test_band_noise_dt_guard_and_flag():
    with pytest.raises(ConfigError):
        sample_intensity(BandNoise(1.0, 200.0), 0.0, 1e-3, 1000, 0)
    tr = sample_intensity(BandNoise(1.0, 200.0), 0.0, 1e-4, 300, 0)  # 30 ms << 10/cutoff
    assert "short-trace" in tr.flags


def test_eom_drive_sinusoid_range():
    tr = sample_intensity(EomDrive(vpp=8.0, frequency_hz=50e3), 0.0, 1e-6, 40_000, 0)
    # the transfer trough (drive -8.65/2 + 0.49 = -3.835 V) lies inside the
    # +-4 V swing, so the intensity reaches the full minimum 2.04 - 1.92;
    # the crest at +4.325 V does not, leaving the maximum at the +4 V endpoint
    assert tr.samples.min() == pytest.approx(2.04 - 1.92, abs=1e-3)
    assert tr.samples.max() == pytest.approx(eom_transfer(4.0), abs=1e-6)
    # dominant spectral line sits at the drive frequency
    spec = np.abs(np.fft.rfft(tr.samples - tr.samples.mean()))
    peak = np.fft.rfftfreq(tr.n, 1e-6)[np.argmax(spec)]
    assert peak == pytest.approx(50e3, rel=1e-3)


def test_eom_drive_noise_clipped_to_vpp():
    tr = sample_intensity(EomDrive(vpp=9.0, frequency_hz=50e3, waveform="noise"), 0.0, 1e-6, 200_000, 1)
    # +-4.5 V covers both transfer extrema, so the intensity spans the full
    # transmission range and nothing beyond it
    assert tr.samples.min() >= 2.04 - 1.92 - 1e-9
    assert tr.samples.max() <= 2.04 + 1.92 + 1e-9
    assert tr.samples.min() == pytest.approx(2.04 - 1.92, abs=0.02)
    assert tr.samples.max() == pytest.approx(2.04 + 1.92, abs=0.02)


def test_eom_zero_vpp_is_constant():
    tr = sample_intensity(EomDrive(vpp=0.0, frequency_hz=50e3), 0.0, 1e-6, 100, 0)
    assert np.all(tr.samples == tr.samples[0])


def test_modulation_autocorrelation_against_direct_sum():
    rng = np.random.default_rng(4)
    samples = rng.random(400) + 0.1
    tr = IntensityTrace(t0=0.0, dt=1e-3, samples=samples, mean=float(samples.mean()))
    curve = modulation_autocorrelation(tr, 50e-3)
    mean_sq = samples.mean() ** 2
    for k in range(51):
        direct = np.mean(samples[: 400 - k] * samples[k:]) / mean_sq if k else np.mean(samples**2) / mean_sq
        assert curve.value[k] == pytest.approx(direct, rel=1e-10), f"lag {k}"
    assert curve.tau[0] == 0.0
    assert curve.tau[1] == pytest.approx(1e-3)


def test_modulation_autocorrelation_lag_limit():
    tr = sample_intensity(Constant(1.0), 0.0, 1e-3, 100, 0)
    with pytest.raises(ValueError):
        modulation_autocorrelation(tr, 60e-3)  # more than half the span


def test_intensity_trace_validation():
    with pytest.raises(ValueError):
        IntensityTrace(0.0, 1e-6, np.array([1.0, -0.5]), 0.25)
    with pytest.raises(ValueError):
        IntensityTrace(0.0, -1e-6, np.array([1.0, 1.0]), 1.0)


def test_intensity_csv(tmp_path):
    tr = sample_intensity(Constant(1.5), 0.0, 1e-6, 5, 0)
    path = tmp_path / "trace.csv"
    write_intensity_csv(tr, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5, 2)
    assert np.allclose(data[:, 1], 1.5)
    assert np.allclose(data[:, 0], np.arange(5) * 1e-6)


def test_intensity_csv_golden_bytes(tmp_path):
    tr = IntensityTrace(t0=1e-07, dt=2.5e-04, samples=np.array([0.1 + 0.2, 0.0, 1e-07]), mean=1.0)
    write_intensity_csv(tr, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"t_s,intensity\n1e-07,0.30000000000000004\n0.0002501,0.0\n0.0005001,1e-07\n"
    )
