import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from superbunch import (
    BandNoise,
    ConfigError,
    Constant,
    DetectorConfig,
    EomDrive,
    EomTransfer,
    IntensityTrace,
    Sinusoid,
    eom_transfer,
    sample_intensity,
    write_intensity_csv,
)
from superbunch import signal
from superbunch.signal import modulate_in_place
from superbunch.speckle import SpeckleParams, generate_speckle_field

from autocorrelation import modulation_autocorrelation


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
    tr = sample_intensity(Constant(intensity=2.5), 0.0, 1e-6, 100, 0)
    assert tr.mean == pytest.approx(2.5)
    assert np.all(tr.samples == 2.5)
    assert tr.n == 100
    assert tr.duration == pytest.approx(1e-4)


def test_sinusoid_matches_closed_form_autocorrelation():
    depth, f0 = 0.6, 50e3
    omega = 2 * np.pi * f0
    tr = sample_intensity(Sinusoid(1.0, depth, f0, 0.0), 0.0, 1e-6, 200_000, 0)
    curve = modulation_autocorrelation(tr, 60e-6)
    expected = 1.0 + 0.5 * depth**2 * np.cos(omega * curve.tau)
    assert np.max(np.abs(curve.value - expected)) < 1e-3


def test_sinusoid_alias_guard():
    with pytest.raises(ConfigError):
        sample_intensity(Sinusoid(1.0, 0.8, 50e3, 0.0), 0.0, 1e-5, 100, 0)
    # ten samples per period is allowed
    sample_intensity(Sinusoid(1.0, 0.8, 50e3, 0.0), 0.0, 2e-6, 100, 0)


def test_sinusoid_depth_bounds():
    with pytest.raises(ValueError):
        Sinusoid(1.0, 1.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        Sinusoid(1.0, -0.1, 1.0, 0.0)


def test_band_noise_statistics():
    model = BandNoise(intensity=1.0, cutoff_hz=200.0)
    tr = sample_intensity(model, 0.0, 1e-4, 1_000_000, 7)
    assert tr.mean == pytest.approx(np.mean(tr.samples))
    assert tr.mean == pytest.approx(1.0, abs=1e-9)  # scaled to the requested mean
    # thermal statistics: <X^2>/<X>^2 = 2 (about 20k coherence cells here)
    ratio = np.mean(tr.samples**2) / tr.mean**2
    assert ratio == pytest.approx(2.0, abs=0.08)
    assert np.all(tr.samples >= 0)


def test_band_noise_is_band_limited():
    model = BandNoise(intensity=1.0, cutoff_hz=100.0)
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
    # (the buffer it multiplies into is allocated before tracing starts)
    n = 2_000_000
    model = BandNoise(1.0, 200.0, quantization_bits=8)
    samples = np.ones(n)
    tracemalloc.start()
    try:
        model.multiply_into(samples, 0.0, 1e-5, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * samples.nbytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "model",
    [Constant(2.0), Sinusoid(1.0, 0.9, 50e3, 0.3), EomDrive(vpp=8.0)],
    ids=["constant", "sinusoid", "eom_sine"],
)
def test_deterministic_modulation_adds_no_trace_to_the_speckle(model):
    # the README speckle at 2M samples (not a multiple of the block); the
    # speckle synthesis alone peaks near 1.8 traces, and separate modulation,
    # speckle and product traces peaked at 3.0 (4.0 for the eom drive)
    n = 2_000_000
    speckle = SpeckleParams(bandwidth_rad_s=62831.853, seed=1)
    tracemalloc.start()
    try:
        joint = modulate_in_place(model, generate_speckle_field(speckle, 0.0, 1e-6, n), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.samples.nbytes == 8 * n
    assert peak < 2.0 * joint.samples.nbytes, f"peak {peak / joint.samples.nbytes:.2f} traces"


@pytest.mark.parametrize(
    "model",
    [Constant(2.0), Sinusoid(1.0, 0.9, 50e3, 0.3), EomDrive(vpp=8.0)],
    ids=["constant", "sinusoid", "eom_sine"],
)
@pytest.mark.usefixtures("many_cpus")
def test_waveform_trace_holds_one_trace_and_its_blocks(model):
    # a waveform kind evaluated per block into a buffer of ones; evaluated
    # over the whole grid at once it traced 2.0 (constant), 3.0 (sinusoid)
    # and 4.0 (eom sine) traces.  On two threads two blocks are in flight.
    n = 2_000_000
    for threads in (1, 2):
        tracemalloc.start()
        try:
            if threads == 1:
                tr = sample_intensity(model, 0.0, 1e-6, n, 0)
            else:
                ones = IntensityTrace(0.0, 1e-6, np.ones(n), 1.0)
                tr = modulate_in_place(model, ones, 0, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.samples.nbytes == 8 * n
        assert peak < 1.5 * tr.samples.nbytes, (
            f"threads={threads}: peak {peak / tr.samples.nbytes:.2f} traces"
        )
        del tr


_BLOCKED = {
    "constant": Constant(2.0),
    "sinusoid": Sinusoid(1.0, 0.9, 50e3, 0.3),
    "eom_sine": EomDrive(vpp=8.0),
    "eom_noise": EomDrive(vpp=8.0, frequency_hz=20e3, waveform="noise"),
}


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("kind", sorted(_BLOCKED))
def test_blocks_give_the_same_bits_on_any_thread_count(kind):
    # eight workers, more than the cores, switching often: each block
    # writes its own slice of the shared buffer, so none can be lost
    n = 3 * signal._BLOCK + 12345  # a partial last block
    speckle = np.random.default_rng(5).random(n) + 0.5
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 8):
            samples = speckle.copy()
            _BLOCKED[kind].multiply_into(samples, 2.5e-4, 1e-6, np.random.default_rng(7), threads)
            out.append(samples.tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert out[0] == out[1] == out[2]


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["eom_sine", "eom_noise"])
def test_blocks_run_on_the_workers_only_when_threaded(monkeypatch, kind, threads):
    # both EOM drives map each block through the transfer
    seen = []
    transfer = signal.eom_transfer

    def spy(v, *args):
        seen.append(threading.get_ident())
        return transfer(v, *args)

    monkeypatch.setattr(signal, "eom_transfer", spy)
    monkeypatch.setattr(signal, "_BLOCK", 1000)
    _BLOCKED[kind].multiply_into(np.ones(10_000), 0.0, 1e-6, np.random.default_rng(7), threads)
    assert len(seen) == 10
    assert (threading.get_ident() in seen) == (threads == 1)


def test_wide_noise_drive_adds_no_more_than_its_std_to_the_speckle():
    # a 20 kHz drive on the README speckle at 2M samples: 80001 modes,
    # n_c 100000; the drive's std holds a deviation trace beside the drive
    # and the speckle (3.0 traces); its synthesis peaked above that, at 3.2
    # traces, with a full twiddle table and an exponential per mode and batch
    n = 2_000_000
    speckle = SpeckleParams(bandwidth_rad_s=62831.853, seed=1)
    model = EomDrive(vpp=8.0, frequency_hz=20e3, waveform="noise")
    tracemalloc.start()
    try:
        joint = modulate_in_place(model, generate_speckle_field(speckle, 0.0, 1e-6, n), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.samples.nbytes == 8 * n
    # the allowance covers interpreter objects, e.g. a first import of numpy.fft
    assert peak <= 3.0 * joint.samples.nbytes + 2**20, (
        f"peak {peak / joint.samples.nbytes:.2f} traces"
    )


@pytest.mark.parametrize(
    "synthesize, quantity, limit",
    [
        (lambda dt: sample_intensity(Sinusoid(1.0, 0.8, 50e3, 0.0), 0.0, dt, 100, 0),
         "[modulation] frequency_hz = 50000", 2e-6),
        (lambda dt: sample_intensity(BandNoise(1.0, 200.0), 0.0, dt, 1000, 0),
         "[modulation] cutoff_hz = 200", 5e-4),
        (lambda dt: sample_intensity(EomDrive(vpp=8.0, frequency_hz=50e3), 0.0, dt, 100, 0),
         "[modulation] frequency_hz = 50000", 2e-6),
        (lambda dt: generate_speckle_field(SpeckleParams(bandwidth_rad_s=62831.853, seed=0), 0.0, dt, 100),
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
    model = BandNoise(1.0, 200.0)
    with pytest.raises(ConfigError):
        sample_intensity(model, 0.0, 1e-3, 1000, 0)
    # ten correlation times of a 200 Hz band are 50 ms: 500 samples of 0.1 ms
    assert model.check(1e-4, 499) == ("short-trace",)
    assert model.check(1e-4, 500) == ()
    assert model.check(1e-4, 501) == ()
    for other in (Constant(), Sinusoid(), EomDrive(), EomDrive(waveform="noise")):
        assert other.check(1e-6, 100) == ()
    # a prime sample count above one synthesis batch, for the noise and the speckle
    assert model.check(1e-4, 262_147) == ("slow-synthesis",)
    assert model.check(1e-4, 400) == ("short-trace",)
    assert SpeckleParams().check(1e-6, 262_147) == ("slow-synthesis",)
    assert SpeckleParams().check(1e-6, 262_144) == ()


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


def test_intensity_trace_refuses_nan_samples_and_a_non_finite_mean():
    samples = np.ones(1000)
    samples[500] = np.nan
    with pytest.raises(ValueError, match="nonnegative"):
        IntensityTrace(0.0, 1e-6, samples, 1.0)
    for mean in (np.inf, np.nan):
        with pytest.raises(ValueError, match="declared mean"):
            IntensityTrace(0.0, 1e-6, np.ones(1000), mean)


# every float field of each model and of the detector: the config refuses
# a non-finite number as it parses it, and a constructor does the same
_FLOAT_FIELDS = {
    EomTransfer: ("offset", "amplitude", "period_v", "center_v"),
    EomDrive: ("vpp", "frequency_hz"),
    BandNoise: ("intensity", "cutoff_hz", "clip_level"),
    Sinusoid: ("intensity", "depth", "frequency_hz", "phase_rad"),
    Constant: ("intensity",),
    DetectorConfig: ("rate_hz", "dark_rate_hz"),
    SpeckleParams: ("bandwidth_rad_s",),
}


def test_float_fields_are_listed():
    for cls, names in _FLOAT_FIELDS.items():
        assert names == tuple(f.name for f in dataclasses.fields(cls) if "float" in str(f.type))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, names in _FLOAT_FIELDS.items() for name in names],
    ids=[f"{cls.__name__}.{name}" for cls, names in _FLOAT_FIELDS.items() for name in names],
)
def test_model_refuses_a_non_finite_field_by_name(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        cls(**{name: value})


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
