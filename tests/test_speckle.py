import numpy as np
import pytest

from superbunch import (
    BandNoise,
    ConfigError,
    Constant,
    SpeckleParams,
    apply_speckle,
    g2_speckle,
    generate_speckle_field,
    sample_intensity,
)

from autocorrelation import modulation_autocorrelation


BW = 2 * np.pi * 10e3  # default speckle bandwidth used throughout


def test_field_mean_is_exactly_one():
    speckle = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=1), 0.0, 1e-5, 50_000)
    assert speckle.samples.mean() == pytest.approx(1.0, abs=1e-12)
    assert speckle.mean == 1.0


def test_intensity_is_negative_exponential():
    # single polarized speckle: P(I) = exp(-I/<I>)/<I>, so <I^2>/<I>^2 = 2
    # and <I^3>/<I>^3 = 6
    speckle = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=2), 0.0, 1e-5, 1_000_000)
    intensity = speckle.samples
    m = intensity.mean()
    assert np.mean(intensity**2) / m**2 == pytest.approx(2.0, abs=0.1)
    assert np.mean(intensity**3) / m**3 == pytest.approx(6.0, abs=1.0)
    # ~10^4 coherence cells: median of exp distribution is ln 2
    assert np.median(intensity) / m == pytest.approx(np.log(2.0), abs=0.05)


def test_intensity_autocorrelation_matches_g2_speckle():
    speckle = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=3), 0.0, 1e-5, 1_000_000)
    curve = modulation_autocorrelation(speckle, 2e-4)
    assert np.max(np.abs(curve.value - g2_speckle(curve.tau, BW))) < 0.02


def test_speckle_is_band_noise_of_the_same_band():
    # the ground glass and the noise modulation are one thermal process:
    # equal band, mean and seed give the same samples
    bw, dt, n = 2 * np.pi * 3e3, 1e-5, 4096
    model = BandNoise(mean_intensity=1.0, cutoff_hz=bw / (2 * np.pi))
    noise = sample_intensity(model, 0.0, dt, n, 12)
    speckle = generate_speckle_field(SpeckleParams(bw, 12), 0.0, dt, n)
    assert np.array_equal(noise.samples, speckle.samples)


def test_determinism():
    a = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=9), 0.0, 1e-5, 4096)
    b = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=9), 0.0, 1e-5, 4096)
    assert np.array_equal(a.samples, b.samples)
    c = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=10), 0.0, 1e-5, 4096)
    assert not np.array_equal(a.samples, c.samples)


def test_dt_guard():
    with pytest.raises(ConfigError):
        generate_speckle_field(SpeckleParams(bandwidth=BW, seed=0), 0.0, 1e-3, 1000)
    # exactly at the ten-samples-per-coherence-time limit is allowed
    generate_speckle_field(SpeckleParams(bandwidth=BW, seed=0), 0.0, 2 * np.pi / (10 * BW), 1000)


def test_apply_speckle_multiplies():
    trace = sample_intensity(Constant(2.0), 0.0, 1e-5, 2048, 0)
    speckle = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=4), 0.0, 1e-5, 2048)
    joint = apply_speckle(trace, speckle)
    assert np.array_equal(joint.samples, trace.samples * speckle.samples)
    assert joint.mean == pytest.approx(joint.samples.mean())


def test_apply_speckle_rejects_mismatched_grid():
    # t0, dt and length each differ alone
    trace = sample_intensity(Constant(1.0), 0.0, 1e-5, 1024, 0)
    for t0, dt, n in [(0.0, 1e-5, 2048), (1e-3, 1e-5, 1024), (0.0, 5e-6, 1024)]:
        speckle = generate_speckle_field(SpeckleParams(bandwidth=BW, seed=4), t0, dt, n)
        with pytest.raises(ValueError, match="modulation and speckle trace grids do not match"):
            apply_speckle(trace, speckle)


def test_speckle_params_validation():
    with pytest.raises(ValueError):
        SpeckleParams(bandwidth=-1.0)
