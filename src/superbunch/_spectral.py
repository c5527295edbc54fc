"""Spectral synthesis of band-limited Gaussian processes.

A stationary circular complex Gaussian process with a flat power spectrum
is generated by drawing independent complex Gaussian Fourier coefficients
for every FFT mode inside the band and transforming back.  The normalized
field autocorrelation of a flat band of total width B (Hz) is
sinc(pi*B*tau), so the intensity |a(t)|^2 has autocorrelation
1 + sinc^2(pi*B*tau) by the Gaussian moment theorem.

That intensity is thermal light, and the package uses it twice: as the
rotating ground-glass speckle and as the noise modulation.  Both draw it
from `bandlimited_intensity`, so for equal band, mean and generator state
the two are the same samples.
"""

import numpy as np


def bandlimited_complex_field(
    n: int, dt: float, half_band_hz: float, rng: np.random.Generator
) -> np.ndarray:
    """Circular complex Gaussian samples with flat spectrum on |f| <= half_band_hz.

    The returned array has unit mean intensity in expectation (the exact
    empirical mean is left to the caller to normalize).  Draw order is
    fixed (real parts first, then imaginary) so results are reproducible
    for a given generator state.
    """
    if n < 2:
        raise ValueError("need at least 2 samples for spectral synthesis")
    if half_band_hz <= 0:
        raise ValueError("band edge must be positive")
    freqs = np.fft.fftfreq(n, dt)
    # tolerate rounding at the band edge so the mode count is stable
    mask = np.abs(freqs) <= half_band_hz * (1.0 + 1e-12)
    m = int(mask.sum())
    coef = np.zeros(n, dtype=np.complex128)
    re = rng.standard_normal(m)
    im = rng.standard_normal(m)
    coef[mask] = (re + 1j * im) / np.sqrt(2.0)
    # ifft scales by 1/n; each of the m modes carries unit power
    return np.fft.ifft(coef) * (n / np.sqrt(m))


def bandlimited_intensity(
    n: int, dt: float, half_band_hz: float, mean: float, rng: np.random.Generator
) -> np.ndarray:
    """Thermal intensity |a|^2 of `bandlimited_complex_field`, empirical mean `mean`."""
    samples = np.abs(bandlimited_complex_field(n, dt, half_band_hz, rng)) ** 2
    samples *= mean / samples.mean()
    return samples


def bandlimited_real_noise(
    n: int, dt: float, half_band_hz: float, rng: np.random.Generator
) -> np.ndarray:
    """Real band-limited Gaussian noise with unit variance (empirically)."""
    field = bandlimited_complex_field(n, dt, half_band_hz, rng)
    v = np.sqrt(2.0) * field.real
    sd = v.std()
    if sd == 0.0:
        raise ValueError("degenerate noise realization")
    return v / sd


def full_overlap_autocorrelation(samples: np.ndarray, dt: float, max_lag: float) -> np.ndarray:
    """Complex <conj(x(t)) x(t + k dt)>_t over the full overlap, k = 0..max_lag/dt.

    One zero-padded FFT; `max_lag` must span a sample and stay below half the record.
    """
    n = samples.size
    k_max = int(np.floor(max_lag / dt + 1e-9))
    if k_max < 1:
        raise ValueError("max_lag shorter than one sample interval")
    if max_lag >= n * dt / 2:
        raise ValueError("max_lag must be below half the trace duration")
    size = 1 << int(np.ceil(np.log2(n + k_max + 1)))
    spec = np.fft.fft(samples, size)
    raw = np.fft.ifft(np.abs(spec) ** 2, size)[: k_max + 1]
    return raw / (n - np.arange(k_max + 1))
