"""Spectral synthesis of band-limited Gaussian processes.

A stationary circular complex Gaussian process with a flat power spectrum
is generated by drawing independent complex Gaussian Fourier coefficients
c_k for every FFT mode k of an n-sample record inside the band and
transforming back.  The normalized field autocorrelation of a flat band
of total width B (Hz) is sinc(pi*B*tau), so the intensity |a(t)|^2 has
autocorrelation 1 + sinc^2(pi*B*tau) by the Gaussian moment theorem.

Only the m modes inside the band are nonzero, and m is often a hundredth
of n, so the Fourier sum is evaluated interleaved (polyphase) rather than
as one n-point transform.  With n_c the smallest divisor of n that is at
least m and L = n / n_c, the samples s, s+L, s+2L, ... of phase s < L are
one n_c-point inverse FFT of c_k e^{2 pi i k s / n}, each signed mode k
placed at k mod n_c (m <= n_c keeps them apart).  Phases run in batches of
about `_BATCH` complex values, each reduced to floats at once and written
out at least eight phases at a time, so no n-length complex array exists.
The sum is the same one the n-point transform evaluates, so the samples
agree with it up to rounding; when n has no such divisor (a prime n, say)
L = 1 and it is that transform.

That intensity is thermal light, and the package uses it twice: as the
rotating ground-glass speckle and as the noise modulation.  Both draw it
from `bandlimited_intensity`, so for equal band, mean and generator state
the two are the same samples.
"""

import math

import numpy as np

_BATCH = 1 << 18  # complex values transformed at once


def _band_modes(n: int, dt: float, half_band_hz: float) -> tuple[int, int]:
    """Counts (p, q) of the in-band modes k = 0..p-1 and k = -q..-1.

    The same modes as `np.abs(np.fft.fftfreq(n, dt)) <= half_band_hz * (1 +
    1e-12)`, whose k-th frequency is k * (1 / (n * dt)), found without it.
    """
    step = 1.0 / (n * dt)
    # tolerate rounding at the band edge so the mode count is stable
    edge = half_band_hz * (1.0 + 1e-12)
    # edge / step is within rounding of the last in-band k: test its neighbours
    near = min(int(edge / step), n) + np.arange(-1, 2)
    last = int(near[near * step <= edge].max())
    return 1 + min(last, (n - 1) // 2), min(last, n // 2)


def _transform_length(n: int, m: int) -> int:
    """Smallest divisor of n that is at least m."""
    best = n
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for c in (d, n // d):
                if m <= c < best:
                    best = c
    return best


def _synthesize(n, dt, half_band_hz, rng, reduce) -> np.ndarray:
    """reduce(field) for the flat-band circular Gaussian field of n samples.

    The field has unit mean intensity in expectation (the exact empirical
    mean is left to the caller to normalize).  `reduce(batch, out)` writes
    floats for a batch of complex samples into `out`.  Draw order is fixed
    (real parts first, then imaginary) so results are reproducible for a
    given generator state.
    """
    if n < 2:
        raise ValueError("need at least 2 samples for spectral synthesis")
    if half_band_hz <= 0:
        raise ValueError("band edge must be positive")
    p, q = _band_modes(n, dt, half_band_hz)
    m = p + q
    re = rng.standard_normal(m)
    im = rng.standard_normal(m)
    # each of the m modes carries unit power
    coef = (re + 1j * im) / np.sqrt(2.0 * m)
    k = np.concatenate([np.arange(p), np.arange(-q, 0)])
    n_c = _transform_length(n, m)
    phases = n // n_c
    rows = max(1, min(phases, _BATCH // n_c))
    # e^{2 pi i k s / n} for the phases s of one batch, relative to its first
    twiddle = np.exp((2j * np.pi / n) * np.outer(np.arange(rows), k))
    # a phase's samples sit `phases` apart in the output, so phases are
    # staged and written at least eight (a 64-byte line of floats) at a
    # time; fewer per pass would touch every line of the output each pass
    group = min(phases, max(rows, 8))
    stage = np.empty((group, n_c))
    buffer = np.empty((rows, n_c), dtype=np.complex128)
    out = np.empty(n)
    grid = out.reshape(n_c, phases)  # grid[r, s] is sample s + phases * r
    for g0 in range(0, phases, group):
        g1 = min(g0 + group, phases)
        for s0 in range(g0, g1, rows):
            w = twiddle[: g1 - s0]
            start = coef * np.exp((2j * np.pi / n) * (k * s0))
            batch = buffer[: len(w)]
            batch[:, p : n_c - q] = 0
            np.multiply(w[:, :p], start[:p], out=batch[:, :p])
            np.multiply(w[:, p:], start[p:], out=batch[:, n_c - q :])
            # in place (`out` needs numpy 2): a fresh array per batch is slower
            np.fft.ifft(batch, axis=1, norm="forward", out=batch)
            reduce(batch, stage[s0 - g0 : s0 - g0 + len(w)])
        grid[:, g0:g1] = stage[: g1 - g0].T
    return out


def _intensity(field, out):
    np.abs(field, out=out)
    np.square(out, out=out)


def _real_part(field, out):
    np.multiply(field.real, np.sqrt(2.0), out=out)


def bandlimited_intensity(
    n: int, dt: float, half_band_hz: float, mean: float, rng: np.random.Generator
) -> np.ndarray:
    """Thermal intensity |a|^2 of the flat band |f| <= half_band_hz, empirical mean `mean`."""
    samples = _synthesize(n, dt, half_band_hz, rng, _intensity)
    samples *= mean / samples.mean()
    return samples


def bandlimited_real_noise(
    n: int, dt: float, half_band_hz: float, rng: np.random.Generator
) -> np.ndarray:
    """Real band-limited Gaussian noise with unit variance (empirically)."""
    v = _synthesize(n, dt, half_band_hz, rng, _real_part)
    sd = v.std()
    if sd == 0.0:
        raise ValueError("degenerate noise realization")
    v /= sd
    return v


def full_overlap_autocorrelation(samples: np.ndarray, dt: float, max_lag: float) -> np.ndarray:
    """<x(t) x(t + k dt)>_t of a real record over the full overlap, k = 0..max_lag/dt.

    One zero-padded real FFT; `max_lag` must span a sample and stay below half the record.
    """
    n = samples.size
    k_max = int(np.floor(max_lag / dt + 1e-9))
    if k_max < 1:
        raise ValueError("max_lag shorter than one sample interval")
    if max_lag >= n * dt / 2:
        raise ValueError("max_lag must be below half the trace duration")
    size = 1 << int(np.ceil(np.log2(n + k_max + 1)))
    spec = np.fft.rfft(samples, size)
    raw = np.fft.irfft(np.abs(spec) ** 2, size)[: k_max + 1]
    return raw / (n - np.arange(k_max + 1))
