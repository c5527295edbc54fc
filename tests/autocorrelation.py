"""The intensity autocorrelation of a trace, the tests' reference for modulation and speckle.

No package code needs it: the tests compare a synthesized trace's own
autocorrelation with the closed forms of `analytic`.
"""

import numpy as np

from superbunch import G2Curve, IntensityTrace


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


def modulation_autocorrelation(trace: IntensityTrace, max_lag: float) -> G2Curve:
    """Normalized intensity autocorrelation of a trace for lags in [0, max_lag].

    Returns the estimator <I(t) I(t+tau)>_t / <I>^2 on the trace's own
    sample grid, computed by FFT over the full overlap at each lag.  The
    declared statistical error is zero: the curve is a fixed
    functional of the trace.
    """
    raw = full_overlap_autocorrelation(trace.samples, trace.dt, max_lag)
    gamma = raw / trace.samples.mean() ** 2
    tau = np.arange(gamma.size) * trace.dt
    return G2Curve(tau=tau, value=gamma, stderr=np.zeros_like(gamma))
