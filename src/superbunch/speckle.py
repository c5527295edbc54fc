"""Pseudothermal speckle field from the rotating ground glass.

A detector behind the ground glass sees one speckle whose complex field is
a stationary circular Gaussian process.  A flat angular spectrum of total
width `bandwidth` (rad/s) gives the field autocorrelation
gamma(tau) = sinc(bandwidth * tau / 2), hence intensity correlation
1 + sinc^2(bandwidth * tau / 2) and the thermal value g2(0) = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import bandlimited_complex_field, full_overlap_autocorrelation
from .signal import IntensityTrace, require_oversampled


@dataclass(frozen=True)
class SpeckleParams:
    """Ground-glass speckle parameters.

    bandwidth: total angular width of the scattered spectrum, rad/s.  The
    coherence time is 2 pi / bandwidth.  gain scales the mean intensity.
    """

    bandwidth: float = 2 * np.pi * 10e3
    gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not self.gain > 0:
            raise ValueError("gain must be positive")


@dataclass(frozen=True, eq=False)
class ComplexFieldTrace:
    """Uniformly sampled complex speckle field."""

    t0: float
    dt: float
    samples: np.ndarray
    mean_intensity: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.dt > 0:
            raise ValueError("sample spacing must be positive")
        if not self.mean_intensity > 0:
            raise ValueError("mean intensity must be positive")

    @property
    def n(self) -> int:
        return self.samples.size

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


def generate_speckle_field(
    params: SpeckleParams, t0: float, dt: float, n: int
) -> ComplexFieldTrace:
    """Synthesize `n` field samples; |E|^2 has empirical mean equal to gain.

    Requires the grid to oversample the coherence time: dt must be at most
    2 pi / (10 * bandwidth).
    """
    if n < 2:
        raise ValueError("need at least two samples")
    require_oversampled(
        dt, 2 * np.pi / params.bandwidth, f"speckle bandwidth {params.bandwidth:g} rad/s"
    )
    rng = np.random.default_rng(params.seed)
    # angular half-width bandwidth/2 -> ordinary frequency bandwidth/(4 pi)
    field = bandlimited_complex_field(n, dt, params.bandwidth / (4 * np.pi), rng)
    intensity = np.abs(field) ** 2
    field = field * np.sqrt(params.gain / intensity.mean())
    return ComplexFieldTrace(
        t0=t0, dt=dt, samples=field, mean_intensity=params.gain
    )


def apply_speckle(trace: IntensityTrace, field: ComplexFieldTrace) -> IntensityTrace:
    """Multiply a modulation trace by the speckle intensity |E(t)|^2.

    Both inputs must live on the identical sample grid.
    """
    if (
        trace.t0 != field.t0
        or trace.dt != field.dt
        or trace.samples.size != field.samples.size
    ):
        raise ValueError("modulation trace and speckle field grids do not match")
    samples = trace.samples * field.intensity()
    return IntensityTrace(
        t0=trace.t0,
        dt=trace.dt,
        samples=samples,
        mean=float(samples.mean()),
        flags=trace.flags,
    )


def field_autocorrelation(field: ComplexFieldTrace, max_lag: float) -> np.ndarray:
    """|gamma(tau)|^2 of the field on its sample grid, lags 0..max_lag.

    gamma is the normalized first-order correlation
    <E*(t) E(t+tau)> / <|E|^2>, estimated over the full overlap by FFT.
    """
    raw = full_overlap_autocorrelation(field.samples, field.dt, max_lag)
    return np.abs(raw / field.intensity().mean()) ** 2
