"""Pseudothermal speckle intensity from the rotating ground glass.

A detector behind the ground glass sees one speckle whose complex field is
a stationary circular Gaussian process.  A flat angular spectrum of total
width `bandwidth` (rad/s) gives the field autocorrelation
gamma(tau) = sinc(bandwidth * tau / 2), hence intensity correlation
1 + sinc^2(bandwidth * tau / 2) and the thermal value g2(0) = 2.

Only the intensity reaches the detectors, so the speckle is synthesized
and carried as an intensity trace.  It is the same thermal process as the
`BandNoise` modulation with `cutoff_hz = bandwidth / (2 pi)`, and both
draw it from `_spectral.bandlimited_intensity`.

`run_pipeline` draws the speckle before the modulation and multiplies
the modulation into the speckle's buffer (`signal.modulate_in_place`),
so the speckle trace becomes the joint one.  Each source draws from its
own substream of the run seed (`seed` here, "modulation" there), so the
order of the draws changes no number.  `apply_speckle` is the
out-of-place product of two separate traces, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import bandlimited_intensity
from .signal import IntensityTrace, require_oversampled


@dataclass(frozen=True)
class SpeckleParams:
    """Ground-glass speckle parameters.

    bandwidth: total angular width of the scattered spectrum, rad/s.  The
    coherence time is 2 pi / bandwidth.
    """

    bandwidth: float = 2 * np.pi * 10e3
    seed: int = 0

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


def generate_speckle_field(
    params: SpeckleParams, t0: float, dt: float, n: int
) -> IntensityTrace:
    """Synthesize `n` speckle intensity samples with empirical mean 1.

    Requires the grid to oversample the coherence time: dt must be at most
    2 pi / (10 * bandwidth).
    """
    require_oversampled(
        dt, 2 * np.pi / params.bandwidth, f"[speckle] bandwidth_rad_s = {params.bandwidth:g}"
    )
    rng = np.random.default_rng(params.seed)
    # angular half-width bandwidth/2 -> ordinary frequency bandwidth/(4 pi)
    samples = bandlimited_intensity(n, dt, params.bandwidth / (4 * np.pi), 1.0, rng)
    return IntensityTrace(t0=t0, dt=dt, samples=samples, mean=1.0)


def apply_speckle(trace: IntensityTrace, speckle: IntensityTrace) -> IntensityTrace:
    """Multiply a modulation trace by the speckle intensity.

    Both inputs must live on the identical sample grid.
    """
    if (
        trace.t0 != speckle.t0
        or trace.dt != speckle.dt
        or trace.samples.size != speckle.samples.size
    ):
        raise ValueError("modulation and speckle trace grids do not match")
    samples = trace.samples * speckle.samples
    return IntensityTrace(
        t0=trace.t0,
        dt=trace.dt,
        samples=samples,
        mean=float(samples.mean()),
        flags=trace.flags,
    )
