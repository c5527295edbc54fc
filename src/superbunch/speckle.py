"""Pseudothermal speckle intensity from the rotating ground glass.

A detector behind the ground glass sees one speckle whose complex field is
a stationary circular Gaussian process.  A flat angular spectrum of total
width `bandwidth_rad_s` gives the field autocorrelation
gamma(tau) = sinc(bandwidth_rad_s * tau / 2), hence intensity correlation
1 + sinc^2(bandwidth_rad_s * tau / 2) and the thermal value g2(0) = 2.

Only the intensity reaches the detectors, so the speckle is synthesized
and carried as an intensity trace.  It is the same thermal process as the
`BandNoise` modulation with `cutoff_hz = bandwidth_rad_s / (2 pi)`, and both
draw it from `_spectral.bandlimited_intensity`.

`run_pipeline` draws the speckle before the modulation and has the
modulation multiply itself into the speckle's buffer
(`signal.modulate_in_place`), so the speckle trace becomes the joint
one.  Each source draws from its own substream of the run seed (`seed`
here, "modulation" there), so the order of the draws changes no number.
`apply_speckle` is the out-of-place product of two separate traces,
with the same bits.  The pipeline no longer calls it, `write_trace`
included; it stays public API, which perfbench/workloads.py `prepare`
uses to build the benchmark's photon file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import bandlimited_intensity, slow_synthesis
from .signal import IntensityTrace, require_finite, require_oversampled


@dataclass(frozen=True)
class SpeckleParams:
    """Ground-glass speckle parameters.

    bandwidth_rad_s: total angular width of the scattered spectrum, the
    [speckle] key of the same name.  The coherence time is
    2 pi / bandwidth_rad_s.  `seed` is the speckle's substream seed, which
    no key sets: a run derives it from [run] seed.
    """

    bandwidth_rad_s: float = 2 * np.pi * 10e3
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if not self.bandwidth_rad_s > 0:
            raise ValueError("bandwidth_rad_s must be positive")

    @property
    def _half_band_hz(self) -> float:
        # angular half-width bandwidth_rad_s/2 -> ordinary frequency bandwidth_rad_s/(4 pi)
        return self.bandwidth_rad_s / (4 * np.pi)

    def check(self, dt, n):
        """Raise ConfigError unless dt is at most 2 pi / (10 * bandwidth_rad_s).

        The same check as the modulation kinds', which the pipeline makes
        before any work.  The diagnostics: `("slow-synthesis",)` when n
        samples make the synthesis slow (`_spectral.slow_synthesis`), else
        `()`.
        """
        bandwidth = self.bandwidth_rad_s
        require_oversampled(dt, 2 * np.pi / bandwidth, f"[speckle] bandwidth_rad_s = {bandwidth:g}")
        return ("slow-synthesis",) if slow_synthesis(n, dt, self._half_band_hz) else ()


def generate_speckle_field(
    params: SpeckleParams, t0: float, dt: float, n: int, *, threads: int = 1
) -> IntensityTrace:
    """Synthesize `n` speckle intensity samples with empirical mean 1.

    Requires the grid to oversample the coherence time
    (`SpeckleParams.check`).  `threads` workers share the synthesis; the
    samples are the same for any count.
    """
    params.check(dt, n)
    rng = np.random.default_rng(params.seed)
    samples = bandlimited_intensity(n, dt, params._half_band_hz, 1.0, rng, threads=threads)
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
    return IntensityTrace(t0=trace.t0, dt=trace.dt, samples=samples, mean=float(samples.mean()))
