"""Intensity modulation models and trace synthesis.

The source under study is a laser whose intensity is modulated before it
hits the rotating ground glass: either deterministically (a sinusoid, or
an arbitrary waveform through the electro-optic modulator transfer curve)
or stochastically (band-limited Gaussian noise, realized as the intensity
of a band-limited circular complex Gaussian field so the modulation itself
has thermal counting statistics).

All traces are uniformly sampled.  Stochastic models are reproducible:
the same seed always yields the same samples.

A modulation kind is one frozen dataclass, plus the entry in
`config._MODULATION` that declares its [modulation] keys.  The class
names its kind in the class attribute `kind` (not a dataclass field),
refuses a sample grid that cannot carry it in `check(dt, n)`,
synthesizes itself in `sample(t0, dt, n, rng) -> (samples, flags)`, and
names in `fit_start()` the fit parameters its physics implies a start
for, each with the [modulation] key that sets it (see `analytic.MODELS`).

A kind is `deterministic` when its intensity is a function of time
alone, stated once in `at(t)`: `Constant`, `Sinusoid`, and `EomDrive`
with a sine drive or `vpp = 0`.  `sample` evaluates `at` over the whole
trace; `modulate_in_place` evaluates it per block of `_BLOCK` samples
and multiplies each block into a trace, so a deterministic modulation
never holds a full-length array of its own.  A stochastic kind
(`BandNoise`, the `EomDrive` noise drive) is synthesized whole by
`sample` in both paths, from the same generator, so it draws the same
numbers in either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ._spectral import (
    bandlimited_intensity,
    bandlimited_real_noise,
    full_overlap_autocorrelation,
)
from ._text import write_csv
from .correlator import G2Curve
from .errors import ConfigError

_BLOCK = 1 << 16  # samples of a deterministic modulation evaluated at once


def require_oversampled(dt: float, timescale: float, what: str) -> None:
    """Raise ConfigError unless dt puts ten samples in `timescale`.

    A coarser grid aliases the correlation curve silently.  `what` names
    the config key, with its value, that sets the timescale, for the
    error message.
    """
    limit = timescale / 10.0
    if dt > limit * (1 + 1e-9):
        raise ConfigError(f"dt={dt:g} too coarse for {what} (need dt <= {limit:g})")


@dataclass(frozen=True)
class EomTransfer:
    """Measured modulator response: drive voltage in, detector signal out.

    The response is sinusoidal in the drive voltage:
    out = offset + amplitude * sin(pi * (v - center_v) / period_v).
    Defaults are the calibration of the hardware this model reproduces.
    """

    offset: float = 2.04
    amplitude: float = 1.92
    period_v: float = 8.65
    center_v: float = 0.49

    def __post_init__(self):
        if self.period_v <= 0:
            raise ValueError("transfer period must be positive")
        if self.offset < abs(self.amplitude):
            raise ValueError("transfer range dips below zero intensity")


DEFAULT_TRANSFER = EomTransfer()


def eom_transfer(v, transfer: EomTransfer = DEFAULT_TRANSFER):
    """Map drive voltage(s) to modulated intensity in scaled detector units.

    Pure function of the input; raises ValueError on non-finite input.
    """
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("drive voltage must be finite")
    out = transfer.offset + transfer.amplitude * np.sin(
        np.pi * (arr - transfer.center_v) / transfer.period_v
    )
    return float(out) if arr.ndim == 0 else out


def _blocks(n: int):
    """[s, e) of each block of `_BLOCK` samples of an n-sample trace, in order."""
    return ((s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK))


class _Waveform:
    """A deterministic kind: `at(t)` is its intensity at the times `t`."""

    deterministic = True

    def sample(self, t0, dt, n, rng):
        self.check(dt, n)
        return self.at(t0 + np.arange(n) * dt), ()


@dataclass(frozen=True)
class Constant(_Waveform):
    """Unmodulated beam of fixed intensity."""

    base_intensity: float = 1.0

    kind = "constant"

    def __post_init__(self):
        if not self.base_intensity > 0:
            raise ValueError("base intensity must be positive")

    def check(self, dt, n):
        pass

    def at(self, t):
        return np.full(t.shape, float(self.base_intensity))

    def fit_start(self) -> dict:
        return {}


@dataclass(frozen=True)
class Sinusoid(_Waveform):
    """I(t) = base * (1 + depth * cos(omega * t + phase)).

    `depth` is the literal intensity modulation depth in [0, 1]; `omega`
    is the angular drive frequency in rad/s.
    """

    base_intensity: float = 1.0
    depth: float = 1.0
    omega: float = 2 * np.pi * 50e3
    phase: float = 0.0

    kind = "sinusoid"

    def __post_init__(self):
        if not self.base_intensity > 0:
            raise ValueError("base intensity must be positive")
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError("depth must lie in [0, 1]")
        if not self.omega > 0:
            raise ValueError("drive frequency must be positive")
        if not np.isfinite(self.phase):
            raise ValueError("phase must be finite")

    def check(self, dt, n):
        require_oversampled(
            dt, 2 * np.pi / self.omega, f"[modulation] frequency_hz = {self.omega / 2 / np.pi:g}"
        )

    def at(self, t):
        return self.base_intensity * (1.0 + self.depth * np.cos(self.omega * t + self.phase))

    def fit_start(self) -> dict:
        # a depth-d sinusoid gives g2(0) = 2 + d^2, i.e. an effective
        # correlation parameter d^2 / (2 - d^2)
        d2 = self.depth * self.depth
        return {
            "contrast": (min(1.0, max(1e-3, d2 / (2.0 - d2))), "depth"),
            "mod_omega": (self.omega, "frequency_hz"),
        }


@dataclass(frozen=True)
class BandNoise:
    """Thermal-statistics noise modulation band-limited to `cutoff_hz`.

    Samples are |a(t)|^2 for a circular complex Gaussian field a(t) with a
    flat spectrum of total width cutoff_hz, so the normalized intensity
    autocorrelation is 1 + sinc^2(pi * cutoff_hz * tau) and the intensity
    histogram is negative-exponential.  `clip_level` (absolute, in scaled
    units) models a generator that cannot exceed its output range;
    `quantization_bits` models its finite amplitude resolution.  Clipping
    is applied before quantization.
    """

    mean_intensity: float = 1.0
    cutoff_hz: float = 200.0
    clip_level: Optional[float] = None
    quantization_bits: Optional[int] = None

    kind = "band_noise"
    deterministic = False

    def __post_init__(self):
        if not self.mean_intensity > 0:
            raise ValueError("mean intensity must be positive")
        if not self.cutoff_hz > 0:
            raise ValueError("noise cutoff must be positive")
        if self.clip_level is not None and not self.clip_level > 0:
            raise ValueError("clip_level must be positive or None")
        if self.quantization_bits is not None and self.quantization_bits < 1:
            raise ValueError("quantization_bits must be at least 1")

    def check(self, dt, n):
        require_oversampled(dt, 1 / self.cutoff_hz, f"[modulation] cutoff_hz = {self.cutoff_hz:g}")

    def sample(self, t0, dt, n, rng):
        self.check(dt, n)
        flags = ("short-trace",) if n * dt < 10.0 / self.cutoff_hz else ()
        samples = bandlimited_intensity(n, dt, self.cutoff_hz / 2.0, self.mean_intensity, rng)
        if self.clip_level is not None:
            np.minimum(samples, self.clip_level, out=samples)
        if self.quantization_bits is not None:
            top = samples.max()
            if top > 0:
                step = top / (2**self.quantization_bits - 1)
                samples /= step
                np.rint(samples, out=samples)
                samples *= step
        return samples, flags

    def fit_start(self) -> dict:
        return {"cutoff_hz": (self.cutoff_hz, "cutoff_hz")}


@dataclass(frozen=True)
class EomDrive(_Waveform):
    """Voltage waveform driving the modulator, mapped through its transfer.

    `waveform` is "sinusoid" (v(t) = vpp/2 * sin(2 pi f t), bipolar around
    0 V as delivered by the signal generator) or "noise" (band-limited real
    Gaussian voltage with components up to `frequency_hz`, rms vpp/6,
    hard-clipped at +-vpp/2: the generator's output range).
    """

    vpp: float = 8.0
    frequency_hz: float = 50e3
    waveform: str = "sinusoid"
    transfer: EomTransfer = field(default=DEFAULT_TRANSFER)

    kind = "eom"

    def __post_init__(self):
        if self.vpp < 0:
            raise ValueError("vpp cannot be negative")
        if not self.frequency_hz > 0:
            raise ValueError("drive frequency must be positive")
        if self.waveform not in ("sinusoid", "noise"):
            raise ValueError(f"unknown drive waveform {self.waveform!r}")

    @property
    def deterministic(self) -> bool:
        return self.vpp == 0.0 or self.waveform == "sinusoid"

    def check(self, dt, n):
        require_oversampled(
            dt, 1.0 / self.frequency_hz, f"[modulation] frequency_hz = {self.frequency_hz:g}"
        )
        if self.waveform == "noise" and n * dt * self.frequency_hz < 1:
            # over a shorter trace the band holds only DC, whose spread is rounding
            raise ConfigError(f"noise drive: duration_s must be >= {1 / self.frequency_hz:g} s")

    def at(self, t):
        if self.vpp == 0.0:
            v = np.zeros(t.shape)
        else:
            v = 0.5 * self.vpp * np.sin(2 * np.pi * self.frequency_hz * t)
        return eom_transfer(v, self.transfer)

    def sample(self, t0, dt, n, rng):
        if self.deterministic:
            return super().sample(t0, dt, n, rng)
        self.check(dt, n)
        v = bandlimited_real_noise(n, dt, self.frequency_hz, rng)
        v *= self.vpp / 6.0
        np.clip(v, -0.5 * self.vpp, 0.5 * self.vpp, out=v)
        for s, e in _blocks(n):  # the drive's buffer becomes the intensity's
            v[s:e] = eom_transfer(v[s:e], self.transfer)
        return v, ()

    def fit_start(self) -> dict:
        return {
            "mod_omega": (2 * np.pi * self.frequency_hz, "frequency_hz"),
            "cutoff_hz": (self.frequency_hz, "frequency_hz"),
        }


ModulationModel = Union[Constant, Sinusoid, BandNoise, EomDrive]


@dataclass(frozen=True, eq=False)
class IntensityTrace:
    """Uniformly sampled nonnegative intensity.

    `mean` is the declared mean used downstream to normalize detection
    rates; synthesis sets it to the empirical mean of the samples, but it
    is an independent field so traces can be compared at a common
    normalization.  `flags` carries synthesis warnings (e.g. a noise trace
    too short for its correlation time to self-average).
    """

    t0: float
    dt: float
    samples: np.ndarray
    mean: float
    flags: tuple = ()

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.dt > 0:
            raise ValueError("sample spacing must be positive")
        if samples.min() < 0:
            raise ValueError("intensity must be nonnegative")
        if not self.mean > 0:
            raise ValueError("declared mean must be positive")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) * self.dt


def sample_intensity(
    model: ModulationModel, t0: float, dt: float, n: int, seed
) -> IntensityTrace:
    """Synthesize `n` intensity samples starting at `t0` with spacing `dt`.

    `seed` feeds the stochastic models (BandNoise, noise-driven EomDrive);
    deterministic models ignore it.  The declared mean of the returned
    trace is the empirical mean of its samples.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not dt > 0:
        raise ValueError("sample spacing must be positive")
    samples, flags = model.sample(t0, dt, n, np.random.default_rng(seed))
    return IntensityTrace(
        t0=t0, dt=dt, samples=samples, mean=float(samples.mean()), flags=flags
    )


def modulate_in_place(model: ModulationModel, trace: IntensityTrace, seed) -> IntensityTrace:
    """The joint trace: `model`'s intensity times `trace`, multiplied into `trace`'s buffer.

    `trace` is consumed: its samples become the product, and the returned
    trace, whose declared mean is the product's empirical mean, shares
    them.  Draws and flags are those of sample_intensity(model, trace.t0,
    trace.dt, trace.n, seed), and as IEEE products commute the samples
    equal those of apply_speckle(that trace, `trace`) bit for bit.  A
    deterministic model is evaluated per block of `_BLOCK` samples, so it
    adds no full-length array; a stochastic one synthesizes its whole
    trace first.
    """
    samples, n, t0, dt = trace.samples, trace.n, trace.t0, trace.dt
    flags = ()
    if model.deterministic:
        model.check(dt, n)
        for s, e in _blocks(n):
            samples[s:e] *= model.at(t0 + np.arange(s, e) * dt)
    else:
        drawn, flags = model.sample(t0, dt, n, np.random.default_rng(seed))
        samples *= drawn
    return IntensityTrace(t0=t0, dt=dt, samples=samples, mean=float(samples.mean()), flags=flags)


def modulation_autocorrelation(trace: IntensityTrace, max_lag: float) -> G2Curve:
    """Normalized intensity autocorrelation of a trace for lags in [0, max_lag].

    Returns the estimator <I(t) I(t+tau)>_t / <I>^2 on the trace's own
    sample grid, computed by FFT over the full overlap at each lag.  The
    declared statistical error is zero: the curve is a deterministic
    functional of the trace.
    """
    raw = full_overlap_autocorrelation(trace.samples, trace.dt, max_lag)
    gamma = raw / trace.samples.mean() ** 2
    tau = np.arange(gamma.size) * trace.dt
    return G2Curve(tau=tau, value=gamma, stderr=np.zeros_like(gamma))


def write_intensity_csv(trace: IntensityTrace, path) -> None:
    """Write a trace as CSV with header t_s,intensity."""
    write_csv(path, ("t_s", "intensity"), trace.times(), trace.samples)
