"""Intensity modulation models and trace synthesis.

The source under study is a laser whose intensity is modulated before it
hits the rotating ground glass: either by a fixed waveform (a sinusoid, or
an arbitrary drive through the electro-optic modulator transfer curve)
or stochastically (band-limited Gaussian noise, realized as the intensity
of a band-limited circular complex Gaussian field so the modulation itself
has thermal counting statistics).

All traces are uniformly sampled.  Stochastic models are reproducible:
the same seed always yields the same samples.

A modulation kind is one frozen dataclass, plus the entry in
`config._MODULATION` that declares its [modulation] keys.  The class
names its kind in the class attribute `kind` (not a dataclass field),
refuses a sample grid that cannot carry it in `check(dt, n)`, which
returns the run's diagnostics (for a `BandNoise` run `"short-trace"`
when it is shorter than ten correlation times and `"slow-synthesis"`
when its sample count slows the synthesis down, see
`_spectral.slow_synthesis`; `()` for the other kinds), multiplies its
intensity into a buffer of samples in `multiply_into(samples, t0, dt,
rng, threads=1)`, and names in `fit_start()` the fit parameters its
physics implies a start for, each with the [modulation] key that sets
it (see `analytic.MODELS`).

A kind whose intensity is a function of time alone states it once in
`at(t)`: `Constant`, `Sinusoid`, and `EomDrive` with a sine drive or
`vpp = 0`.  Its `multiply_into` evaluates `at` per block of `_BLOCK`
samples, the blocks spread over `threads` workers, so it never holds a
full-length array of its own.  A stochastic kind (`BandNoise`, the
`EomDrive` noise drive) synthesizes its whole trace, on `threads`
workers, and multiplies it in; the noise drive maps its voltage
through the transfer per block, on the workers too.  Each block writes
its own slice, so every kind gives the same samples for any `threads`.
`modulate_in_place` multiplies a kind into the speckle's buffer, and
`sample_intensity` into a buffer of ones, so both paths draw the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from ._spectral import bandlimited_intensity, bandlimited_real_noise, slow_synthesis
from ._text import write_csv
from ._workers import map_blocks
from .errors import ConfigError

_BLOCK = 1 << 16  # samples of a waveform kind evaluated at once


def require_oversampled(dt: float, timescale: float, what: str) -> None:
    """Raise ConfigError unless dt puts ten samples in `timescale`.

    A coarser grid aliases the correlation curve silently.  `what` names
    the config key, with its value, that sets the timescale, for the
    error message.
    """
    limit = timescale / 10.0
    if dt > limit * (1 + 1e-9):
        raise ConfigError(f"dt={dt:g} too coarse for {what} (need dt <= {limit:g})")


def require_finite(params) -> None:
    """Raise ValueError naming the first float field of a dataclass that is nan or infinite.

    The config refuses such numbers as it parses them; a model or
    detector built in code refuses them here, before any other check.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (float, np.floating)) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        require_finite(self)
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


def _per_block(fn, n: int, threads: int) -> None:
    """fn(s, e) for each block [s, e) of `_BLOCK` samples of an n-sample trace.

    The blocks go to at most `threads` workers.  Each writes its own disjoint
    slice by the same arithmetic, so the result is the same bits for
    any `threads`.
    """
    starts = range(0, n, _BLOCK)
    map_blocks(fn, starts, [min(s + _BLOCK, n) for s in starts], threads=threads)


class _Waveform:
    """A waveform kind: `at(t)` is its intensity at the times `t`."""

    def multiply_into(self, samples, t0, dt, rng, threads=1):
        def block(s, e):
            samples[s:e] *= self.at(t0 + np.arange(s, e) * dt)

        _per_block(block, samples.size, threads)


@dataclass(frozen=True)
class Constant(_Waveform):
    """Unmodulated beam of fixed intensity."""

    base_intensity: float = 1.0

    kind = "constant"

    def __post_init__(self):
        require_finite(self)
        if not self.base_intensity > 0:
            raise ValueError("base intensity must be positive")

    def check(self, dt, n):
        return ()

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
        require_finite(self)
        if not self.base_intensity > 0:
            raise ValueError("base intensity must be positive")
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError("depth must lie in [0, 1]")
        if not self.omega > 0:
            raise ValueError("drive frequency must be positive")

    def check(self, dt, n):
        require_oversampled(
            dt, 2 * np.pi / self.omega, f"[modulation] frequency_hz = {self.omega / 2 / np.pi:g}"
        )
        return ()

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

    def __post_init__(self):
        require_finite(self)
        if not self.mean_intensity > 0:
            raise ValueError("mean intensity must be positive")
        if not self.cutoff_hz > 0:
            raise ValueError("noise cutoff must be positive")
        if self.clip_level is not None and not self.clip_level > 0:
            raise ValueError("clip_level must be positive or None")
        # a float64 holds 53 significant bits, so a finer step quantizes nothing
        if self.quantization_bits is not None and not 1 <= self.quantization_bits <= 53:
            raise ValueError("quantization_bits must lie between 1 and 53")

    def check(self, dt, n):
        require_oversampled(dt, 1 / self.cutoff_hz, f"[modulation] cutoff_hz = {self.cutoff_hz:g}")
        short = ("short-trace",) if n * dt < 10.0 / self.cutoff_hz else ()
        return short + (("slow-synthesis",) if slow_synthesis(n, dt, self.cutoff_hz / 2.0) else ())

    def multiply_into(self, samples, t0, dt, rng, threads=1):
        drawn = bandlimited_intensity(
            samples.size, dt, self.cutoff_hz / 2.0, self.mean_intensity, rng, threads=threads
        )
        if self.clip_level is not None:
            np.minimum(drawn, self.clip_level, out=drawn)
        if self.quantization_bits is not None:
            top = drawn.max()
            if top > 0:
                step = top / (2**self.quantization_bits - 1)
                drawn /= step
                np.rint(drawn, out=drawn)
                drawn *= step
        samples *= drawn

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
        require_finite(self)
        if self.vpp < 0:
            raise ValueError("vpp cannot be negative")
        if not self.frequency_hz > 0:
            raise ValueError("drive frequency must be positive")
        if self.waveform not in ("sinusoid", "noise"):
            raise ValueError(f"unknown drive waveform {self.waveform!r}")

    def check(self, dt, n):
        require_oversampled(
            dt, 1.0 / self.frequency_hz, f"[modulation] frequency_hz = {self.frequency_hz:g}"
        )
        if self.waveform == "noise" and n * dt * self.frequency_hz < 1:
            # over a shorter trace the band holds only DC, whose spread is rounding
            raise ConfigError(f"noise drive: duration_s must be >= {1 / self.frequency_hz:g} s")
        return ()

    def at(self, t):
        # at vpp = 0 the drive is +-0 V, and eom_transfer maps both to its value at 0 V
        v = 0.5 * self.vpp * np.sin(2 * np.pi * self.frequency_hz * t)
        return eom_transfer(v, self.transfer)

    def multiply_into(self, samples, t0, dt, rng, threads=1):
        if self.vpp == 0.0 or self.waveform == "sinusoid":
            return super().multiply_into(samples, t0, dt, rng, threads)
        v = bandlimited_real_noise(samples.size, dt, self.frequency_hz, rng, threads=threads)
        v *= self.vpp / 6.0
        np.clip(v, -0.5 * self.vpp, 0.5 * self.vpp, out=v)

        def block(s, e):
            samples[s:e] *= eom_transfer(v[s:e], self.transfer)

        _per_block(block, samples.size, threads)

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
    normalization.  No sample may be negative or nan, and the declared
    mean must be positive and finite; an infinite sample is left to
    detection, which refuses it from the maximum it reads anyway.
    """

    t0: float
    dt: float
    samples: np.ndarray
    mean: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not self.dt > 0:
            raise ValueError("sample spacing must be positive")
        # min propagates nan, so one comparison refuses negative and nan samples
        if not samples.min() >= 0:
            raise ValueError("intensity must be nonnegative (and not nan)")
        if not 0 < self.mean < np.inf:
            raise ValueError("declared mean must be positive and finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) * self.dt


def sample_intensity(
    model: ModulationModel, t0: float, dt: float, n: int, seed, *, threads: int = 1
) -> IntensityTrace:
    """Synthesize `n` intensity samples starting at `t0` with spacing `dt`.

    `seed` feeds the stochastic models (BandNoise, noise-driven EomDrive);
    waveform models ignore it.  The declared mean of the returned
    trace is the empirical mean of its samples.  The model multiplies
    itself into a buffer of ones; as 1.0 * x is x, the samples are its
    intensity, the same bits for any `threads`.  The trace built on that
    buffer refuses an empty grid or a `dt` that is not positive.
    """
    ones = IntensityTrace(t0=t0, dt=dt, samples=np.ones(n), mean=1.0)
    return modulate_in_place(model, ones, seed, threads=threads)


def modulate_in_place(
    model: ModulationModel, trace: IntensityTrace, seed, *, threads: int = 1
) -> IntensityTrace:
    """The joint trace: `model`'s intensity times `trace`, multiplied into `trace`'s buffer.

    `trace` is consumed: its samples become the product, and the returned
    trace, whose declared mean is the product's empirical mean, shares
    them.  As IEEE products commute, the samples equal those of
    apply_speckle(sample_intensity(model, trace.t0, trace.dt, trace.n,
    seed), `trace`) bit for bit.  The model's `check` runs first and its
    diagnostics are dropped: a caller that reports them calls `check`
    itself, as `run_pipeline` does.
    """
    model.check(trace.dt, trace.n)
    samples, t0, dt = trace.samples, trace.t0, trace.dt
    model.multiply_into(samples, t0, dt, np.random.default_rng(seed), threads)
    return IntensityTrace(t0=t0, dt=dt, samples=samples, mean=float(samples.mean()))


def write_intensity_csv(trace: IntensityTrace, path) -> None:
    """Write a trace as CSV with header t_s,intensity."""
    write_csv(path, ("t_s", "intensity"), trace.times(), trace.samples)
