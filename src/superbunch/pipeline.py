"""End-to-end runs: synthesize, detect, correlate, fit, write artifacts.

A run is driven by a RunConfig and a master seed.  Every stochastic stage
draws from its own derived substream (see seeding.py), so results are
reproducible bit-for-bit from (config, seed) alone and independent of the
thread count.  The manifest records exactly that pair plus derived sizes;
it deliberately excludes runtime knobs such as thread counts, paths and
wall-clock times so that repeated runs produce identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analytic
from ._version import __version__
from .config import RunConfig, apply_override, build_config
from .correlator import (
    CoincidenceHistogram,
    G2Curve,
    PeakBackground,
    coincidence_histogram,
    g2_zero_estimate,
    normalize_g2,
    peak_background_ratio,
    write_g2_csv,
    write_histogram_csv,
)
from .detection import (
    PhotonStream,
    detect_photons,
    read_photon_stream,
    write_photon_stream,
)
from .errors import ConfigError, DataError
from .seeding import substream_seed
from .signal import BandNoise, Constant, EomDrive, Sinusoid, sample_intensity, write_intensity_csv
from .speckle import apply_speckle, generate_speckle_field
from .signal import IntensityTrace

_MODEL_CLASSES = {
    "speckle": analytic.SpeckleOnly,
    "sinusoid_speckle": analytic.SinusoidSpeckle,
    "noise_speckle": analytic.NoiseSpeckle,
}


@dataclass
class RunResult:
    """Everything a run produced that is worth keeping in memory."""

    config: RunConfig
    stream: PhotonStream
    histogram: CoincidenceHistogram
    curve: G2Curve
    g2_zero: float
    g2_zero_err: float
    peak: PeakBackground
    model: Optional[analytic.TheoryModel] = None  # the fit's starting point
    fit: Optional[analytic.FitResult] = None
    paths: dict = dataclasses.field(default_factory=dict)

    @property
    def fit_g2_zero(self) -> Optional[float]:
        if self.fit is None:
            return None
        return float(self.fit.g2_model(type(self.model), 0.0))


def _modulation_kind(model) -> str:
    return {
        Constant: "constant",
        Sinusoid: "sinusoid",
        BandNoise: "band_noise",
        EomDrive: "eom",
    }[type(model)]


def initial_model(cfg: RunConfig):
    """Build the theory model instance whose fields seed the fit.

    Starting values come from `init_*` keys in [analysis] when given and
    otherwise from the configured physics, which is the natural guess when
    analysing a stream produced by the same config.
    """
    name = cfg.analysis_model
    if name is None:
        return None
    init = cfg.analysis_init
    bandwidth = init.get("init_bandwidth_rad_s", cfg.speckle.bandwidth)
    mod = cfg.modulation
    if name == "speckle":
        return analytic.SpeckleOnly(bandwidth=bandwidth)
    if name == "sinusoid_speckle":
        if "init_frequency_hz" in init:
            omega = 2 * np.pi * init["init_frequency_hz"]
        elif isinstance(mod, Sinusoid):
            omega = mod.omega
        elif isinstance(mod, EomDrive):
            omega = 2 * np.pi * mod.frequency_hz
        else:
            raise ConfigError(
                "[analysis] init_frequency_hz is required for model "
                "sinusoid_speckle when the modulation does not define one"
            )
        if "init_contrast" in init:
            contrast = init["init_contrast"]
        elif isinstance(mod, Sinusoid):
            # a depth-d sinusoid gives g2(0) = 2 + d^2, i.e. an effective
            # correlation parameter d^2 / (2 - d^2)
            d2 = mod.depth * mod.depth
            contrast = min(1.0, max(1e-3, d2 / (2.0 - d2)))
        else:
            contrast = 0.5
        return analytic.SinusoidSpeckle(
            contrast=contrast, mod_omega=omega, bandwidth=bandwidth
        )
    if name == "noise_speckle":
        if "init_cutoff_hz" in init:
            cutoff = init["init_cutoff_hz"]
        elif isinstance(mod, BandNoise):
            cutoff = mod.cutoff_hz
        elif isinstance(mod, EomDrive):
            cutoff = mod.frequency_hz
        else:
            raise ConfigError(
                "[analysis] init_cutoff_hz is required for model "
                "noise_speckle when the modulation does not define one"
            )
        return analytic.NoiseSpeckle(cutoff_hz=cutoff, bandwidth=bandwidth)
    raise ConfigError(f"unknown analysis model {name!r}")


def manifest_dict(cfg: RunConfig, hist: CoincidenceHistogram, fmt: str) -> dict:
    mod = dataclasses.asdict(cfg.modulation)
    mod["kind"] = _modulation_kind(cfg.modulation)
    return {
        "package": "superbunch",
        "version": __version__,
        "seed": cfg.seed,
        "run": {
            "duration_s": cfg.duration_s,
            "dt_s": cfg.dt_s,
            "samples": cfg.samples,
        },
        "modulation": mod,
        "speckle": {
            "bandwidth_rad_s": cfg.speckle.bandwidth,
            "gain": cfg.speckle.gain,
        },
        "detection": {
            "rate_hz": cfg.detection.rate_hz,
            "resolution_ns": cfg.detection.resolution_ns,
            "dark_rate_hz": cfg.detection.dark_rate_hz,
        },
        "correlator": {
            "bin_s": cfg.bin_s,
            "window_s": cfg.window_s,
            "bin_ns": hist.dtau_ns,
            "half_bins": hist.half_bins,
        },
        "analysis": {
            "model": cfg.analysis_model or "none",
            "init": dict(sorted(cfg.analysis_init.items())),
        },
        "output": {"format": fmt},
    }


def _write_fit_report(path, model_name: str, model, fit: analytic.FitResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"model: {model_name}\n")
        fh.write(f"converged: {'yes' if fit.converged else 'no'}\n")
        fh.write(f"iterations: {fit.iterations}\n")
        fh.write(f"rss: {fit.rss!r}\n")
        zero = fit.g2_model(type(model), 0.0)
        fh.write(f"g2_zero_fit: {float(zero)!r}\n")
        fh.write("parameter,value,sigma\n")
        for name in list(model.names) + ["amplitude", "offset"]:
            fh.write(f"{name},{fit.params[name]!r},{fit.sigmas[name]!r}\n")


def _write_theory_csv(path, model, fit: analytic.FitResult, tau: np.ndarray) -> None:
    values = fit.g2_model(type(model), tau)
    with open(path, "w", newline="") as fh:
        fh.write("tau_s,g2_theory\n")
        for t, v in zip(tau, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def analyze_stream(
    cfg: RunConfig, stream: PhotonStream, *, threads: int = 1, out_dir=None
) -> RunResult:
    """Correlate and fit a photon stream; write artifacts when `out_dir` is given.

    Artifacts: histogram.csv, g2.csv, and when a fit model is configured
    also theory.csv and fit.txt.  Simulated and recorded streams share
    this one path, so a stream gives the same files from either source.
    """
    hist = coincidence_histogram(stream, cfg.bin_s, cfg.window_s, threads=threads)
    curve = normalize_g2(hist)
    zero, zero_err = g2_zero_estimate(hist)
    peak = peak_background_ratio(hist)
    model = initial_model(cfg)
    fit = analytic.fit_g2(curve, model) if model is not None else None

    paths: dict = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        paths["histogram"] = os.path.join(out_dir, "histogram.csv")
        write_histogram_csv(hist, paths["histogram"])
        paths["g2"] = os.path.join(out_dir, "g2.csv")
        write_g2_csv(curve, paths["g2"])
        if fit is not None:
            paths["theory"] = os.path.join(out_dir, "theory.csv")
            _write_theory_csv(paths["theory"], model, fit, hist.bin_centers_s())
            paths["fit"] = os.path.join(out_dir, "fit.txt")
            _write_fit_report(paths["fit"], cfg.analysis_model, model, fit)

    return RunResult(
        config=cfg,
        stream=stream,
        histogram=hist,
        curve=curve,
        g2_zero=zero,
        g2_zero_err=zero_err,
        peak=peak,
        model=model,
        fit=fit,
        paths=paths,
    )


def run_pipeline(
    cfg: RunConfig,
    *,
    threads: int = 1,
    out_dir=None,
    fmt: Optional[str] = None,
) -> RunResult:
    """Run the full chain; write artifacts when `out_dir` is given.

    Artifacts: photons.txt or photons.bin and manifest.json, plus those
    of analyze_stream.  With output.write_trace the source intensity
    traces go to modulation.csv and speckle.csv (only sensible for short
    runs).
    """
    fmt = fmt or cfg.output_format
    n = cfg.samples
    if n < 2:
        raise ConfigError("[run] duration_s / dt_s must give at least two samples")

    trace = sample_intensity(
        cfg.modulation, 0.0, cfg.dt_s, n, substream_seed(cfg.seed, "modulation")
    )
    params = dataclasses.replace(cfg.speckle, seed=substream_seed(cfg.seed, "speckle"))
    field = generate_speckle_field(params, 0.0, cfg.dt_s, n)
    joint = apply_speckle(trace, field)

    paths: dict = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if cfg.write_trace:
            paths["modulation"] = os.path.join(out_dir, "modulation.csv")
            write_intensity_csv(trace, paths["modulation"])
            speckle_trace = IntensityTrace(
                t0=field.t0,
                dt=field.dt,
                samples=field.intensity(),
                mean=field.mean_intensity,
            )
            paths["speckle"] = os.path.join(out_dir, "speckle.csv")
            write_intensity_csv(speckle_trace, paths["speckle"])
            del speckle_trace
    del trace, field  # keep peak memory at one trace from here on

    stream = detect_photons(
        joint, cfg.detection, substream_seed(cfg.seed, "detection"), threads=threads
    )
    del joint

    if out_dir is not None:
        ext = "txt" if fmt == "text" else "bin"
        paths["photons"] = os.path.join(out_dir, f"photons.{ext}")
        write_photon_stream(stream, paths["photons"], fmt=fmt)

    result = analyze_stream(cfg, stream, threads=threads, out_dir=out_dir)
    if out_dir is not None:
        paths["manifest"] = os.path.join(out_dir, "manifest.json")
        with open(paths["manifest"], "w", newline="") as fh:
            json.dump(manifest_dict(cfg, result.histogram, fmt), fh, indent=2, sort_keys=True)
            fh.write("\n")
    result.paths.update(paths)
    return result


def run_analysis(
    cfg: RunConfig,
    stream_path,
    *,
    fmt: Optional[str] = None,
    duration_s: Optional[float] = None,
    out_dir=None,
    threads: int = 1,
) -> RunResult:
    """Correlate and fit an existing timestamp file.

    The photon files carry no header, so pass the acquisition duration
    explicitly to reproduce a simulation's normalization exactly; without
    it the duration is taken as the last timestamp plus one resolution
    step, which biases g2 slightly low for short streams.
    """
    stream = read_photon_stream(
        stream_path,
        fmt=fmt,
        resolution_ns=cfg.detection.resolution_ns,
        duration_s=duration_s,
    )
    return analyze_stream(cfg, stream, threads=threads, out_dir=out_dir)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_sweep(
    cfg: RunConfig,
    raw: dict,
    *,
    out_dir,
    threads: int = 1,
    fmt: Optional[str] = None,
) -> list:
    """Repeat the pipeline over the values of one swept config key.

    Each point runs in out_dir/point_NNN with its own seed derived from
    the master seed, and a row is appended to out_dir/summary.csv.  A
    point whose config or data is rejected (ConfigError, DataError,
    ValueError) is recorded in its row's status column and the sweep
    continues; any other exception is a bug and propagates.
    """
    if cfg.sweep is None:
        raise ConfigError("missing required section [sweep]")
    sweep = cfg.sweep
    os.makedirs(out_dir, exist_ok=True)

    model_cls = _MODEL_CLASSES.get(cfg.analysis_model)
    param_names = list(model_cls.names) if model_cls is not None else []
    header = ["parameter", "value", "status", "g2_zero", "g2_zero_err"]
    if model_cls is not None:
        header += ["fit_g2_zero", "fit_converged"]
        for name in param_names:
            header += [name, f"{name}_err"]

    rows = []
    for i, value in enumerate(sweep.values):
        row = {key: None for key in header}
        row["parameter"] = sweep.parameter
        row["value"] = value
        point_dir = os.path.join(out_dir, f"point_{i:03d}")
        try:
            raw_i = apply_override(raw, sweep.parameter, value)
            raw_i.pop("sweep", None)
            cfg_i = build_config(raw_i, require=("modulation",))
            cfg_i = dataclasses.replace(
                cfg_i, seed=substream_seed(cfg.seed, "sweep", i), sweep=None
            )
            result = run_pipeline(cfg_i, threads=threads, out_dir=point_dir, fmt=fmt)
        except (ConfigError, DataError, ValueError) as exc:
            message = str(exc).replace("\n", " ").replace(",", ";")
            row["status"] = f"error: {message}"
            rows.append(row)
            continue
        row["status"] = "ok"
        row["g2_zero"] = result.g2_zero
        row["g2_zero_err"] = result.g2_zero_err
        if result.fit is not None:
            row["fit_g2_zero"] = result.fit_g2_zero
            row["fit_converged"] = "yes" if result.fit.converged else "no"
            for name in param_names:
                row[name] = result.fit.params[name]
                row[f"{name}_err"] = result.fit.sigmas[name]
        rows.append(row)

    summary = os.path.join(out_dir, "summary.csv")
    with open(summary, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[key]) for key in header) + "\n")
    return rows
