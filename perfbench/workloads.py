"""The benchmark's workloads: configs from a seed, set-up, timed calls, checks.

Every workload is an INI config generated from the workload seed and run
through the public entry points the CLI uses.  Calls go through the
`superbunch.pipeline` module attribute so a tracer installed on that
module sees them.  Each call returns what the metrics and the correctness
gates need: wall time, events, per-point g2(0) and its error, failures
and the exact counts that must repeat between calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from superbunch import config, pipeline
from superbunch.seeding import substream_seed

# README physics: full-depth 50 kHz sinusoid on 10 kHz speckle
_SINUSOID = {
    "modulation": {
        "kind": "sinusoid",
        "intensity": "1.0",
        "depth": "1.0",
        "frequency_hz": "50e3",
    },
    "speckle": {"bandwidth_rad_s": "62831.853"},
    "correlator": {"bin_s": "0.5e-6", "window_s": "2.5e-4"},
    "analysis": {"model": "sinusoid_speckle"},
}

# g2(0) of a full-depth sinusoid times thermal speckle: (1 + 1/2) * 2
SINUSOID_G2_ZERO = 3.0


def clipped_noise_g2_zero(clip: float | None) -> float:
    """g2(0) of thermal noise clipped at `clip` (in units of its mean) times speckle.

    For a unit-mean exponential clipped at c: <X> = 1 - e^-c and
    <X^2> = 2 - 2 (c + 1) e^-c (tests/test_acceptance.py scenarios 04/05).
    """
    if clip is None:
        return 4.0
    e = math.exp(-clip)
    return 2.0 * (2.0 - 2.0 * (clip + 1.0) * e) / (1.0 - e) ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    sections: dict
    points: int = 1
    # absolute tolerance on g2(0): at least five standard deviations of
    # the scatter over realizations measured at this size (README.md)
    g2_tol: float = 0.25


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim_sinusoid_text",
            sections={
                "run": {"duration_s": "2.0", "dt_s": "1e-6"},
                **_SINUSOID,
                "detection": {"rate_hz": "3e4", "resolution_ns": "1", "dark_rate_hz": "0"},
                "output": {"format": "text"},
            },
            g2_tol=0.25,
        ),
        Workload(
            name="analyze_dense_binary",
            sections={
                "run": {"duration_s": "1.0", "dt_s": "1e-6"},
                **_SINUSOID,
                "detection": {"rate_hz": "3e5", "resolution_ns": "1", "dark_rate_hz": "0"},
                "output": {"format": "binary"},
            },
            g2_tol=0.2,
        ),
        Workload(
            name="sweep_noise_threads",
            sections={
                "run": {"duration_s": "20.0", "dt_s": "1e-5"},
                "modulation": {
                    "kind": "band_noise",
                    "intensity": "1.0",
                    "cutoff_hz": "200",
                    "clip_level": "none",
                    "quantization_bits": "8",
                },
                "speckle": {"bandwidth_rad_s": "62831.853"},
                "detection": {"rate_hz": "1e4", "resolution_ns": "1", "dark_rate_hz": "0"},
                "correlator": {"bin_s": "1e-5", "window_s": "1e-2"},
                "analysis": {"model": "noise_speckle"},
                "output": {"format": "binary"},
                "sweep": {"parameter": "modulation.clip_level", "values": "none, 3.0, realistic"},
            },
            points=3,
            g2_tol=0.35,
        ),
    )
}

SWEEP_CLIPS = {"none": None, "3.0": 3.0, "realistic": 2.0}


def ini_text(workload: Workload, seed: int) -> str:
    lines = []
    for section, entries in workload.sections.items():
        if section == "run":
            entries = {"seed": str(seed), **entries}
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


def _stream_digest(stream) -> str:
    h = hashlib.sha256()
    h.update(stream.d1.tobytes())
    h.update(stream.d2.tobytes())
    return h.hexdigest()


def realization_seed(seed: int, k: int) -> int:
    """Config seed of realization k of a workload seed (k < 1000)."""
    return seed * 1000 + k


def load(work: Path):
    """Load the config that prepare() wrote; returns (RunConfig, raw dict)."""
    return config.load_config(str(work / "workload.ini"))


def photon_path(work: Path) -> Path:
    return work / "photons.bin"


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    """Set-up: write and load the config; build the analyze input file.

    The input file is built with the pipeline's own synthesis and
    detection calls (no correlation).  Returns a record of what was
    written, so repeated set-ups can be compared.
    """
    work.mkdir(parents=True, exist_ok=True)
    (work / "workload.ini").write_text(ini_text(workload, seed))
    cfg, _ = load(work)
    if workload.name != "analyze_dense_binary":
        return {}
    n = cfg.samples
    trace = pipeline.sample_intensity(
        cfg.modulation, 0.0, cfg.dt_s, n, substream_seed(cfg.seed, "modulation")
    )
    params = dataclasses.replace(cfg.speckle, seed=substream_seed(cfg.seed, "speckle"))
    speckle_field = pipeline.generate_speckle_field(params, 0.0, cfg.dt_s, n)
    joint = pipeline.apply_speckle(trace, speckle_field)
    del trace, speckle_field
    stream = pipeline.detect_photons(
        joint, cfg.detection, substream_seed(cfg.seed, "detection")
    )
    del joint
    path = photon_path(work)
    pipeline.write_photon_stream(stream, str(path), fmt="binary")
    return {
        "events": int(stream.n1 + stream.n2),
        "bytes": path.stat().st_size,
        "digest": _stream_digest(stream),
    }


@dataclass
class CallResult:
    """One timed call of an entry point (a sweep call holds several points)."""

    wall_s: float
    events: int = 0
    # (g2(0), stderr) per point
    g2: list = field(default_factory=list)
    fits_total: int = 0
    fits_unconverged: int = 0
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _check_g2(res: CallResult, label: str, value: float, expect: float, tol: float) -> None:
    if not abs(value - expect) <= tol:
        res.failures.append(f"{label}: g2(0)={value:.4f}, expected {expect:.4f} +- {tol}")


def _check_sinusoid(res: CallResult, workload: Workload, cfg, result) -> None:
    _check_g2(res, "g2_zero", result.g2_zero, SINUSOID_G2_ZERO, workload.g2_tol)
    fit = result.fit
    res.fits_total += 1
    if not fit.converged:
        res.fits_unconverged += 1
    _check_g2(res, "fit g2_zero", result.fit_g2_zero, SINUSOID_G2_ZERO, workload.g2_tol)
    omega = cfg.modulation.omega
    if not abs(fit.params["mod_omega"] / omega - 1.0) <= 0.01:
        res.failures.append(f"fit mod_omega={fit.params['mod_omega']:.1f}, want {omega:.1f} +- 1%")


def _clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def call_sim(workload, cfg, raw, work, setup) -> CallResult:
    out_dir = work / "sim_out"
    _clear(out_dir)
    t0 = time.perf_counter()
    result = pipeline.run_pipeline(cfg, threads=1, out_dir=str(out_dir))
    res = CallResult(wall_s=time.perf_counter() - t0)
    res.events = int(result.stream.n1 + result.stream.n2)
    res.g2 = [(result.g2_zero, result.g2_zero_err)]
    _check_sinusoid(res, workload, cfg, result)
    res.counts = {
        "events": res.events,
        "pairs": int(result.histogram.counts.sum()),
        "fit_iterations": int(result.fit.iterations),
        "photon_bytes_written": os.path.getsize(result.paths["photons"]),
    }
    return res


def call_analyze(workload, cfg, raw, work, setup) -> CallResult:
    out_dir = work / "analyze_out"
    _clear(out_dir)
    t0 = time.perf_counter()
    result = pipeline.run_analysis(
        cfg,
        str(photon_path(work)),
        fmt="binary",
        duration_s=cfg.duration_s,
        out_dir=str(out_dir),
        threads=1,
    )
    res = CallResult(wall_s=time.perf_counter() - t0)
    res.events = int(result.stream.n1 + result.stream.n2)
    res.g2 = [(result.g2_zero, result.g2_zero_err)]
    if res.events != setup["events"] or _stream_digest(result.stream) != setup["digest"]:
        res.failures.append(
            f"read {res.events} events that differ from the {setup['events']} written at set-up"
        )
    _check_sinusoid(res, workload, cfg, result)
    res.counts = {
        "events": res.events,
        "pairs": int(result.histogram.counts.sum()),
        "fit_iterations": int(result.fit.iterations),
        "photon_bytes_written": 0,
    }
    return res


def _fit_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        if key in ("converged", "iterations"):
            out[key] = value
    return out


def call_sweep(workload, cfg, raw, work, setup) -> CallResult:
    out_dir = work / "sweep_out"
    _clear(out_dir)
    t0 = time.perf_counter()
    rows = pipeline.run_sweep(cfg, raw, out_dir=str(out_dir), threads=2)
    res = CallResult(wall_s=time.perf_counter() - t0)
    counts = {"events": 0, "pairs": 0, "fit_iterations": 0, "photon_bytes_written": 0}
    for i, row in enumerate(rows):
        label = f"point {i} ({row['parameter']}={row['value']})"
        if row["status"] != "ok":
            res.failures.append(f"{label}: {row['status']}")
            continue
        point = out_dir / f"point_{i:03d}"
        size = (point / "photons.bin").stat().st_size
        hist = np.loadtxt(point / "histogram.csv", delimiter=",", skiprows=1, ndmin=2)
        fit = _fit_report(point / "fit.txt")
        counts["events"] += size // 9  # (uint64 timestamp, uint8 channel) records
        counts["photon_bytes_written"] += size
        counts["pairs"] += int(hist[:, 1].sum())
        counts["fit_iterations"] += int(fit["iterations"])
        res.fits_total += 1
        if fit["converged"] != "yes":
            res.fits_unconverged += 1
        res.g2.append((row["g2_zero"], row["g2_zero_err"]))
        expect = clipped_noise_g2_zero(SWEEP_CLIPS[row["value"]])
        _check_g2(res, label, row["g2_zero"], expect, workload.g2_tol)
    res.events = counts["events"]
    res.counts = counts
    return res


CALLS = {
    "sim_sinusoid_text": call_sim,
    "analyze_dense_binary": call_analyze,
    "sweep_noise_threads": call_sweep,
}
