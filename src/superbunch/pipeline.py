"""End-to-end runs: synthesize, detect, correlate, fit, write artifacts.

A run is driven by a RunConfig and a master seed.  `build_config` has
checked every setting of the RunConfig before a run starts, the fit
start (`RunConfig.fit_start`) included, so a run adds only the checks
that its kind of work needs: simulation needs a [modulation] and a
[speckle] whose timescales the sample grid resolves (checked before any
synthesis; analysis samples nothing), and a stream needs events in both
channels.  Each command declares the files it writes once, before any
work, in one table of artifact key -> path (`_artifacts`), which every
writer reads and `RunResult.paths` keeps.  It makes its output
directory for that table (`make_out_dir`), refusing an artifact path
that a directory takes, once its input has passed these checks and
before its expensive work.  A run refused after that leaves nothing: it
removes the files it wrote, and the directory if it made it (`_writing`).

Every stochastic stage draws from its own derived substream (see
seeding.py), so results are reproducible bit-for-bit from (config, seed)
alone and independent of the thread count.  The manifest records exactly
that pair plus derived sizes; it deliberately excludes runtime knobs such
as thread counts, paths and wall-clock times so that repeated runs
produce identical files.

Draw order: `run_pipeline` checks the modulation against the grid and
then the speckle, which also gives the run's diagnostics (the
`short-trace` and `slow-synthesis` warnings); it draws the speckle, then
has the modulation multiply itself into the speckle's buffer
(`signal.modulate_in_place`), the one way a run forms the joint trace.
No product trace is made, and a waveform kind, evaluated per block,
makes no full-length trace either.  With `write_trace` the run first
writes modulation.csv from the modulation multiplied into a buffer of
ones (`signal.sample_intensity`) and frees it, then draws the speckle
and writes speckle.csv from its buffer before the modulation multiplies
itself in: at most two full-length traces at once, and a stochastic
modulation drawn twice from its one substream.  As 1.0 * x is x, both
draws give the same bits, and the run's photons are those of a run
without `write_trace`.  The order is free because each source has its
own substream ("speckle", "modulation"): neither draw depends on the
other.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional

from . import analytic
from ._text import write_csv
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
from .signal import modulate_in_place, sample_intensity, write_intensity_csv
# apply_speckle is bound here, though no run calls it, because perfbench/
# reaches it by this module's name, as it does sample_intensity and
# generate_speckle_field: workloads.py `prepare` and tracer.py `TARGETS`
from .speckle import apply_speckle, generate_speckle_field  # noqa: F401


# diagnostic -> the warning it gives; artifacts do not record these
WARNINGS = {
    "short-trace": "short trace: the run spans fewer than ten correlation times "
    "of the noise modulation, so its statistics do not self-average "
    "(lengthen [run] duration_s)",
    "slow-synthesis": "slow synthesis: the run's sample count has no divisor near the "
    "thermal band's mode count, so synthesis runs a few long transforms, many times "
    "slower than at a rounder count (change [run] duration_s by a few samples)",
    "background-unresolved": "background unresolved: the correlation peak fills much "
    "of the window, so peak/background underestimates the contrast (widen "
    "[correlator] window_s)",
    "background-empty": "no background: the outer bins of the window hold no "
    "coincidences, so peak/background is not measured (raise [detection] rate_hz "
    "or [run] duration_s)",
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
    fit: Optional[analytic.FitResult] = None
    paths: dict = dataclasses.field(default_factory=dict)
    warnings: tuple = ()  # messages of WARNINGS, for the user and not the artifacts

    @property
    def fit_g2_zero(self) -> Optional[float]:
        if self.fit is None:
            return None
        return float(self.fit.g2_model(0.0))


def manifest_dict(cfg: RunConfig, hist: CoincidenceHistogram) -> dict:
    """The manifest: each model section under its config keys, which are the model's fields."""
    mod = dataclasses.asdict(cfg.modulation)
    mod["kind"] = cfg.modulation.kind
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
        "speckle": {"bandwidth_rad_s": cfg.speckle.bandwidth_rad_s},
        "detection": dataclasses.asdict(cfg.detection),
        "correlator": {
            "bin_s": cfg.bin_s,
            "window_s": cfg.window_s,
            "bin_ns": hist.dtau_ns,
            "half_bins": hist.half_bins,
        },
        "analysis": {
            "model": cfg.fit_start.name if cfg.fit_start else "none",
            "init": dict(sorted(cfg.analysis_init.items())),
        },
        "output": {"format": cfg.output_format},
    }


def _write_fit_report(path, fit: analytic.FitResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"model: {fit.model.name}\n")
        fh.write(f"converged: {'yes' if fit.converged else 'no'}\n")
        fh.write(f"iterations: {fit.iterations}\n")
        fh.write(f"rss: {fit.rss!r}\n")
        fh.write(f"g2_zero_fit: {float(fit.g2_model(0.0))!r}\n")
        fh.write("parameter,value,sigma\n")
        for name in fit.params:
            fh.write(f"{name},{fit.params[name]!r},{fit.sigmas[name]!r}\n")


def make_out_dir(path, files) -> None:
    """Make the output directory `path` for the artifact paths `files`, or raise ConfigError.

    Each command calls this once per directory, once its input has
    passed its checks and before its expensive work, so a directory that
    cannot be made (the message gives the reason), or an artifact path
    that a directory already takes, fails at once, by name, and writes
    nothing.
    """
    for artifact in files:
        if os.path.isdir(artifact):
            raise ConfigError(f"cannot write {artifact}: it is a directory")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _writing(out_dir, paths: dict):
    """Make `out_dir` for the artifact table `paths` (`make_out_dir`) around a run's work.

    A run that raises within leaves nothing behind: the artifacts it
    wrote are removed, and so is `out_dir` if the run made it.  A file
    that was there before the run stays.  Without `paths` nothing is
    made or removed.
    """
    new = [path for path in paths.values() if not os.path.lexists(path)]
    made = bool(paths) and not os.path.isdir(out_dir)
    if paths:
        make_out_dir(out_dir, paths.values())
    try:
        yield
    except BaseException:
        for path in new:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if made:
            with contextlib.suppress(OSError):
                os.rmdir(out_dir)
        raise


def _artifacts(cfg: RunConfig, out_dir, *, simulated: bool) -> dict:
    """Artifact key -> its path in `out_dir`, for each file a run of `cfg` writes.

    Each command builds this one table before any work, makes the
    directory for it (`make_out_dir`), and each writer writes the path
    it finds here; without `out_dir` the table is empty and nothing is
    written.  A simulation writes its photons (by `[output] format`) and
    manifest.json, with `write_trace` also modulation.csv and
    speckle.csv; every run writes histogram.csv and g2.csv, with a fit
    also theory.csv and fit.txt.
    """
    photons = {"text": "photons.txt", "binary": "photons.bin"}[cfg.output_format]
    names = {"photons": photons, "manifest": "manifest.json"} if simulated else {}
    if simulated and cfg.write_trace:
        names.update(modulation="modulation.csv", speckle="speckle.csv")
    names.update(histogram="histogram.csv", g2="g2.csv")
    if cfg.fit_start is not None:
        names.update(theory="theory.csv", fit="fit.txt")
    return {} if out_dir is None else {k: os.path.join(out_dir, name) for k, name in names.items()}


def analyze_stream(
    cfg: RunConfig, stream: PhotonStream, paths: dict, *, threads: int = 1
) -> RunResult:
    """Correlate and fit a photon stream; write the artifacts the table `paths` names.

    The fit starts from `cfg.fit_start`, which `build_config` built and
    checked; None skips the fit.  `paths` is the command's artifact
    table (`_artifacts`), whose directory the command has made, or {}
    to write nothing; it becomes `RunResult.paths`.  Simulated and
    recorded streams share this one path, so a stream gives the same
    files from either source.
    """
    hist = coincidence_histogram(stream, cfg.bin_s, cfg.window_s, threads=threads)
    curve = normalize_g2(hist)
    zero, zero_err = g2_zero_estimate(hist)
    peak = peak_background_ratio(hist)
    fit = analytic.fit_g2(curve, cfg.fit_start) if cfg.fit_start is not None else None

    if paths:
        write_histogram_csv(hist, paths["histogram"])
        write_g2_csv(curve, paths["g2"])
        if fit is not None:
            tau = hist.bin_centers_s()
            write_csv(paths["theory"], ("tau_s", "g2_theory"), tau, fit.g2_model(tau))
            _write_fit_report(paths["fit"], fit)

    diagnostic = "background-empty" if peak.background <= 0 else "background-unresolved"
    return RunResult(
        config=cfg,
        stream=stream,
        histogram=hist,
        curve=curve,
        g2_zero=zero,
        g2_zero_err=zero_err,
        peak=peak,
        fit=fit,
        paths=paths,
        warnings=(WARNINGS[diagnostic],) if peak.background_unresolved else (),
    )


def _require_modulation(cfg: RunConfig) -> None:
    """Simulation needs [modulation]; analysis alone does not."""
    if cfg.modulation is None:
        raise ConfigError("missing required section [modulation]")


def run_pipeline(cfg: RunConfig, *, threads: int = 1, out_dir=None) -> RunResult:
    """Run the full chain; write artifacts when `out_dir` is given.

    Artifacts: photons.txt or photons.bin (by `[output] format`) and
    manifest.json, plus those of analyze_stream.  With output.write_trace
    the source intensity traces go to modulation.csv and speckle.csv
    (only sensible for short runs: a stochastic modulation is then drawn
    twice, and two full-length traces are held at once).
    """
    _require_modulation(cfg)
    n = cfg.samples
    # the modulation's before the speckle's, so a grid too coarse for both names the modulation
    diagnostics = cfg.modulation.check(cfg.dt_s, n) + cfg.speckle.check(cfg.dt_s, n)
    warnings = tuple(WARNINGS[name] for name in dict.fromkeys(diagnostics))
    paths = _artifacts(cfg, out_dir, simulated=True)
    with _writing(out_dir, paths):
        modulation_seed = substream_seed(cfg.seed, "modulation")
        if "modulation" in paths:
            # freed once written; modulate_in_place draws the same bits again below
            trace = sample_intensity(
                cfg.modulation, 0.0, cfg.dt_s, n, modulation_seed, threads=threads
            )
            write_intensity_csv(trace, paths["modulation"])
            del trace

        params = dataclasses.replace(cfg.speckle, seed=substream_seed(cfg.seed, "speckle"))
        speckle = generate_speckle_field(params, 0.0, cfg.dt_s, n, threads=threads)
        if "speckle" in paths:
            write_intensity_csv(speckle, paths["speckle"])
        joint = modulate_in_place(cfg.modulation, speckle, modulation_seed, threads=threads)
        del speckle  # stale: its buffer now holds the joint trace

        stream = detect_photons(
            joint, cfg.detection, substream_seed(cfg.seed, "detection"), threads=threads
        )
        del joint

        if not (stream.n1 and stream.n2):
            raise DataError(
                "a detector saw no photons: raise [detection] rate_hz or [run] duration_s"
            )
        if paths:
            write_photon_stream(stream, paths["photons"], fmt=cfg.output_format)
        result = analyze_stream(cfg, stream, paths, threads=threads)
        result.warnings = warnings + result.warnings
        if paths:
            with open(paths["manifest"], "w", newline="") as fh:
                json.dump(manifest_dict(cfg, result.histogram), fh, indent=2, sort_keys=True)
                fh.write("\n")
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
    it the duration is taken as the span of the timestamps, last minus
    first, plus one resolution step (a recording's clock may start
    anywhere), which biases g2 slightly low for short streams.
    """
    paths = _artifacts(cfg, out_dir, simulated=False)
    stream = read_photon_stream(
        stream_path,
        fmt=fmt,
        resolution_ns=cfg.detection.resolution_ns,
        duration_s=duration_s,
    )
    with _writing(out_dir, paths):
        return analyze_stream(cfg, stream, paths, threads=threads)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_sweep(cfg: RunConfig, raw: dict, *, out_dir, threads: int = 1) -> list:
    """Repeat the pipeline over the values of one swept config key.

    Each point runs in out_dir/point_NNN with its own seed derived from
    the master seed, and a row is appended to out_dir/summary.csv.  A
    point whose config, data or point_NNN directory is rejected
    (ConfigError, DataError) is recorded in its row's status column and
    the sweep continues; any other exception is a bug and propagates.
    The fit columns are those of the points' own fits, in order of first
    appearance, so `analysis.model` can be swept too.  Each row's
    `warnings` holds its run's RunResult.warnings; summary.csv omits
    them.  `cfg` is `build_config(raw)`, so the base config, fit start
    included, has passed every check before any point runs; `threads`
    below 1 raises ValueError before any point runs.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    _require_modulation(cfg)
    if cfg.sweep is None:
        raise ConfigError("missing required section [sweep]")
    sweep = cfg.sweep
    summary = os.path.join(out_dir, "summary.csv")
    make_out_dir(out_dir, (summary,))

    header = ["parameter", "value", "status", "g2_zero", "g2_zero_err"]
    rows = []
    for i, value in enumerate(sweep.values):
        row = {"parameter": sweep.parameter, "value": value, "warnings": ()}
        point_dir = os.path.join(out_dir, f"point_{i:03d}")
        try:
            raw_i = apply_override(raw, sweep.parameter, value)
            raw_i.pop("sweep", None)
            cfg_i = build_config(raw_i)
            cfg_i = dataclasses.replace(cfg_i, seed=substream_seed(cfg.seed, "sweep", i))
            result = run_pipeline(cfg_i, threads=threads, out_dir=point_dir)
        except (ConfigError, DataError) as exc:
            message = str(exc).replace("\n", " ").replace(",", ";")
            row["status"] = f"error: {message}"
            rows.append(row)
            continue
        row["status"] = "ok"
        row["g2_zero"] = result.g2_zero
        row["g2_zero_err"] = result.g2_zero_err
        row["warnings"] = result.warnings
        if result.fit is not None:
            fit = {
                "fit_g2_zero": result.fit_g2_zero,
                "fit_converged": "yes" if result.fit.converged else "no",
            }
            for name in result.fit.model.names:
                fit[name] = result.fit.params[name]
                fit[f"{name}_err"] = result.fit.sigmas[name]
            row.update(fit)
            header += [key for key in fit if key not in header]
        rows.append(row)
        # the next point synthesizes without this one's photon stream
        del result
    for row in rows:
        for key in header:
            row.setdefault(key, None)

    with open(summary, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[key]) for key in header) + "\n")
    return rows
