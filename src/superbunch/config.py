"""Run configuration: a single INI-style file with named sections.

Every key is declared once, with its parser and default: in `_SCHEMA`,
for the kind-specific keys of [modulation] in `_MODULATION`, and for the
`init_*` keys of [analysis] in `INIT`, which also names the fit
parameter each one starts.  Every section is optional and a missing key
takes its default; only [sweep] has required keys.  Without [modulation]
the config builds with `modulation = None`, which analysis accepts and
`run_pipeline` rejects.

`build_config` checks the whole run before any work.  An unknown section
or key, or a value that does not parse, is not finite or, for a
`_positive` key, is not positive (for an `intensity`, not within
1e±100), raises ConfigError naming the section, the key and the
value.  So does, naming the section and key, a [run] duration whose
timestamps a photon file cannot hold, a [correlator] whose bins
`histogram_geometry` rejects and an [analysis] section whose fit start
`_fit_start` rejects.  The fit start, the fit model at its
starting point, is built here once and kept in `RunConfig.fit_start`.
Inline `;` and `#` comments are allowed.  See README for the schema.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic
from .correlator import histogram_geometry
from .detection import TIMESTAMP_END_NS, DetectorConfig
from .errors import ConfigError
from .signal import BandNoise, Constant, EomDrive, ModulationModel, Sinusoid
from .speckle import SpeckleParams

_REQUIRED = object()  # the default of a key that must be given


def _number(text: str, kind=float):
    """`kind(text)`, and a float must be finite: no key takes nan or an infinity."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"not {'a number' if kind is float else 'an integer'}: {text!r}")
    if kind is float and not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _positive(text: str) -> float:
    value = _number(text)
    if not value > 0:
        raise ValueError(f"not a positive number: {text!r}")
    return value


def _intensity(text: str) -> float:
    """A positive number within 1e±100: an intensity sets only the unit of
    the traces, and in this range their product and its sum over a run
    stay normal floats, where 1e308 would overflow to inf."""
    value = _positive(text)
    if not 1e-100 <= value <= 1e100:
        raise ValueError(f"not within [1e-100, 1e100]: {text!r}")
    return value


def _frequency(text: str) -> float:
    """A positive frequency in Hz whose angular frequency is finite."""
    value = _positive(text)
    if not 2 * np.pi * value < np.inf:
        raise ValueError(f"2 pi times it overflows: {text!r}")
    return value


def _integer(text: str) -> int:
    return _number(text, int)


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _choice(*options):
    def parse(text):
        if text.strip() not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {text.strip()!r}")
        return text.strip()

    return parse


def _or_none(parse):
    """`parse`, except that the word `none` gives None."""
    return lambda text: None if text.strip() == "none" else parse(text)


def _clip_level(text: str):
    if text.strip() == "realistic":
        return "realistic"
    try:
        return _number(text)
    except ValueError as exc:
        raise ValueError(f"{exc} (expected a number, 'none' or 'realistic')") from None


def _band_noise(v: dict) -> BandNoise:
    clip = v["clip_level"]
    return BandNoise(
        mean_intensity=v["intensity"],
        cutoff_hz=v["cutoff_hz"],
        clip_level=2.0 * v["intensity"] if clip == "realistic" else clip,
        quantization_bits=v["quantization_bits"],
    )


# kind -> ({key: (parser, default)}, builder of the model from the parsed keys)
_MODULATION = {
    Constant.kind: (
        {"intensity": (_intensity, 1.0)},
        lambda v: Constant(base_intensity=v["intensity"]),
    ),
    Sinusoid.kind: (
        {
            "intensity": (_intensity, 1.0),
            "depth": (_number, 1.0),
            "frequency_hz": (_frequency, 50e3),
            "phase_rad": (_number, 0.0),
        },
        lambda v: Sinusoid(
            base_intensity=v["intensity"],
            depth=v["depth"],
            omega=2 * np.pi * v["frequency_hz"],
            phase=v["phase_rad"],
        ),
    ),
    BandNoise.kind: (
        {
            "intensity": (_intensity, 1.0),
            "cutoff_hz": (_positive, 200.0),
            "clip_level": (_or_none(_clip_level), None),
            "quantization_bits": (_or_none(_integer), None),
        },
        _band_noise,
    ),
    EomDrive.kind: (
        {
            "vpp": (_number, 8.0),
            "frequency_hz": (_positive, 50e3),
            "waveform": (_choice("sinusoid", "noise"), "sinusoid"),
        },
        lambda v: EomDrive(**v),
    ),
}

# [analysis] init_* key -> (the fit parameter it starts, factor from the key's unit)
INIT = {
    "init_contrast": ("contrast", 1.0),
    "init_frequency_hz": ("mod_omega", 2 * np.pi),
    "init_bandwidth_rad_s": ("bandwidth", 1.0),
    "init_cutoff_hz": ("cutoff_hz", 1.0),
}

# section -> {key: (parser, default)}
_SCHEMA = {
    "run": {"seed": (_integer, 0), "duration_s": (_positive, 100.0), "dt_s": (_positive, 1e-5)},
    # the keys that depend on the kind are declared in _MODULATION
    "modulation": {"kind": (_choice(*_MODULATION), None)},
    "speckle": {"bandwidth_rad_s": (_positive, 2 * np.pi * 10e3)},
    "detection": {
        "rate_hz": (_positive, 50e3),
        "resolution_ns": (_integer, 1),
        "dark_rate_hz": (_number, 0.0),
    },
    # bin_s None: window_s / 500
    "correlator": {"bin_s": (_positive, None), "window_s": (_positive, 5e-4)},
    "analysis": {
        "model": (_choice("none", *analytic.MODELS), "none"),
        **{key: (_number, None) for key in INIT},
    },
    "output": {
        "directory": (str.strip, "out"),
        "format": (_choice("text", "binary"), "text"),
        "write_trace": (_boolean, False),
    },
    "sweep": {"parameter": (str.strip, _REQUIRED), "values": (str.strip, _REQUIRED)},
}

# [sweep] parameter -> why a sweep over it would not change what a point runs
_UNSWEPT = {
    "run.seed": "each point takes a seed derived from [run] seed and its index",
    "output.directory": "each point writes to its own point_NNN directory",
}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: a section.key path and its raw values."""

    parameter: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    seed: int
    duration_s: float
    dt_s: float
    modulation: Optional[ModulationModel]
    speckle: SpeckleParams
    detection: DetectorConfig
    bin_s: float
    window_s: float
    fit_start: Optional[analytic.FitModel]
    analysis_init: dict = field(default_factory=dict)
    output_format: str = "text"
    write_trace: bool = False
    out_dir: str = "out"
    sweep: Optional[SweepSpec] = None

    @property
    def samples(self) -> int:
        return int(round(self.duration_s / self.dt_s))


def _parse(section: str, entries: dict, keys: dict) -> dict:
    """Typed value of every declared key of one section, defaulted when absent."""
    unknown = sorted(set(entries) - set(keys))
    if unknown:
        raise ConfigError(f"[{section}] unknown key '{unknown[0]}'")
    values = {}
    for key, (parse, default) in keys.items():
        if key not in entries:
            if default is _REQUIRED:
                raise ConfigError(f"[{section}] missing required key '{key}'")
            values[key] = default
            continue
        try:
            values[key] = parse(entries[key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return values


def _build(section: str, build, *args, **kwargs):
    """Call a model constructor; its ValueError becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _build_modulation(entries: dict) -> ModulationModel:
    """The model of a [modulation] section; its kind decides the allowed keys."""
    kind = _parse("modulation", {"kind": entries.get("kind", "")}, _SCHEMA["modulation"])["kind"]
    keys, build = _MODULATION[kind]
    rest = {key: text for key, text in entries.items() if key != "kind"}
    return _build("modulation", build, _parse("modulation", rest, keys))


def _fit_start(model: str, init: dict, modulation, bandwidth: float, half_bins: int):
    """The fit model at its starting point; None for the model `none`.

    A parameter starts from its `init_*` key when given, else from the
    modulation's `fit_start()`; `contrast` falls back to 0.5 and
    `bandwidth` to the speckle's.  ConfigError names the key of a model
    parameter that nothing starts, the key that set a start outside its
    parameter's bounds (an `init_*` key, a [modulation] key or [speckle]
    bandwidth_rad_s), and the window when it has fewer bins than the
    model's `min_points`.  Every given key is range-checked, also one
    whose parameter the model lacks, which it keeps accepting so that one
    init set can serve a sweep over `analysis.model`.
    """
    key_of = {name: f"[analysis] {key}" for key, (name, _) in INIT.items()}
    # fit parameter -> (its start, the key that set it)
    start = {
        "contrast": (0.5, key_of["contrast"]),
        "bandwidth": (bandwidth, "[speckle] bandwidth_rad_s"),
    }
    if modulation is not None:
        for name, (value, key) in modulation.fit_start().items():
            start[name] = (value, f"[modulation] {key}")
    for key, value in init.items():
        name, scale = INIT[key]
        start[name] = (scale * value, key_of[name])
    names = analytic.MODELS[model][1] if model != "none" else ()
    for name in (*names, *(INIT[key][0] for key in init)):
        if name not in start:
            raise ConfigError(
                f"{key_of[name]} is required for model {model} "
                "when the modulation does not define one"
            )
        (value, key), (lo, hi) = start[name], analytic.BOUNDS[name]
        if not lo <= value <= hi or value == np.inf:
            raise ConfigError(
                f"{key}: the fit start {name} = {value:g} is outside its bounds [{lo:g}, {hi:g}]"
                + (" or infinite" if value == np.inf else "")
            )
    if model == "none":
        return None
    fit = analytic.FitModel(model, tuple(start[name][0] for name in names))
    bins, needed = 2 * half_bins, fit.min_points()
    if bins < needed:
        raise ConfigError(f"[correlator] window_s gives {bins} bins; {model} needs {needed}")
    return fit


def read_raw(path) -> dict:
    """Parse the INI file into {section: {key: raw string}}."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {section: dict(parser[section]) for section in parser.sections()}


def build_config(raw: dict) -> RunConfig:
    """Validate a raw section dict and build a RunConfig."""
    for name in raw:
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")

    def section(name):
        return _parse(name, raw.get(name, {}), _SCHEMA[name])

    run = section("run")
    if run["duration_s"] < 2 * run["dt_s"]:
        raise ConfigError("[run] duration_s must cover at least two samples of dt_s")
    # detection computes sample times from float sample indices
    if run["duration_s"] / run["dt_s"] >= 2**53:
        raise ConfigError("[run] duration_s / dt_s must be below 2**53 samples")
    # so that every photon file a run writes reads back
    if not run["duration_s"] * 1e9 < TIMESTAMP_END_NS:
        raise ConfigError("[run] duration_s must be below 2**63 - 2**58 ns, the timestamp range")

    modulation = _build_modulation(raw["modulation"]) if "modulation" in raw else None

    speckle = _build("speckle", SpeckleParams, bandwidth=section("speckle")["bandwidth_rad_s"])
    # [detection]'s keys are DetectorConfig's fields
    det = section("detection")
    detection = _build("detection", DetectorConfig, **det)

    corr = section("correlator")
    window_s = corr["window_s"]
    bin_s = window_s / 500.0 if corr["bin_s"] is None else corr["bin_s"]
    half_bins = _build("correlator", histogram_geometry, bin_s, window_s, det["resolution_ns"])[1]

    ana = section("analysis")
    model = ana.pop("model")
    init = {key: value for key, value in ana.items() if value is not None}

    out = section("output")

    sweep = None
    if "sweep" in raw:
        sw = section("sweep")
        parameter = sw["parameter"]
        values = tuple(v.strip() for v in sw["values"].split(",") if v.strip())
        name, dot, key = parameter.partition(".")
        if not dot or name not in _SCHEMA:
            raise ConfigError(f"[sweep] parameter: not a section.key path: {parameter!r}")
        declared = dict(_SCHEMA[name])
        if name == "modulation" and modulation is not None:
            declared.update(_MODULATION[modulation.kind][0])
        if key not in declared:
            raise ConfigError(f"[sweep] parameter: no such key in [{name}]: {parameter!r}")
        if not values:
            raise ConfigError("[sweep] values: empty list")
        if parameter in _UNSWEPT:
            raise ConfigError(
                f"[sweep] parameter: {parameter} cannot be swept; {_UNSWEPT[parameter]}"
            )
        sweep = SweepSpec(parameter=parameter, values=values)

    return RunConfig(
        seed=run["seed"],
        duration_s=run["duration_s"],
        dt_s=run["dt_s"],
        modulation=modulation,
        speckle=speckle,
        detection=detection,
        bin_s=bin_s,
        window_s=window_s,
        fit_start=_fit_start(model, init, modulation, speckle.bandwidth, half_bins),
        analysis_init=init,
        output_format=out["format"],
        write_trace=out["write_trace"],
        out_dir=out["directory"],
        sweep=sweep,
    )


def load_config(path):
    """Read and validate a config file; returns (RunConfig, raw dict)."""
    raw = read_raw(path)
    return build_config(raw), raw


def apply_override(raw: dict, parameter: str, value: str) -> dict:
    """Return a copy of the raw config with one section.key replaced.

    Replacing `modulation.kind` also drops the [modulation] keys the new
    kind does not declare, so a sweep can compare kinds (a constant laser
    against a modulated one); an unknown kind keeps them and fails to load.
    """
    section, key = parameter.split(".", 1)
    out = {name: dict(entries) for name, entries in raw.items()}
    entries = out.setdefault(section, {})
    entries[key] = value
    if (section, key) == ("modulation", "kind") and value.strip() in _MODULATION:
        declared = _MODULATION[value.strip()][0]
        out[section] = {k: v for k, v in entries.items() if k == "kind" or k in declared}
    return out
