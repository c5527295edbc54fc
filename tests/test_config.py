import re
from pathlib import Path

import numpy as np
import pytest

from superbunch import ConfigError, DetectorConfig, SpeckleParams, load_config, run_pipeline
from superbunch.config import _MODULATION, _SCHEMA, apply_override, build_config, read_raw
from superbunch.signal import BandNoise, Constant, EomDrive, Sinusoid

FULL = """
[run]
seed = 42
duration_s = 2.0
dt_s = 1e-6

[modulation]
kind = sinusoid
intensity = 1.5
depth = 0.8
frequency_hz = 50e3
phase_rad = 0.1

[speckle]
bandwidth_rad_s = 62831.853

[detection]
rate_hz = 3e4
resolution_ns = 2
dark_rate_hz = 10

[correlator]
bin_s = 1e-6
window_s = 5e-4

[analysis]
model = sinusoid_speckle
init_contrast = 0.6

[output]
directory = results
format = binary
write_trace = yes
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_full_config_parses(tmp_path):
    cfg, raw = load_config(_write(tmp_path, FULL))
    assert cfg.seed == 42
    assert cfg.duration_s == 2.0
    assert cfg.dt_s == 1e-6
    assert isinstance(cfg.modulation, Sinusoid)
    assert cfg.modulation.depth == 0.8
    assert cfg.modulation.omega == pytest.approx(2 * np.pi * 50e3)
    assert cfg.speckle.bandwidth_rad_s == pytest.approx(62831.853)
    assert cfg.detection.rate_hz == 3e4
    assert cfg.detection.resolution_ns == 2
    assert cfg.detection.dark_rate_hz == 10
    assert cfg.bin_s == 1e-6
    assert cfg.window_s == 5e-4
    assert cfg.fit_start.name == "sinusoid_speckle"
    assert cfg.analysis_init == {"init_contrast": 0.6}
    assert cfg.output_format == "binary"
    assert cfg.out_dir == "results"
    assert cfg.write_trace is True
    assert raw["modulation"]["kind"] == "sinusoid"


def test_defaults(tmp_path):
    cfg, _ = load_config(_write(tmp_path, "[modulation]\nkind = constant\n"))
    assert cfg.seed == 0
    assert cfg.duration_s == 100.0
    assert cfg.dt_s == 1e-5
    assert cfg.window_s == 5e-4
    assert cfg.bin_s == pytest.approx(5e-4 / 500)
    assert cfg.fit_start is None
    assert cfg.output_format == "text"
    assert cfg.detection.rate_hz == 50e3


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="wibble"):
        load_config(_write(tmp_path, FULL + "\n[wibble]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(_write(tmp_path, FULL + "\ntypo_key = 3\n"))
    # no speckle gain: detection divides each trace by its own mean
    with pytest.raises(ConfigError, match=r"\[speckle\] unknown key 'gain'"):
        build_config({"speckle": {"gain": "2.0"}})


def test_key_wrong_for_modulation_kind(tmp_path):
    text = FULL.replace("kind = sinusoid", "kind = constant")
    with pytest.raises(ConfigError, match="depth"):
        load_config(_write(tmp_path, text))


def test_bad_number_names_key(tmp_path):
    with pytest.raises(ConfigError, match="duration_s"):
        load_config(_write(tmp_path, FULL.replace("duration_s = 2.0", "duration_s = soon")))


def _number_keys():
    """(section, modulation kind or None, key) of every key that reads '1.5' as a float."""
    tables = [(section, None, keys) for section, keys in _SCHEMA.items()]
    tables += [("modulation", kind, keys) for kind, (keys, _) in _MODULATION.items()]
    for section, kind, keys in tables:
        for key, (parse, _) in keys.items():
            try:
                value = parse("1.5")
            except ValueError:
                continue
            if isinstance(value, float):
                yield section, kind, key


_NUMBER_KEYS = list(_number_keys())


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section,kind,key", _NUMBER_KEYS, ids=[f"{k or s}.{key}" for s, k, key in _NUMBER_KEYS]
)
def test_number_keys_must_be_finite(section, kind, key, text):
    raw = {section: {key: text}}
    if kind is not None:
        raw[section]["kind"] = kind
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: not a finite number: '{text}'"):
        build_config(raw)


def test_missing_required_section(tmp_path):
    cfg, _ = load_config(_write(tmp_path, "[run]\nseed = 1\n"))
    assert cfg.modulation is None  # analysis needs no modulation
    with pytest.raises(ConfigError, match="modulation"):
        run_pipeline(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_band_noise_clip_levels(tmp_path):
    base = """
[modulation]
kind = band_noise
intensity = 2.0
cutoff_hz = 200
clip_level = {clip}
quantization_bits = {bits}
"""
    cfg, _ = load_config(_write(tmp_path, base.format(clip="realistic", bits="8")))
    assert isinstance(cfg.modulation, BandNoise)
    assert cfg.modulation.clip_level == 4.0  # twice the mean
    assert cfg.modulation.quantization_bits == 8
    cfg, _ = load_config(_write(tmp_path, base.format(clip="none", bits="none"), "b.ini"))
    assert cfg.modulation.clip_level is None
    assert cfg.modulation.quantization_bits is None
    cfg, _ = load_config(_write(tmp_path, base.format(clip="3.5", bits="none"), "c.ini"))
    assert cfg.modulation.clip_level == 3.5
    with pytest.raises(ConfigError, match="clip_level"):
        load_config(_write(tmp_path, base.format(clip="sometimes", bits="none"), "d.ini"))


def test_eom_modulation(tmp_path):
    text = """
[modulation]
kind = eom
waveform = noise
vpp = 7.5
frequency_hz = 50e3
"""
    cfg, _ = load_config(_write(tmp_path, text))
    assert isinstance(cfg.modulation, EomDrive)
    assert cfg.modulation.vpp == 7.5
    assert cfg.modulation.waveform == "noise"


def test_model_value_errors_become_config_errors(tmp_path):
    for old, new, match in [
        ("depth = 0.8", "depth = 1.4", "depth"),
        ("rate_hz = 3e4", "rate_hz = -1", "rate"),
        ("duration_s = 2.0", "duration_s = 0", r"\[run\] duration_s: not a positive number: '0'"),
        ("dt_s = 1e-6", "dt_s = -1e-6", r"\[run\] dt_s: not a positive number: '-1e-6'"),
        ("duration_s = 2.0", "duration_s = 1.5e-6", "at least two samples of dt_s"),
        ("duration_s = 2.0", "duration_s = 1e300", r"\[run\] duration_s / dt_s must be below"),
        ("dark_rate_hz = 10", "dark_rate_hz = 1e300", r"\[detection\] dark_rate_hz must lie"),
        ("window_s = 5e-4", "window_s = 1e300", r"\[correlator\] window_s must be shorter than"),
        ("bin_s = 1e-6", "bin_s = 0", r"\[correlator\] bin_s: not a positive number: '0'"),
        ("window_s = 5e-4", "window_s = -5e-4", r"\[correlator\] window_s: not a positive number"),
        # the correlator's own bin rules, checked before any work
        (
            "bin_s = 1e-6\nwindow_s = 5e-4",
            "bin_s = 1e-5\nwindow_s = 5e-5",
            r"\[correlator\] window_s must span at least ten bins of bin_s",
        ),
        ("bin_s = 1e-6", "bin_s = 1e-9", r"\[correlator\] bin_s must not be below"),
        # 10**7 bins per side: a histogram too large to allocate
        ("window_s = 5e-4", "window_s = 10", r"\[correlator\] window_s must span at most 2\*\*20"),
    ]:
        assert old in FULL
        with pytest.raises(ConfigError, match=match):
            load_config(_write(tmp_path, FULL.replace(old, new)))


def test_duration_must_end_inside_the_timestamp_range():
    # photon files hold timestamps below 2**63 - 2**58 ns, about 8.94e9 s
    build_config({"run": {"duration_s": "8.9e9", "dt_s": "10"}})
    message = r"^\[run\] duration_s must be below 2\*\*63 - 2\*\*58 ns"
    with pytest.raises(ConfigError, match=message):
        build_config({"run": {"duration_s": "9e9", "dt_s": "10"}})


def test_sweep_section(tmp_path):
    text = FULL + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 0.5, 1.0\n"
    cfg, raw = load_config(_write(tmp_path, text))
    assert cfg.sweep.parameter == "modulation.depth"
    assert cfg.sweep.values == ("0.2", "0.5", "1.0")
    out = apply_override(raw, "modulation.depth", "0.5")
    assert out["modulation"]["depth"] == "0.5"
    assert raw["modulation"]["depth"] == "0.8"  # original untouched


def test_kind_override_drops_keys_the_new_kind_does_not_declare(tmp_path):
    # a constant laser gives no mod_omega start, so fit no sinusoid
    raw = read_raw(_write(tmp_path, FULL.replace("model = sinusoid_speckle", "model = speckle")))
    out = apply_override(raw, "modulation.kind", " constant ")
    assert out["modulation"] == {"kind": " constant ", "intensity": "1.5"}
    assert build_config(out).modulation.kind == "constant"
    assert "depth" in raw["modulation"]  # original untouched
    # an unknown kind keeps every key and is rejected by name
    bad = apply_override(raw, "modulation.kind", "laser")
    assert bad["modulation"]["depth"] == "0.8"
    with pytest.raises(ConfigError, match="laser"):
        build_config(bad)


def test_sweep_validation(tmp_path):
    with pytest.raises(ConfigError, match="parameter"):
        load_config(_write(tmp_path, FULL + "\n[sweep]\nparameter = nodots\nvalues = 1\n"))
    with pytest.raises(ConfigError, match="values"):
        load_config(_write(tmp_path, FULL + "\n[sweep]\nparameter = run.seed\nvalues = ,\n"))
    with pytest.raises(ConfigError, match=re.escape("[sweep] missing required key 'values'")):
        load_config(_write(tmp_path, FULL + "\n[sweep]\nparameter = modulation.depth\n"))


@pytest.mark.parametrize(
    "parameter", ["run.seed", "output.directory", "sweep.parameter", "sweep.values"]
)
def test_a_key_no_point_runs_with_cannot_be_swept(tmp_path, parameter):
    # points take derived seeds, write to point_NNN and run without [sweep]
    text = FULL + f"\n[sweep]\nparameter = {parameter}\nvalues = 1, 2\n"
    message = f"[sweep] parameter: {parameter} cannot be swept; "
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(_write(tmp_path, text))


_MODELS = {cls.kind: cls for cls in (Constant, Sinusoid, BandNoise, EomDrive)}


@pytest.mark.parametrize("kind", sorted(_MODULATION))
def test_each_modulation_default_is_its_models_default(kind):
    # a default declared in one place only shows up here
    assert build_config({"modulation": {"kind": kind}}).modulation == _MODELS[kind]()


def test_the_speckle_and_detection_defaults_are_their_models_defaults():
    cfg = build_config({})
    assert cfg.speckle == SpeckleParams()
    assert cfg.detection == DetectorConfig()


def test_analysis_model_choices(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        load_config(_write(tmp_path, FULL.replace("model = sinusoid_speckle", "model = parabola")))


def test_bool_parsing(tmp_path):
    with pytest.raises(ConfigError, match="write_trace"):
        load_config(_write(tmp_path, FULL.replace("write_trace = yes", "write_trace = maybe")))


def test_empty_config_defaults():
    cfg = build_config({})
    assert cfg.seed == 0
    assert cfg.window_s == 5e-4


@pytest.mark.parametrize(
    "parameter",
    ["modulation.dpeth", "modulation.cutoff_hz", "run.sed", "analysis.init_depth"],
)
def test_sweep_parameter_must_name_a_declared_key(tmp_path, parameter):
    text = FULL + f"\n[sweep]\nparameter = {parameter}\nvalues = 1, 2\n"
    with pytest.raises(ConfigError, match=re.escape(parameter)):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("parameter", ["modulation.kind", "run.duration_s"])
def test_sweep_parameter_declared_keys_accepted(tmp_path, parameter):
    text = FULL + f"\n[sweep]\nparameter = {parameter}\nvalues = 1\n"
    cfg, _ = load_config(_write(tmp_path, text))
    assert cfg.sweep.parameter == parameter


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    raw = apply_override(read_raw(_write(tmp_path, block)), "run.duration_s", "0.2")
    result = run_pipeline(build_config(raw))
    assert 2.5 < result.g2_zero < 3.5
    assert result.fit is not None and result.fit.converged
