import dataclasses
import json

import numpy as np
import pytest

from superbunch import (
    CoincidenceHistogram,
    ConfigError,
    analytic,
    build_config,
    pipeline,
    run_pipeline,
    run_sweep,
)
from superbunch import _corr_np, _spectral, detection, signal, speckle
from superbunch.analytic import FitModel
from superbunch.config import _MODULATION, INIT
from superbunch.detection import detect_photons
from superbunch.pipeline import manifest_dict
from superbunch.seeding import substream_seed
from superbunch.signal import IntensityTrace, sample_intensity
from superbunch.speckle import apply_speckle, generate_speckle_field

from test_detection import _stream_digest  # sha256 of d1 | d2


def _raw(**overrides):
    raw = {
        "run": {"seed": "5", "duration_s": "0.5", "dt_s": "1e-6"},
        "modulation": {
            "kind": "sinusoid",
            "intensity": "1.0",
            "depth": "0.8",
            "frequency_hz": "50e3",
        },
        "speckle": {"bandwidth_rad_s": "62831.853"},
        "detection": {"rate_hz": "3e4"},
        "correlator": {"bin_s": "1e-6", "window_s": "1e-4"},
    }
    for section, entries in overrides.items():
        if section == "modulation" and "kind" in entries:
            raw[section] = dict(entries)  # keys are kind-specific; replace
        else:
            raw.setdefault(section, {}).update(entries)
    return raw


def test_run_pipeline_produces_consistent_result(tmp_path):
    cfg = build_config(_raw(analysis={"model": "sinusoid_speckle"}))
    out = tmp_path / "run"
    result = run_pipeline(cfg, out_dir=out)
    assert result.histogram.counts.sum() > 0
    assert result.curve.tau.size == result.histogram.counts.size
    assert 1.5 < result.g2_zero < 4.0
    assert result.fit is not None
    assert result.fit_g2_zero is not None
    for name in ("photons", "histogram", "g2", "manifest", "theory", "fit"):
        assert (out / {
            "photons": "photons.txt",
            "histogram": "histogram.csv",
            "g2": "g2.csv",
            "manifest": "manifest.json",
            "theory": "theory.csv",
            "fit": "fit.txt",
        }[name]).exists()


def test_manifest_reflects_config_not_runtime(tmp_path):
    cfg = build_config(_raw())
    a = run_pipeline(cfg, out_dir=tmp_path / "a", threads=1)
    b = run_pipeline(cfg, out_dir=tmp_path / "b", threads=4)
    text_a = (tmp_path / "a" / "manifest.json").read_text()
    text_b = (tmp_path / "b" / "manifest.json").read_text()
    assert text_a == text_b
    manifest = json.loads(text_a)
    assert manifest["seed"] == 5
    assert manifest["modulation"]["kind"] == "sinusoid"
    assert manifest["correlator"]["half_bins"] == a.histogram.half_bins
    assert "threads" not in text_a
    assert np.array_equal(a.stream.d1, b.stream.d1)


def test_write_trace_artifacts(tmp_path):
    raw = _raw(output={"write_trace": "yes"}, run={"duration_s": "0.01"})
    cfg = build_config(raw)
    result = run_pipeline(cfg, out_dir=tmp_path)
    assert (tmp_path / "modulation.csv").exists()
    assert (tmp_path / "speckle.csv").exists()
    data = np.loadtxt(tmp_path / "modulation.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == cfg.samples


_CHAIN_PINS = {
    "sinusoid": (
        {"run": {"duration_s": "0.2"}},
        "b182047afe8d2c087ee5ce42dd2c2bb5a01b42aafbeeacfea48340e350a259a7",
    ),
    "clipped_8bit_band_noise": (
        {
            "run": {"duration_s": "0.2"},
            "modulation": {
                "kind": "band_noise",
                "cutoff_hz": "2000",
                "clip_level": "realistic",
                "quantization_bits": "8",
            },
        },
        "3fbf0ecde366c5f2263d70400ac3181ca5cee41159791d7d758721a64706c966",
    ),
    "eom_noise": (
        {
            "run": {"duration_s": "0.2"},
            "modulation": {"kind": "eom", "waveform": "noise", "vpp": "8", "frequency_hz": "20e3"},
        },
        "b3219e9ba3701b5abb8111a199baa29e6e90c6a9fea3bf2d0ff6b3e58d785281",
    ),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_PINS))
def test_simulate_chain_is_pinned(case):
    # modulation, speckle, apply and detection end to end; a photon
    # stream, unlike a float trace, does not hinge on the last bits of
    # the FFT or libm
    overrides, digest = _CHAIN_PINS[case]
    stream = run_pipeline(build_config(_raw(**overrides))).stream
    assert stream.n1 > 1000 and stream.n2 > 1000
    assert _stream_digest(stream) == digest


# the [modulation] of every path of modulate_in_place: blocks of a
# waveform kind, the whole trace of a stochastic one
_KINDS = {
    "constant": {"kind": "constant"},
    "sinusoid": {"kind": "sinusoid", "depth": "0.9", "frequency_hz": "50e3", "phase_rad": "0.3"},
    "band_noise_clipped": {"kind": "band_noise", "cutoff_hz": "2000", "clip_level": "realistic"},
    "band_noise_8bit": {"kind": "band_noise", "cutoff_hz": "2000", "quantization_bits": "8"},
    "eom_sine": {"kind": "eom", "vpp": "8", "frequency_hz": "20e3"},
    "eom_sine_vpp0": {"kind": "eom", "vpp": "0", "frequency_hz": "20e3"},
    "eom_noise": {"kind": "eom", "waveform": "noise", "vpp": "8", "frequency_hz": "20e3"},
}
# the kinds whose intensity is at(t), evaluated here over the whole grid at once
_WAVEFORMS = {"constant", "sinusoid", "eom_sine", "eom_sine_vpp0"}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_in_place_chain_equals_the_out_of_place_product(monkeypatch, kind):
    cfg = build_config(_raw(run={"duration_s": "0.2"}, modulation=_KINDS[kind]))
    n = cfg.samples
    assert n % (1 << 16) != 0  # a partial last block
    params = dataclasses.replace(cfg.speckle, seed=substream_seed(cfg.seed, "speckle"))
    if kind in _WAVEFORMS:
        samples = cfg.modulation.at(np.arange(n) * cfg.dt_s)
        modulation = IntensityTrace(0.0, cfg.dt_s, samples, float(samples.mean()))
    else:
        modulation = sample_intensity(
            cfg.modulation, 0.0, cfg.dt_s, n, substream_seed(cfg.seed, "modulation")
        )
    want = apply_speckle(modulation, generate_speckle_field(params, 0.0, cfg.dt_s, n))
    detected = []

    def detect(joint, *args, **kwargs):
        detected.append(joint)
        return detect_photons(joint, *args, **kwargs)

    monkeypatch.setattr(pipeline, "detect_photons", detect)
    stream = run_pipeline(cfg).stream
    (joint,) = detected
    assert joint.samples.tobytes() == want.samples.tobytes()
    for name in ("t0", "dt", "mean"):
        assert getattr(joint, name) == getattr(want, name), name
    seed = substream_seed(cfg.seed, "detection")
    assert _stream_digest(stream) == _stream_digest(detect_photons(want, cfg.detection, seed))


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_write_trace_leaves_the_joint_trace_alone(tmp_path, monkeypatch, kind):
    # with write_trace the modulation's written trace is multiplied into
    # the speckle; without, the kind multiplies itself in
    cfg = build_config(_raw(run={"duration_s": "0.1"}, modulation=_KINDS[kind]))
    joints = []

    def detect(joint, *args, **kwargs):
        joints.append((joint.samples.tobytes(), joint.mean))
        return detect_photons(joint, *args, **kwargs)

    monkeypatch.setattr(pipeline, "detect_photons", detect)
    run_pipeline(cfg)
    traced = dataclasses.replace(cfg, write_trace=True)
    run_pipeline(traced, threads=2, out_dir=tmp_path)
    assert joints[0] == joints[1]


def test_write_trace_synthesizes_a_stochastic_modulation_once(tmp_path, monkeypatch):
    calls = []
    synthesize = _spectral.bandlimited_intensity

    def counted(*args, **kwargs):
        calls.append(args[0])
        return synthesize(*args, **kwargs)

    # speckle.py and signal.py hold the function by their own names
    for module in (_spectral, speckle, signal):
        monkeypatch.setattr(module, "bandlimited_intensity", counted)
    raw = _raw(
        run={"duration_s": "0.05"},
        modulation=_KINDS["band_noise_8bit"],
        output={"write_trace": "yes"},
    )
    run_pipeline(build_config(raw), out_dir=tmp_path)
    assert len(calls) == 2  # the speckle, then the modulation


def test_seed_changes_stream():
    cfg = build_config(_raw())
    a = run_pipeline(cfg)
    b = run_pipeline(dataclasses.replace(cfg, seed=6))
    assert not np.array_equal(a.stream.d1, b.stream.d1)


def test_fit_start_from_config():
    model = build_config(_raw(analysis={"model": "sinusoid_speckle"})).fit_start
    assert model.name == "sinusoid_speckle"
    contrast, mod_omega, bandwidth = model.values
    assert mod_omega == pytest.approx(2 * np.pi * 50e3)
    # depth 0.8 drive -> effective correlation parameter d^2/(2-d^2)
    assert contrast == pytest.approx(0.64 / 1.36)
    assert bandwidth == pytest.approx(62831.853)


def test_fit_start_inits_override():
    analysis = {"model": "noise_speckle", "init_cutoff_hz": "300", "init_bandwidth_rad_s": "1000"}
    model = build_config(_raw(analysis=analysis)).fit_start
    assert model == FitModel("noise_speckle", (300.0, 1000.0))


def test_fit_start_requires_frequency_for_mismatched_modulation():
    raw = _raw(analysis={"model": "sinusoid_speckle"})
    raw["modulation"] = {"kind": "constant", "intensity": "1.0"}
    with pytest.raises(ConfigError, match="init_frequency_hz"):
        build_config(raw)


# (overrides, the key the error names): a start the modulation cannot
# supply, a start outside the fit bounds, a window too narrow for the fit
_BAD_ANALYSIS = {
    "init_frequency_hz": (
        {"analysis": {"model": "sinusoid_speckle"}, "modulation": {"kind": "constant"}},
        "init_frequency_hz",
    ),
    "init_cutoff_hz": (
        {"analysis": {"model": "noise_speckle"}, "modulation": {"kind": "constant"}},
        "init_cutoff_hz",
    ),
    "init_contrast": (
        {"analysis": {"model": "sinusoid_speckle", "init_contrast": "2"}},
        "init_contrast",
    ),
    "window_s": (
        {
            "analysis": {"model": "sinusoid_speckle"},
            "correlator": {"bin_s": "1e-5", "window_s": "1.2e-4"},
        },
        "window_s",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_ANALYSIS))
def test_bad_analysis_section_fails_before_simulation(tmp_path, case):
    overrides, key = _BAD_ANALYSIS[case]
    with pytest.raises(ConfigError, match=key):
        run_pipeline(build_config(_raw(**overrides)), out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", sorted(_BAD_ANALYSIS))
def test_bad_analysis_section_fails_before_reading(tmp_path, case):
    overrides, key = _BAD_ANALYSIS[case]
    with pytest.raises(ConfigError, match=key):
        pipeline.run_analysis(build_config(_raw(**overrides)), tmp_path / "missing.txt")


def test_fit_start_speckle_only():
    assert build_config(_raw(analysis={"model": "speckle"})).fit_start.name == "speckle"
    assert build_config(_raw()).fit_start is None


@pytest.mark.parametrize("kind", sorted(_MODULATION))
def test_each_modulation_kind_builds_and_names_itself(kind):
    cfg = build_config(_raw(modulation={"kind": kind}))
    hist = CoincidenceHistogram(
        dtau_ns=1000, half_bins=10, counts=np.ones(20), n1=1, n2=1, duration_s=1.0
    )
    assert manifest_dict(cfg, hist)["modulation"]["kind"] == kind


@pytest.mark.parametrize("name", sorted(analytic.MODELS))
def test_each_fit_model_name_is_accepted(name):
    cfg = build_config(_raw(modulation={"kind": "eom"}, analysis={"model": name}))
    assert cfg.fit_start.name == name


def test_manifest_dict_is_json_clean():
    cfg = build_config(_raw(modulation={"kind": "band_noise", "intensity": "1.0",
                                        "cutoff_hz": "200", "clip_level": "realistic",
                                        "quantization_bits": "8"},
                            run={"dt_s": "1e-5", "duration_s": "1.0"}))
    result = run_pipeline(cfg)
    blob = json.dumps(manifest_dict(cfg, result.histogram), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["modulation"]["clip_level"] == 2.0
    assert parsed["modulation"]["quantization_bits"] == 8


def test_sweep_runs_points_and_records_failures(tmp_path):
    raw = _raw(
        run={"duration_s": "0.2"},
        analysis={"model": "sinusoid_speckle"},
        sweep={"parameter": "modulation.depth", "values": "0.3, 0.9, 2.0"},
    )
    cfg = build_config(raw)
    rows = run_sweep(cfg, raw, out_dir=tmp_path)
    assert len(rows) == 3
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "ok"
    assert rows[2]["status"].startswith("error:")
    assert rows[1]["g2_zero"] > rows[0]["g2_zero"]
    assert (tmp_path / "point_000" / "manifest.json").exists()
    assert (tmp_path / "point_001" / "g2.csv").exists()
    assert not (tmp_path / "point_002" / "manifest.json").exists()
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("parameter,value,status,g2_zero,g2_zero_err,fit_g2_zero")
    assert len(summary) == 4
    assert ",error:" in summary[3]


def test_sweep_propagates_programming_errors(tmp_path, monkeypatch):
    raw = _raw(sweep={"parameter": "modulation.depth", "values": "0.3, 0.9"})
    cfg = build_config(raw)

    for error in (TypeError, ValueError):

        def broken(*args, **kwargs):
            raise error("a bug, not a bad sweep point")

        monkeypatch.setattr(pipeline, "generate_speckle_field", broken)
        with pytest.raises(error, match="a bug"):
            run_sweep(cfg, raw, out_dir=tmp_path)


def test_sweep_rejects_threads_below_one_before_any_point(tmp_path):
    raw = _raw(sweep={"parameter": "modulation.depth", "values": "0.3, 0.9"})
    with pytest.raises(ValueError, match="threads"):
        run_sweep(build_config(raw), raw, out_dir=tmp_path, threads=0)
    assert not (tmp_path / "point_000").exists()


def test_sweep_points_use_distinct_seeds(tmp_path):
    raw = _raw(sweep={"parameter": "detection.rate_hz", "values": "3e4, 3e4"})
    cfg = build_config(raw)
    run_sweep(cfg, raw, out_dir=tmp_path)
    a = json.loads((tmp_path / "point_000" / "manifest.json").read_text())
    b = json.loads((tmp_path / "point_001" / "manifest.json").read_text())
    assert a["seed"] != b["seed"]
    # identical parameter values still give statistically independent runs
    pa = (tmp_path / "point_000" / "photons.txt").read_bytes()
    pb = (tmp_path / "point_001" / "photons.txt").read_bytes()
    assert pa != pb


@pytest.mark.usefixtures("many_cpus")
def test_sweep_artifacts_do_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    # a short sweep_noise_threads: 8-bit band noise swept over its clip level;
    # smaller batches, blocks and slices make two threads split every stage
    monkeypatch.setattr(_spectral, "_BATCH", 1 << 14)  # 8 speckle and 13 noise batches
    monkeypatch.setattr(detection, "_BLOCK", 1 << 16)  # 4 detection blocks
    monkeypatch.setattr(_corr_np, "_BLOCK", 1 << 12)  # a slice per 4096 D1 events
    raw = _raw(
        run={"duration_s": "2.0", "dt_s": "1e-5"},
        modulation={
            "kind": "band_noise",
            "intensity": "1.0",
            "cutoff_hz": "200",
            "clip_level": "none",
            "quantization_bits": "8",
        },
        detection={"rate_hz": "1e4"},
        correlator={"bin_s": "1e-5", "window_s": "1e-2"},
        analysis={"model": "noise_speckle"},
        output={"format": "binary"},
        sweep={"parameter": "modulation.clip_level", "values": "none, 3.0, realistic"},
    )
    cfg = build_config(raw)
    files = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        rows = run_sweep(cfg, raw, out_dir=out, threads=threads)
        assert [row["status"] for row in rows] == ["ok"] * 3
        files.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.*")})
    assert "summary.csv" in files[0] and "point_002/photons.bin" in files[0]
    assert files[0].keys() == files[1].keys()
    for name in files[0]:
        assert files[0][name] == files[1][name], name


def test_sweep_requires_sweep_section(tmp_path):
    cfg = build_config(_raw())
    with pytest.raises(ConfigError):
        run_sweep(cfg, _raw(), out_dir=tmp_path)


# The fit start of every modulation kind x fit model: the fields of
# build_config(raw).fit_start, or its ConfigError message.  With all four
# init_* keys given, the kind no longer matters.
_PIN_KINDS = {
    "constant": {"intensity": "2.0"},
    "sinusoid": {"depth": "0.8", "frequency_hz": "40e3"},
    "band_noise": {"cutoff_hz": "300"},
    "eom": {"frequency_hz": "30e3", "waveform": "noise"},
}
_PIN_INITS = {
    "init_contrast": "0.3",
    "init_frequency_hz": "45e3",
    "init_bandwidth_rad_s": "5000",
    "init_cutoff_hz": "250",
}
_NEEDS = "[analysis] {} is required for model {} when the modulation does not define one"
_NEED_FREQUENCY = _NEEDS.format("init_frequency_hz", "sinusoid_speckle")
_NEED_CUTOFF = _NEEDS.format("init_cutoff_hz", "noise_speckle")
_PIN_STARTS = {
    ("constant", "speckle"): {"bandwidth": 62831.853},
    ("constant", "sinusoid_speckle"): _NEED_FREQUENCY,
    ("constant", "noise_speckle"): _NEED_CUTOFF,
    ("sinusoid", "speckle"): {"bandwidth": 62831.853},
    ("sinusoid", "sinusoid_speckle"): {
        "contrast": 0.4705882352941178,
        "mod_omega": 251327.41228718346,
        "bandwidth": 62831.853,
    },
    ("sinusoid", "noise_speckle"): _NEED_CUTOFF,
    ("band_noise", "speckle"): {"bandwidth": 62831.853},
    ("band_noise", "sinusoid_speckle"): _NEED_FREQUENCY,
    ("band_noise", "noise_speckle"): {"cutoff_hz": 300.0, "bandwidth": 62831.853},
    ("eom", "speckle"): {"bandwidth": 62831.853},
    ("eom", "sinusoid_speckle"): {
        "contrast": 0.5,
        "mod_omega": 188495.5592153876,
        "bandwidth": 62831.853,
    },
    ("eom", "noise_speckle"): {"cutoff_hz": 30000.0, "bandwidth": 62831.853},
}
_PIN_STARTS_WITH_INITS = {
    "speckle": {"bandwidth": 5000.0},
    "sinusoid_speckle": {"contrast": 0.3, "mod_omega": 282743.3388230814, "bandwidth": 5000.0},
    "noise_speckle": {"cutoff_hz": 250.0, "bandwidth": 5000.0},
}


@pytest.mark.parametrize("with_inits", [False, True], ids=["physics", "inits"])
@pytest.mark.parametrize("model", ["none", *sorted(analytic.MODELS)])
@pytest.mark.parametrize("kind", sorted(_MODULATION))
def test_initial_model_pinned_for_every_kind_and_model(kind, model, with_inits):
    raw = {
        "modulation": {"kind": kind, **_PIN_KINDS[kind]},
        "speckle": {"bandwidth_rad_s": "62831.853"},
        "analysis": {"model": model, **(_PIN_INITS if with_inits else {})},
    }
    if model == "none":
        assert build_config(raw).fit_start is None
        return
    want = _PIN_STARTS_WITH_INITS[model] if with_inits else _PIN_STARTS[kind, model]
    if isinstance(want, str):
        with pytest.raises(ConfigError) as err:
            build_config(raw)
        assert str(err.value) == want
        return
    start = build_config(raw).fit_start
    assert start.name == model
    assert dict(zip(start.names, start.values)) == want


_FIT_PARAMETERS = {name for _, names in analytic.MODELS.values() for name in names}


@pytest.mark.parametrize("kind", sorted(_MODULATION))
def test_fit_start_names_fit_parameters(kind):
    cfg = build_config(_raw(modulation={"kind": kind}))
    assert set(cfg.modulation.fit_start()) <= _FIT_PARAMETERS


def test_each_init_key_starts_a_fit_parameter():
    assert {name for name, _ in INIT.values()} <= _FIT_PARAMETERS


@pytest.mark.parametrize("model", ["none", *sorted(analytic.MODELS)])
@pytest.mark.parametrize("key", sorted(INIT))
def test_every_init_key_is_range_checked_under_every_model(model, key):
    # a key whose parameter the model lacks is accepted, so one init set
    # serves a sweep over analysis.model, but never outside its bounds
    analysis = {"model": model, **_PIN_INITS}
    build_config(_raw(analysis=analysis))
    message = rf"^\[analysis\] {key}: the fit start .* is outside its bounds"
    with pytest.raises(ConfigError, match=message):
        build_config(_raw(analysis={**analysis, key: "-1"}))
