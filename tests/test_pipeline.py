import dataclasses
import json

import numpy as np
import pytest

from superbunch import ConfigError, build_config, pipeline, run_pipeline, run_sweep
from superbunch.analytic import NoiseSpeckle, SinusoidSpeckle, SpeckleOnly
from superbunch.pipeline import initial_model, manifest_dict


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


def test_seed_changes_stream():
    cfg = build_config(_raw())
    a = run_pipeline(cfg)
    b = run_pipeline(dataclasses.replace(cfg, seed=6))
    assert not np.array_equal(a.stream.d1, b.stream.d1)


def test_initial_model_from_config():
    cfg = build_config(_raw(analysis={"model": "sinusoid_speckle"}))
    model = initial_model(cfg)
    assert isinstance(model, SinusoidSpeckle)
    assert model.mod_omega == pytest.approx(2 * np.pi * 50e3)
    # depth 0.8 drive -> effective correlation parameter d^2/(2-d^2)
    assert model.contrast == pytest.approx(0.64 / 1.36)
    assert model.bandwidth == pytest.approx(62831.853)


def test_initial_model_inits_override():
    cfg = build_config(
        _raw(analysis={"model": "noise_speckle", "init_cutoff_hz": "300", "init_bandwidth_rad_s": "1000"})
    )
    model = initial_model(cfg)
    assert isinstance(model, NoiseSpeckle)
    assert model.cutoff_hz == 300.0
    assert model.bandwidth == 1000.0


def test_initial_model_requires_frequency_for_mismatched_modulation():
    raw = _raw(analysis={"model": "sinusoid_speckle"})
    raw["modulation"] = {"kind": "constant", "intensity": "1.0"}
    cfg = build_config(raw)
    with pytest.raises(ConfigError, match="init_frequency_hz"):
        initial_model(cfg)


def test_initial_model_speckle_only():
    cfg = build_config(_raw(analysis={"model": "speckle"}))
    assert isinstance(initial_model(cfg), SpeckleOnly)
    cfg2 = build_config(_raw())
    assert initial_model(cfg2) is None


def test_manifest_dict_is_json_clean():
    cfg = build_config(_raw(modulation={"kind": "band_noise", "intensity": "1.0",
                                        "cutoff_hz": "200", "clip_level": "realistic",
                                        "quantization_bits": "8"},
                            run={"dt_s": "1e-5", "duration_s": "1.0"}))
    result = run_pipeline(cfg)
    blob = json.dumps(manifest_dict(cfg, result.histogram, "text"), sort_keys=True)
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

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a bad sweep point")

    monkeypatch.setattr(pipeline, "run_pipeline", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(cfg, raw, out_dir=tmp_path)


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


def test_sweep_requires_sweep_section(tmp_path):
    cfg = build_config(_raw())
    with pytest.raises(ConfigError):
        run_sweep(cfg, _raw(), out_dir=tmp_path)
