import functools
import json
import os

import numpy as np
import pytest

from superbunch import PhotonStream, analytic, cli, detection, pipeline, write_photon_stream
from superbunch.cli import main

CONFIG = """
[run]
seed = 3
duration_s = 0.5
dt_s = 1e-6

[modulation]
kind = sinusoid
intensity = 1.0
depth = 0.9
frequency_hz = 50e3

[speckle]
bandwidth_rad_s = 62831.853

[detection]
rate_hz = 3e4

[correlator]
bin_s = 1e-6
window_s = 1e-4

[analysis]
model = sinusoid_speckle
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def test_simulate_writes_artifacts(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    for name in ("photons.txt", "histogram.csv", "g2.csv", "manifest.json", "fit.txt", "theory.csv"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "g2(0)" in printed


def test_simulate_requires_config(capsys):
    assert main(["simulate"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_missing_modulation_exit_code(tmp_path, capsys, command):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 1\n\n[sweep]\nparameter = run.duration_s\nvalues = 1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "[modulation]" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG + "\nmystery = 1\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_bad_parameter_exit_code(tmp_path, capsys):
    # valid syntax, invalid physics: a correlator bin finer than the
    # resolution, and (with no fit to ask for more) a five-bin window;
    # both fail before synthesis, leaving the output directory unmade
    for i, text in enumerate([
        CONFIG.replace("bin_s = 1e-6", "bin_s = 0.5e-9"),
        CONFIG.replace("bin_s = 1e-6", "bin_s = 1e-5")
        .replace("window_s = 1e-4", "window_s = 5e-5")
        .replace("model = sinusoid_speckle", "model = none"),
    ]):
        path = tmp_path / f"bad{i}.ini"
        path.write_text(text)
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: [correlator]" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("rate_hz = 3e4", "rate_hz = 3e4\ndark_rate_hz = nan", "[detection] dark_rate_hz"),
        # a 50 Hz band over 0.01 s holds only DC: the noise drive is undefined
        (
            "kind = sinusoid\nintensity = 1.0\ndepth = 0.9\nfrequency_hz = 50e3",
            "kind = eom\nwaveform = noise\nfrequency_hz = 50",
            "noise drive: duration_s must be >= 0.02 s",
        ),
    ],
    ids=["nan-dark-rate", "eom-noise-band-of-dc-only"],
)
def test_bad_value_exits_2_and_writes_nothing(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.ini"
    text = CONFIG.replace("duration_s = 0.5", "duration_s = 0.01")
    assert old in text
    path.write_text(text.replace(old, new).replace("model = sinusoid_speckle", "model = none"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "modulation,message",
    [
        ("kind = sinusoid\nfrequency_hz = 50e3", "too coarse for [modulation] frequency_hz"),
        ("kind = band_noise\ncutoff_hz = 2e4", "too coarse for [modulation] cutoff_hz"),
        ("kind = eom\nfrequency_hz = 2e4", "too coarse for [modulation] frequency_hz"),
        ("kind = eom\nwaveform = noise\nfrequency_hz = 50", "noise drive: duration_s"),
    ],
    ids=["sinusoid", "band_noise", "eom", "eom-noise-duration"],
)
def test_a_bad_modulation_is_refused_before_the_speckle_is_drawn(
    tmp_path, capsys, monkeypatch, modulation, message
):
    # dt = 1e-5 s is also too coarse for a 1e6 rad/s speckle: the modulation is named
    def draw(*args):
        raise AssertionError("the speckle was drawn")

    monkeypatch.setattr(pipeline, "generate_speckle_field", draw)
    old = "kind = sinusoid\nintensity = 1.0\ndepth = 0.9\nfrequency_hz = 50e3"
    text = (
        CONFIG.replace("duration_s = 0.5", "duration_s = 0.01")
        .replace("dt_s = 1e-6", "dt_s = 1e-5")
        .replace("bandwidth_rad_s = 62831.853", "bandwidth_rad_s = 1e6")
        .replace("model = sinusoid_speckle", "model = none")
    )
    assert old in text
    path = tmp_path / "coarse.ini"
    path.write_text(text.replace(old, modulation))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not out.exists()


def test_rate_too_high_for_the_resolution_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "fast.ini"
    path.write_text(
        CONFIG.replace("duration_s = 0.5", "duration_s = 0.01")
        .replace("rate_hz = 3e4", "rate_hz = 1e6\nresolution_ns = 100")
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: peak rate") and "0.1 events per 100 ns tick" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_value_error_is_a_bug_and_not_exit_2(tmp_path, monkeypatch, command):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(pipeline, "generate_speckle_field", broken)
    path = tmp_path / "run.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2\n")
    with pytest.raises(ValueError, match="a bug"):
        main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def test_seed_flag_overrides(tmp_path, config_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["simulate", "--config", str(config_path), "--out", str(out1), "--seed", "99"])
    main(["simulate", "--config", str(config_path), "--out", str(out2), "--seed", "99"])
    main(["simulate", "--config", str(config_path), "--out", str(out3)])
    assert (out1 / "photons.txt").read_bytes() == (out2 / "photons.txt").read_bytes()
    assert (out1 / "photons.txt").read_bytes() != (out3 / "photons.txt").read_bytes()
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 99


def test_binary_format_flag(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config_path), "--out", str(out), "--format", "binary"])
    assert code == 0
    assert (out / "photons.bin").exists()
    assert not (out / "photons.txt").exists()
    blob = (out / "photons.bin").read_bytes()
    assert len(blob) % 9 == 0


def test_analyze_reproduces_simulate(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    ana = tmp_path / "ana"
    code = main([
        "analyze",
        str(out / "photons.txt"),
        "--config",
        str(config_path),
        "--duration-s",
        "0.5",
        "--out",
        str(ana),
    ])
    assert code == 0
    for name in ("g2.csv", "histogram.csv", "theory.csv", "fit.txt"):
        assert (ana / name).read_bytes() == (out / name).read_bytes(), name


def test_analyze_reproduces_simulate_when_samples_times_dt_is_inexact(tmp_path):
    # 200000 * 1e-6 = 0.19999999999999998: the simulated stream must still
    # carry the configured 0.2 s, as the analysis of its file is told
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.replace("duration_s = 0.5", "duration_s = 0.2"))
    out, ana = tmp_path / "out", tmp_path / "ana"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert main(["analyze", str(out / "photons.txt"), "--config", str(path),
                 "--duration-s", "0.2", "--out", str(ana)]) == 0
    for name in ("g2.csv", "theory.csv", "fit.txt"):
        assert (ana / name).read_bytes() == (out / name).read_bytes(), name


def test_analyze_without_config_uses_defaults(tmp_path, config_path):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    ana = tmp_path / "ana"
    code = main(["analyze", str(out / "photons.txt"), "--out", str(ana)])
    assert code == 0
    assert (ana / "g2.csv").exists()


def test_analyze_malformed_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1,100\nnot-a-record\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.txt", "missing.bin"])
def test_analyze_missing_file_exit_code(tmp_path, capsys, name):
    path = tmp_path / name
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 3
    assert f"data error: cannot read {path}: No such file or directory" in capsys.readouterr().err


@pytest.fixture(scope="module")
def short_photons(tmp_path_factory):
    """photons.txt of a 0.2 s simulate run."""
    tmp = tmp_path_factory.mktemp("short")
    path = tmp / "run.ini"
    path.write_text(CONFIG.replace("duration_s = 0.5", "duration_s = 0.2"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp / "sim")]) == 0
    return tmp / "sim" / "photons.txt"


@pytest.mark.parametrize(
    "duration,code,message",
    [
        # a duration shorter than the file silently rescales g2
        ("0.05", 3, "data error: {path}: timestamps span"),
        ("inf", 2, "config error: --duration-s must be positive and below 2**63 ns, got inf"),
        ("0", 2, "config error: --duration-s must be positive and below 2**63 ns, got 0.0"),
        ("-1", 2, "config error: --duration-s must be positive and below 2**63 ns, got -1.0"),
    ],
    ids=["shorter-than-the-file", "inf", "zero", "negative"],
)
def test_analyze_refuses_a_duration_that_cannot_hold_the_file(
    tmp_path, capsys, short_photons, duration, code, message
):
    out = tmp_path / "out"
    assert main(["analyze", str(short_photons), "--duration-s", duration, "-o", str(out)]) == code
    assert message.format(path=short_photons) in capsys.readouterr().err
    assert not out.exists()


def test_analyze_unknown_extension_exit_code(tmp_path, capsys):
    path = tmp_path / "photons.dat"
    path.write_text("1,100\n2,200\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot infer photon file format from '{path}'" in err


def test_analyze_format_flag_reads_a_file_whose_extension_names_no_format(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.replace("duration_s = 0.5", "duration_s = 0.2"))
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--format", "binary", "--out", str(sim)]) == 0
    photons = tmp_path / "photons.dat"
    photons.write_bytes((sim / "photons.bin").read_bytes())
    argv = ["analyze", str(photons), "--config", str(path), "--duration-s", "0.2"]
    ana = tmp_path / "ana"
    assert main([*argv, "--format", "binary", "--out", str(ana)]) == 0
    for name in ("g2.csv", "fit.txt"):
        assert (ana / name).read_bytes() == (sim / name).read_bytes(), name
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "inferred")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot infer photon file format from '{photons}'" in err
    assert not (tmp_path / "inferred").exists()


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_unconverged_fit_exits_4_and_writes_artifacts(
    tmp_path, config_path, monkeypatch, capsys, command
):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out", str(sim)]) == 0
    monkeypatch.setattr(analytic, "fit_g2", functools.partial(analytic.fit_g2, max_iter=1))
    out = tmp_path / "out"
    argv = ["--config", str(config_path), "--out", str(out)]
    if command == "analyze":
        argv = [str(sim / "photons.txt"), "--duration-s", "0.5"] + argv
    capsys.readouterr()
    assert main([command] + argv) == 4
    assert "fit did not converge after 1 iterations" in capsys.readouterr().out
    assert "converged: no" in (out / "fit.txt").read_text()
    for name in ("g2.csv", "histogram.csv", "theory.csv"):
        assert (out / name).stat().st_size > 0
    if command == "simulate":
        assert (out / "manifest.json").exists()
        assert (out / "photons.txt").read_bytes() == (sim / "photons.txt").read_bytes()


def test_sweep_cli(tmp_path, config_path):
    path = tmp_path / "sweep.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 1.0\n")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (out / "point_000" / "g2.csv").exists()
    assert (out / "point_001" / "g2.csv").exists()


def test_sweep_flags_are_config_overrides(tmp_path):
    # --seed and --format set [run] seed and [output] format for every point
    base = CONFIG.replace("duration_s = 0.5", "duration_s = 0.2")
    sweep = "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 1.0\n"
    flags, keys = tmp_path / "flags.ini", tmp_path / "keys.ini"
    flags.write_text(base + sweep)
    keys.write_text(base.replace("seed = 3", "seed = 7") + "\n[output]\nformat = binary\n" + sweep)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "-c", str(flags), "-o", str(a), "--seed", "7", "--format", "binary"]) == 0
    assert main(["sweep", "-c", str(keys), "-o", str(b)]) == 0
    for point in ("point_000", "point_001"):
        for name in ("photons.bin", "manifest.json"):
            assert (a / point / name).read_bytes() == (b / point / name).read_bytes(), name
    assert json.loads((a / "point_000" / "manifest.json").read_text())["output"]["format"] == "binary"


def test_sweep_cli_failed_point_exit_code(tmp_path, config_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 2.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    assert "2 points, 1 failed" in capsys.readouterr().out
    lines = (out / "summary.csv").read_text().splitlines()
    assert ",ok," in lines[1]
    assert ",error:" in lines[2]


@pytest.mark.parametrize("bin_s", ["1e-9", "1e-6"])
@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_a_window_of_too_many_bins_exits_2_and_writes_nothing(tmp_path, capsys, command, bin_s):
    # 10**10 or 10**7 bins per side: refused before the histogram is allocated
    path = tmp_path / "wide.ini"
    path.write_text(CONFIG.replace("bin_s = 1e-6\nwindow_s = 1e-4", f"bin_s = {bin_s}\nwindow_s = 10"))
    photons = tmp_path / "photons.txt"
    photons.write_text("1,100\n2,200\n")
    out = tmp_path / "out"
    args = ["simulate"] if command == "simulate" else ["analyze", str(photons)]
    assert main([*args, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [correlator] window_s must span at most 2**20 bins of bin_s" in err
    assert not out.exists()


def test_a_window_rounded_past_the_timestamp_limit_exits_2_and_writes_nothing(tmp_path, capsys):
    # 2.88e8 s asks for less than 2**58 ns, but 29 bins of 1e7 s are more;
    # with events 1 ns apart at the end of the timestamp domain, adding
    # that window to a timestamp would wrap int64 and count no pair
    path = tmp_path / "wide.ini"
    text = CONFIG.replace("bin_s = 1e-6\nwindow_s = 1e-4", "bin_s = 1e7\nwindow_s = 2.88e8")
    path.write_text(text.replace("model = sinusoid_speckle", "model = none"))
    end = detection.TIMESTAMP_END_NS
    photons = tmp_path / "photons.bin"
    stream = PhotonStream(np.array([end - 1]), np.array([end - 2]), 1, end * 1e-9)
    write_photon_stream(stream, str(photons))
    out = tmp_path / "out"
    assert main(["analyze", str(photons), "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [correlator] window_s must be shorter than 2**58 ns" in err
    assert not out.exists()


def test_a_sweep_point_of_too_many_bins_fails_alone(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    text = CONFIG.replace("duration_s = 0.5", "duration_s = 0.2")
    path.write_text(text + "\n[sweep]\nparameter = correlator.window_s\nvalues = 1e-4, 10\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    assert "2 points, 1 failed" in capsys.readouterr().out
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("correlator.window_s,1e-4,ok,")
    assert lines[2].startswith("correlator.window_s,10,error: [correlator] window_s must span")
    assert not (out / "point_001").exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep", "plot"])
def test_an_output_path_taken_by_a_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, short_photons, command, under
):
    def work(*args, **kwargs):
        raise AssertionError("work began before the output directory was made")

    monkeypatch.setattr(pipeline, "generate_speckle_field", work)
    monkeypatch.setattr(pipeline, "coincidence_histogram", work)
    path = tmp_path / "run.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2\n")
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "out" if under else taken
    argv = {
        "simulate": ["simulate", "--config", str(path)],
        "analyze": ["analyze", str(short_photons), "--duration-s", "0.2"],
        "sweep": ["sweep", "--config", str(path)],
        "plot": ["plot", str(short_photons.parent / "g2.csv")],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: cannot make output directory {out}: " in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_a_sweep_point_whose_directory_is_a_file_fails_alone(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    text = CONFIG.replace("duration_s = 0.5", "duration_s = 0.2")
    path.write_text(text + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 1.0\n")
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "point_000").write_text("kept\n")
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    assert "2 points, 1 failed" in capsys.readouterr().out
    lines = (out / "summary.csv").read_text().splitlines()
    point = out / "point_000"
    assert lines[1].startswith(f"modulation.depth,0.2,error: cannot make output directory {point}")
    assert lines[2].startswith("modulation.depth,1.0,ok,")
    assert point.read_text() == "kept\n"
    assert (out / "point_001" / "g2.csv").exists()


def test_a_grid_too_coarse_for_the_speckle_leaves_no_output(tmp_path, capsys):
    # dt = 2e-5 s suits a constant laser but not the 10 kHz speckle (dt <= 1e-5 s)
    old = "kind = sinusoid\nintensity = 1.0\ndepth = 0.9\nfrequency_hz = 50e3"
    text = (
        CONFIG.replace("duration_s = 0.5", "duration_s = 0.2")
        .replace(old, "kind = constant")
        .replace("model = sinusoid_speckle", "model = speckle")
    )
    message = "dt=2e-05 too coarse for [speckle] bandwidth_rad_s = 62831.9"
    path = tmp_path / "coarse.ini"
    path.write_text(text.replace("dt_s = 1e-6", "dt_s = 2e-5"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
    # a sweep point on that grid fails its own row and leaves no point_NNN
    path.write_text(text + "\n[sweep]\nparameter = run.dt_s\nvalues = 1e-6, 2e-5\n")
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("run.dt_s,1e-6,ok,")
    assert lines[2].startswith(f"run.dt_s,2e-5,error: {message}")
    assert (out / "point_000").is_dir() and not (out / "point_001").exists()


@pytest.mark.parametrize(
    "command,name",
    [
        ("simulate", "photons.txt"),
        ("simulate", "manifest.json"),
        ("simulate", "g2.csv"),
        ("sweep", "summary.csv"),
        ("plot", "plot.gp"),
    ],
)
def test_an_artifact_path_taken_by_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, short_photons, command, name
):
    def work(*args, **kwargs):
        raise AssertionError("work began before the artifact paths were checked")

    monkeypatch.setattr(pipeline, "generate_speckle_field", work)
    path = tmp_path / "run.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2\n")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = {
        "simulate": ["simulate", "--config", str(path)],
        "sweep": ["sweep", "--config", str(path)],
        "plot": ["plot", str(short_photons.parent / "g2.csv")],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: cannot write {out / name}: it is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [name]


def test_a_sweep_point_whose_artifact_path_is_a_directory_fails_alone(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    text = CONFIG.replace("duration_s = 0.5", "duration_s = 0.2")
    path.write_text(text + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 1.0\n")
    out = tmp_path / "sweep"
    taken = out / "point_000" / "g2.csv"
    taken.mkdir(parents=True)
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    assert "2 points, 1 failed" in capsys.readouterr().out
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith(f"modulation.depth,0.2,error: cannot write {taken}: it is a ")
    assert lines[2].startswith("modulation.depth,1.0,ok,")
    assert [p.name for p in (out / "point_000").iterdir()] == ["g2.csv"]
    assert (out / "point_001" / "g2.csv").is_file()


def test_a_malformed_config_file_exits_2_and_names_it(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseed\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_sweep_cli_modulation_kind(tmp_path):
    # a constant laser against a modulated one: the sinusoid's keys must not
    # reach the constant point
    path = tmp_path / "sweep.ini"
    text = CONFIG.replace("model = sinusoid_speckle", "model = speckle")
    path.write_text(text + "\n[sweep]\nparameter = modulation.kind\nvalues = sinusoid, constant\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("modulation.kind,sinusoid,ok,")
    assert lines[2].startswith("modulation.kind,constant,ok,")
    manifest = json.loads((out / "point_001" / "manifest.json").read_text())
    assert "constant" in json.dumps(manifest)


def test_sweep_undeclared_parameter_fails_before_any_point(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.dpeth\nvalues = 0.2, 1.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "modulation.dpeth" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "parameter,values",
    [("run.seed", "1, 2"), ("output.directory", "a, b")],
    ids=["run.seed", "output.directory"],
)
def test_sweep_over_run_seed_fails_before_any_point(tmp_path, capsys, parameter, values):
    # points take derived seeds and write to point_NNN, so a swept run.seed
    # or output.directory would be ignored
    path = tmp_path / "sweep.ini"
    path.write_text(CONFIG + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: [sweep] parameter: {parameter} cannot be swept" in err
    assert not out.exists()
    assert not (tmp_path / "a").exists()


def test_sweep_with_a_bad_base_fit_start_fails_before_any_point(tmp_path, capsys):
    # the fit start is part of the config, so the base config's is checked too
    path = tmp_path / "sweep.ini"
    text = CONFIG.replace("model = sinusoid_speckle", "model = sinusoid_speckle\ninit_contrast = 2")
    path.write_text(text + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 1.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [analysis] init_contrast: the fit start contrast = 2 is outside" in err
    assert not out.exists()  # no point_000, no summary.csv


def test_init_key_of_a_parameter_the_model_lacks_is_range_checked(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.replace("sinusoid_speckle", "sinusoid_speckle\ninit_cutoff_hz = -1"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [analysis] init_cutoff_hz: the fit start cutoff_hz = -1 is outside" in err
    assert not out.exists()


def test_sweep_requires_section(config_path, tmp_path):
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 2


def test_plot_emits_gnuplot_script(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    plot_dir = tmp_path / "plots"
    code = main([
        "plot",
        str(out / "g2.csv"),
        "--theory",
        str(out / "theory.csv"),
        "--out",
        str(plot_dir),
    ])
    assert code == 0
    script = (plot_dir / "plot.gp").read_text()
    assert "$data << EOD" in script
    assert "$theory << EOD" in script
    assert "yerrorbars" in script
    assert "with lines" in script
    # inline data parses as numbers
    block = script.split("$data << EOD\n", 1)[1].split("EOD", 1)[0]
    line = block.splitlines()[0]
    assert len([float(x) for x in line.split()]) == 3


def test_plot_without_stderr_column(tmp_path):
    data = tmp_path / "g2.csv"
    data.write_text("tau_s,g2\n-1e-6,1.9\n1e-6,2.1\n")
    code = main(["plot", str(data), "--out", str(tmp_path)])
    assert code == 0
    script = (tmp_path / "plot.gp").read_text()
    assert "yerrorbars" not in script
    assert "with points" in script


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    data = tmp_path / "g2.csv"
    data.write_text("wrong,header\n1,2\n")
    assert main(["plot", str(data), "--out", str(tmp_path)]) == 3
    for text, message in [
        ("tau_s,g2\n# comment\n1,2\nx,3\n", "line 4: malformed record"),
        ("tau_s,g2\n\n1\n2\n", "line 3: expected at least 2 columns, found 1"),
    ]:
        data.write_text(text)
        capsys.readouterr()
        assert main(["plot", str(data), "--out", str(tmp_path)]) == 3
        assert f"data error: {data}: {message}" in capsys.readouterr().err


def test_threads_validation(config_path, capsys):
    assert main(["simulate", "--config", str(config_path), "--threads", "0"]) == 2


def _broad_peak_file(tmp_path, spread_ns):
    # D2 echoes D1 with a uniform delay in +-spread_ns, over a sparse
    # uncorrelated background
    rng = np.random.default_rng(5)
    d1 = np.sort(rng.integers(spread_ns, 10**11 - spread_ns, 20_000))
    d2 = np.sort(d1 + rng.integers(-spread_ns, spread_ns + 1, d1.size))
    path = tmp_path / "photons.bin"
    write_photon_stream(PhotonStream(d1, d2, 1, 100.0), path)
    return path


@pytest.mark.parametrize("spread_ns,warned", [(300_000, True), (3_000, False)])
def test_analyze_warns_when_background_unresolved(tmp_path, capsys, spread_ns, warned):
    # the default window is 500 us: a 300 us wide peak leaves no plateau
    path = _broad_peak_file(tmp_path, spread_ns)
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--duration-s", "100", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert ("warning: background unresolved" in err) == warned
    assert sorted(p.name for p in out.iterdir()) == ["g2.csv", "histogram.csv"]


@pytest.fixture()
def declared(monkeypatch):
    """Output directory -> the artifacts its command first declared to make_out_dir."""
    first = {}
    make_out_dir = pipeline.make_out_dir

    def record(path, files):
        first.setdefault(os.path.abspath(path), set(files))
        make_out_dir(path, files)

    monkeypatch.setattr(pipeline, "make_out_dir", record)
    monkeypatch.setattr(cli, "make_out_dir", record)
    return first


def _assert_only_declared_artifacts(declared):
    # the declaration is what refuses an artifact path that a directory
    # takes before any work: a file it misses fails only after the work
    assert declared
    for path, files in declared.items():
        left = {entry.name for entry in os.scandir(path) if entry.path not in declared}
        assert left == files, path


@pytest.mark.parametrize("model", ["sinusoid_speckle", "none"])
@pytest.mark.parametrize("trace", ["yes", "no"])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_simulate_leaves_only_the_artifacts_it_declared(tmp_path, declared, fmt, trace, model):
    path = tmp_path / "run.ini"
    path.write_text(
        CONFIG.replace("duration_s = 0.5", "duration_s = 0.1")
        .replace("model = sinusoid_speckle", f"model = {model}")
        + f"\n[output]\nwrite_trace = {trace}\n"
    )
    argv = ["simulate", "--config", str(path), "--format", fmt, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    _assert_only_declared_artifacts(declared)


@pytest.mark.parametrize("model", ["sinusoid_speckle", "none"])
def test_analyze_leaves_only_the_artifacts_it_declared(tmp_path, declared, short_photons, model):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.replace("model = sinusoid_speckle", f"model = {model}"))
    argv = ["analyze", str(short_photons), "--config", str(path), "--duration-s", "0.2"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    _assert_only_declared_artifacts(declared)


def test_sweep_and_plot_leave_only_the_artifacts_they_declared(tmp_path, declared):
    path = tmp_path / "sweep.ini"
    path.write_text(
        CONFIG.replace("duration_s = 0.5", "duration_s = 0.1")
        + "\n[sweep]\nparameter = analysis.model\nvalues = sinusoid_speckle, none\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    point = out / "point_000"
    argv = ["plot", str(point / "g2.csv"), "--theory", str(point / "theory.csv")]
    assert main([*argv, "--out", str(tmp_path / "plot")]) == 0
    dirs = {os.path.basename(path) for path in declared}
    assert dirs == {"sweep", "point_000", "point_001", "plot"}
    _assert_only_declared_artifacts(declared)


def test_analyze_names_a_background_it_never_measured(tmp_path, capsys):
    # two close pairs, and outer bins of the 1 us window that stay empty
    path = tmp_path / "photons.txt"
    path.write_text("1,100\n2,150\n1,5000\n2,5200\n")
    config = tmp_path / "run.ini"
    config.write_text("[correlator]\nbin_s = 1e-8\nwindow_s = 1e-6\n")
    argv = ["analyze", str(path), "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "peak/background = inf" in captured.out
    assert captured.err == f"warning: {pipeline.WARNINGS['background-empty']}\n"
    assert "no coincidences" in captured.err


def test_simulate_reports_unidentified_parameter_and_exits_zero(tmp_path, capsys):
    # an unmodulated run ends the sinusoid fit on contrast 0, where the
    # drive frequency drops out of the curve: only its sigma is unknown
    # (about half the seeds end there; this one does)
    path = tmp_path / "flat.ini"
    path.write_text(
        CONFIG.replace("depth = 0.9", "depth = 0")
        .replace("bin_s = 1e-6", "bin_s = 0.5e-6")
        .replace("window_s = 1e-4", "window_s = 2.5e-4")
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    fit = dict(line.split(",", 1) for line in (out / "fit.txt").read_text().splitlines()[6:])
    assert fit["contrast"].startswith("0.0,")
    assert fit["mod_omega"].endswith(",inf")
    for name in ("contrast", "bandwidth", "amplitude", "offset"):
        assert np.isfinite(float(fit[name].split(",")[1])), name
    assert "converged: yes" in (out / "fit.txt").read_text()


NOISE_CONFIG = """
[run]
seed = 4
duration_s = {duration}
dt_s = 1e-5

[modulation]
kind = band_noise
cutoff_hz = 200

[detection]
rate_hz = 5e4
"""


@pytest.mark.parametrize("duration,warned", [(0.02, True), (0.1, False)])
def test_simulate_warns_on_short_noise_trace(tmp_path, capsys, duration, warned):
    # ten correlation times of a 200 Hz band take 0.05 s
    path = tmp_path / "noise.ini"
    path.write_text(NOISE_CONFIG.format(duration=duration))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert ("warning: short trace" in err) == warned
    assert sorted(p.name for p in out.iterdir()) == [
        "g2.csv",
        "histogram.csv",
        "manifest.json",
        "photons.txt",
    ]


@pytest.mark.parametrize("duration,warned", [(0.262147, True), (0.262144, False)])
def test_simulate_warns_on_a_slow_synthesis_sample_count(tmp_path, capsys, duration, warned):
    # 262147 samples, a prime above one synthesis batch, slow both the
    # speckle's and the noise's synthesis: the warning is given once
    path = tmp_path / "noise.ini"
    path.write_text(
        NOISE_CONFIG.format(duration=duration)
        .replace("dt_s = 1e-5", "dt_s = 1e-6")
        .replace("rate_hz = 5e4", "rate_hz = 1e3")
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("warning: slow synthesis") == warned
    assert not warned or "[run] duration_s" in err


def test_sweep_cli_analysis_model(tmp_path, capsys):
    # each point fits its own model: the fit columns are the union of the
    # points' parameters, blank where a point's model has no such parameter
    path = tmp_path / "sweep.ini"
    path.write_text(
        CONFIG.replace("duration_s = 0.5", "duration_s = 0.2")
        + "\n[sweep]\nparameter = analysis.model\nvalues = sinusoid_speckle, speckle, none\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
    assert [row[1] for row in rows] == ["sinusoid_speckle", "speckle", "none"]
    assert all(row[2] == "ok" and len(row) == len(header) for row in rows)
    cells = [dict(zip(header, row)) for row in rows]
    assert cells[0]["contrast"] and cells[0]["bandwidth"]
    assert cells[1]["contrast"] == "" and cells[1]["bandwidth"]
    assert cells[2]["bandwidth"] == "" and cells[2]["fit_g2_zero"] == ""


def test_sweep_cli_warns_for_each_point(tmp_path, capsys):
    path = tmp_path / "noise.ini"
    path.write_text(
        NOISE_CONFIG.format(duration=0.02)
        + "\n[sweep]\nparameter = run.duration_s\nvalues = 0.02, 0.03\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: point_000: short trace:" in err
    assert "warning: point_001: short trace:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["plot", "g2.csv", "--config", "run.ini"],
        ["plot", "g2.csv", "--seed", "1"],
        ["plot", "g2.csv", "--threads", "2"],
        ["plot", "g2.csv", "--format", "text"],
        ["analyze", "photons.txt", "--seed", "1"],
    ],
    ids=["plot-config", "plot-seed", "plot-threads", "plot-format", "analyze-seed"],
)
def test_flags_without_effect_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
