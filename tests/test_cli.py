import json

import numpy as np
import pytest

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


def test_unknown_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG + "\nmystery = 1\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_bad_parameter_exit_code(tmp_path, capsys):
    # valid syntax, invalid physics: correlator bin finer than the resolution
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace("bin_s = 1e-6", "bin_s = 0.5e-9"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


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


def test_sweep_cli_failed_point_exit_code(tmp_path, config_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(CONFIG + "\n[sweep]\nparameter = modulation.depth\nvalues = 0.2, 2.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    assert "2 points, 1 failed" in capsys.readouterr().out
    lines = (out / "summary.csv").read_text().splitlines()
    assert ",ok," in lines[1]
    assert ",error:" in lines[2]


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


def test_threads_validation(config_path, capsys):
    assert main(["simulate", "--config", str(config_path), "--threads", "0"]) == 2
