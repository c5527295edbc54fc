"""The byte-identity audit, tools/identity.py: its matrix holds the benchmark's own
workload configs, runs every modulation kind and fit model and dark counts, and it
keeps working on one tiny config."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"

# 0.02 s of 8-bit band noise with its traces written, and a two-point sweep
TINY_SECTIONS = {
    "run": {"duration_s": "0.02", "dt_s": "1e-6"},
    "modulation": {"kind": "band_noise", "cutoff_hz": "2000", "quantization_bits": "8"},
    "detection": {"rate_hz": "3e4"},
    "correlator": {"bin_s": "1e-5", "window_s": "1e-3"},
    "analysis": {"model": "noise_speckle"},
    "output": {"write_trace": "yes"},
    "sweep": {"parameter": "modulation.clip_level", "values": "none, 3.0"},
}


def _identity():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_workload_configs_are_the_benchmarks_own(monkeypatch):
    identity = _identity()
    spec = importlib.util.spec_from_file_location("perfbench_workloads", identity.WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert names
    for name in names:
        assert identity.CONFIGS[name] == workloads.WORKLOADS[name].sections, name


def _run_values(sections: dict, section: str, key: str) -> set:
    """The values of `section.key` that a config's runs take, its sweep's included."""
    values = {sections.get(section, {}).get(key)}
    sweep = sections.get("sweep", {})
    if sweep.get("parameter") == f"{section}.{key}":
        values |= {value.strip() for value in sweep["values"].split(",")}
    return values


def test_the_matrix_runs_every_modulation_kind_and_fit_model():
    from superbunch import analytic, config

    configs = _identity().CONFIGS.values()
    models = set().union(*(_run_values(c, "analysis", "model") for c in configs))
    kinds = set().union(*(_run_values(c, "modulation", "kind") for c in configs))
    assert {"none", *analytic.MODELS} <= models
    assert set(config._MODULATION) <= kinds
    # and dark counts at a tick coarser than 1 ns, in one config
    detection = [config.build_config(c).detection for c in configs]
    assert any(d.dark_rate_hz > 0 and d.resolution_ns > 1 for d in detection)


def test_tiny_config_gives_the_same_bytes_at_every_j_and_format(tmp_path):
    # the commands run as CLI subprocesses, as in the fixed matrix
    identity = _identity()
    lines = identity.run_matrix(identity.ROOT, tmp_path, {"tiny": TINY_SECTIONS})
    assert identity.check(lines) == []
    runs = {"/".join(key.split("/")[:3]) for key in lines}
    assert runs == {f"tiny/s{s}/j{j}" for s in (1000, 1001) for j in (1, 2, 64)}
    for run in runs:
        commands = {key.split("/")[3] for key in lines if key.startswith(run + "/")}
        assert commands == {
            "simulate-text", "simulate-binary", "analyze-text", "analyze-binary", "sweep"
        }
        for command in commands:
            assert lines[f"{run}/{command}/<exit>"] == "0"
        for name in ("photons.txt", "manifest.json", "modulation.csv", "speckle.csv"):
            assert f"{run}/simulate-text/{name}" in lines
        for point in ("point_000", "point_001"):
            assert f"{run}/sweep/{point}/photons.txt" in lines
        assert f"{run}/sweep/summary.csv" in lines
    # the two seeds draw different photons
    assert lines["tiny/s1000/j1/simulate-text/photons.txt"] != (
        lines["tiny/s1001/j1/simulate-text/photons.txt"]
    )


def test_check_and_diff_name_what_differs():
    identity = _identity()
    lines = {}
    for j in ("j1", "j2"):
        for command in ("simulate-text", "analyze-text"):
            lines[f"c/s1/{j}/{command}/g2.csv"] = "a"
            lines[f"c/s1/{j}/{command}/<exit>"] = "0"
    assert identity.check(lines) == []
    moved = dict(lines, **{"c/s1/j2/simulate-text/<exit>": "4"})
    assert identity.check(moved) == [
        "c/s1/j2/simulate-text/<exit>: exits 4",
        "c/s1/*/simulate-text/<exit>: differs across -j: {'j1': '0', 'j2': '4'}",
    ]
    # a command that fails the same way at every -j
    failed = {k: ("4" if k.endswith("simulate-text/<exit>") else v) for k, v in lines.items()}
    assert identity.check(failed) == [
        "c/s1/j1/simulate-text/<exit>: exits 4",
        "c/s1/j2/simulate-text/<exit>: exits 4",
    ]
    # a file that one -j leaves and another does not
    extra = dict(lines, **{"c/s1/j1/simulate-text/fit.txt": "f"})
    assert identity.check(extra) == ["c/s1/*/simulate-text/fit.txt: differs across -j: {'j1': 'f'}"]
    # one command's analysis differs from the others' of its run, at both j
    formats = {k: ("b" if k.endswith("analyze-text/g2.csv") else v) for k, v in lines.items()}
    faults = identity.check(formats)
    assert [f.split(":")[0] for f in faults] == ["c/s1/j1/*/g2.csv", "c/s1/j2/*/g2.csv"]
    assert identity.diff(lines, moved) == ["c/s1/j2/simulate-text/<exit>"]
    assert identity.diff(extra, lines) == ["c/s1/j1/simulate-text/fit.txt"]


def test_tally_counts_the_differing_lines_by_file_name():
    identity = _identity()
    keys = [
        "noise/s1000/j1/simulate-text/manifest.json",
        "noise/s1000/j2/simulate-binary/manifest.json",
        "thermal/s1001/j1/sweep/point_002/manifest.json",
        "thermal/s1001/j1/sweep/<stdout>",
        "noise/s1000/j1/simulate-text/fit.txt",
    ]
    assert identity.tally(keys) == {"<stdout>": 1, "fit.txt": 1, "manifest.json": 3}
    assert identity.tally([]) == {}
