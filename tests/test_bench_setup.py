"""The benchmark's set-up path runs the package's synthesis and detection.

perfbench/workloads.py `prepare` builds the analyze workload's photon
file by the out-of-place chain: `sample_intensity`, `generate_speckle_field`
and `apply_speckle`, the only caller of the last.  `run_pipeline` forms the
same light in place (`modulate_in_place`), so the file `prepare` writes is
checked here against the one `run_pipeline` writes from the same config:
this is what ties the benchmark's input to the pipeline's light.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_prepare_writes_the_analyze_input(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    record = workloads.prepare(workloads.WORKLOADS["analyze_dense_binary"], 1, tmp_path)
    assert record["events"] > 0
    # binary records are 9 bytes: uint64 timestamp and uint8 channel
    assert record["bytes"] == 9 * record["events"]


def test_prepare_writes_the_pipelines_photons(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    work = tmp_path / "work"
    workloads.prepare(workloads.WORKLOADS["analyze_dense_binary"], 1, work)
    cfg, _ = workloads.load(work)
    result = workloads.pipeline.run_pipeline(cfg, out_dir=tmp_path / "run")
    photons = Path(result.paths["photons"])
    assert photons.name == workloads.photon_path(work).name
    assert photons.read_bytes() == workloads.photon_path(work).read_bytes()
