"""The benchmark's set-up path runs the package's synthesis and detection.

perfbench/workloads.py `prepare` builds the analyze workload's photon
file with the same calls `run_pipeline` makes; it is the only caller of
`generate_speckle_field` and `apply_speckle` outside the package.
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
