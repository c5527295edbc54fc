"""The names the benchmark in perfbench/ reaches into must keep resolving.

perfbench/tracer.py wraps functions by (module, attribute) and
perfbench/run.py records the kernel flags; a refactor that moves or
renames one of them would break the benchmark without failing any other
test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from test_bench_setup import _workloads

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module, attr",
    [
        ("superbunch", "COMPILED"),
        ("superbunch", "__version__"),
        ("superbunch._kernels", "FORCE_FALLBACK"),
        ("superbunch._corr_np", "pair_histogram"),
    ],
)
def test_recorded_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_correlator_calls_the_numpy_kernel():
    from superbunch import _corr_np, _kernels

    assert _kernels.pair_histogram is _corr_np.pair_histogram
    assert _kernels.COMPILED is False and _kernels.FORCE_FALLBACK is False


def test_each_sinusoid_workload_has_the_omega_its_fit_check_reads(monkeypatch):
    # perfbench/workloads.py `_check_sinusoid` compares the fit with cfg.modulation.omega
    workloads = _workloads(monkeypatch)
    sections = [w.sections for w in workloads.WORKLOADS.values()]
    sinusoids = [s for s in sections if s["modulation"]["kind"] == "sinusoid"]
    assert sinusoids
    for raw in sinusoids:
        modulation = workloads.config.build_config(raw).modulation
        assert modulation.omega == 2 * np.pi * modulation.frequency_hz
