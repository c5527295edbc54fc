"""Span tracing of superbunch from outside the package.

The tracer replaces public functions in the module namespaces where the
package looks them up at call time (`superbunch.pipeline`,
`superbunch.config`, `superbunch.analytic`, `superbunch._kernels`) with
wrappers that record a span per call: name, layer, start, end, parent
span and operation id.  No source file is edited; `uninstall()` puts the
original functions back.

Spans live in memory until the benchmark ends.  Work the wrappers do
after a call (counting events, pairs, file bytes) is recorded as a
`trace.bookkeeping` span under the caller, so it is not charged to the
caller's self time.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
import tracemalloc

# samples per block in the candidate estimate; fixed here rather than read
# from the package, so the estimate keeps its meaning if detection changes
CANDIDATE_BLOCK = 1 << 20


def _events(stream) -> int:
    return int(stream.d1.size + stream.d2.size)


def _candidates_est(args, kwargs) -> float:
    """Sum over 2**20-sample blocks of peak total rate x block duration."""
    trace, cfg = args[0], args[1]
    ceiling = kwargs.get("rate_ceiling_hz")
    lam = (2.0 * cfg.rate_hz / trace.mean) * trace.samples
    total = 0.0
    for i0 in range(0, lam.size, CANDIDATE_BLOCK):
        block = lam[i0 : i0 + CANDIDATE_BLOCK]
        top = float(block.max()) if ceiling is None else float(ceiling)
        total += top * block.size * trace.dt
    return total


def _count_detect(args, kwargs, result):
    return {"events": _events(result), "candidates_est": _candidates_est(args, kwargs)}


def _count_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _count_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "events": _events(result)}


def _count_hist(args, kwargs, result):
    return {"pairs": int(result.counts.sum()), "threads": int(kwargs.get("threads", 1))}


def _count_fit(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _count_samples(args, kwargs, result):
    return {"samples": int(result.n)}


# (module, attribute, layer, peak-alloc measured, count extractor)
TARGETS = (
    ("superbunch.pipeline", "sample_intensity", "signal", True, _count_samples),
    ("superbunch.pipeline", "generate_speckle_field", "speckle", True, None),
    ("superbunch.pipeline", "apply_speckle", "speckle", True, None),
    ("superbunch.pipeline", "detect_photons", "detection", True, _count_detect),
    ("superbunch.pipeline", "write_photon_stream", "detection", False, _count_write),
    ("superbunch.pipeline", "read_photon_stream", "detection", False, _count_read),
    ("superbunch.pipeline", "coincidence_histogram", "correlator", False, _count_hist),
    ("superbunch._kernels", "pair_histogram", "correlator", False, None),
    ("superbunch.pipeline", "normalize_g2", "correlator", False, None),
    ("superbunch.pipeline", "g2_zero_estimate", "correlator", False, None),
    ("superbunch.pipeline", "peak_background_ratio", "correlator", False, None),
    ("superbunch.pipeline", "write_g2_csv", "correlator", False, None),
    ("superbunch.pipeline", "write_histogram_csv", "correlator", False, None),
    ("superbunch.analytic", "fit_g2", "analytic", False, _count_fit),
    ("superbunch.config", "read_raw", "config", False, None),
    ("superbunch.config", "build_config", "config", False, None),
    ("superbunch.pipeline", "build_config", "config", False, None),
    ("superbunch.pipeline", "apply_override", "config", False, None),
    ("superbunch.pipeline", "run_pipeline", "pipeline", False, None),
    ("superbunch.pipeline", "run_analysis", "pipeline", False, None),
    ("superbunch.pipeline", "run_sweep", "pipeline", False, None),
)


class Tracer:
    """Collects spans from wrapped calls; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = "none"
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _parent(self) -> int | None:
        stack = self._stacks.get(threading.get_ident())
        if not stack:
            # a pool worker: attribute its spans to the span open on the
            # thread that submitted the work
            stack = self._stacks.get(self._main)
        return stack[-1] if stack else None

    def _reserve(self) -> int:
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def _store(self, sid, name, layer, start, end, parent, **extra) -> None:
        self.spans[sid] = {
            "id": sid,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
            "parent": parent,
            "op": self.op,
            **extra,
        }

    def _wrap(self, fn, name, layer, alloc, count):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._parent()
            sid = tracer._reserve()
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            stack.append(sid)
            if alloc:
                # tracing allocations only here: it slows the pure-Python
                # parts of other calls (the text writer) many times over
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = {"ok": ok}
                if alloc:
                    extra["peak_alloc"] = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
                tracer._store(sid, name, layer, start, end, parent, **extra)
            if count is not None:
                t0 = time.perf_counter()
                tracer.spans[sid].update(count(args, kwargs, result))
                tracer._store(
                    tracer._reserve(), "trace.bookkeeping", "trace", t0,
                    time.perf_counter(), parent,
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for modname, attr, layer, alloc, count in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            name = f"{layer}.{attr}"
            setattr(mod, attr, self._wrap(fn, name, layer, alloc, count))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)


# -- per-layer metrics -------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _dur(span) -> float:
    return span["end"] - span["start"]


def _total(spans, *names) -> float:
    return sum(_dur(s) for s in spans if s["name"] in names)


def _sum(spans, name, key):
    return sum(s.get(key, 0) for s in spans if s["name"] == name)


def op_totals(spans: list[dict], points: int) -> dict:
    """Per-layer totals of one traced call, divided by its sweep points.

    Returns only the metrics whose spans occur in the call; ratios are
    formed from the call's own totals.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def have(*names):
        return any(s["name"] in names for s in spans)

    def peak(*names):
        return max(s["peak_alloc"] for s in spans if s["name"] in names) / 1e6

    out: dict[str, float] = {}
    if have("signal.sample_intensity"):
        out["signal.synth_s"] = _total(spans, "signal.sample_intensity") / points
        out["signal.samples"] = _sum(spans, "signal.sample_intensity", "samples") / points
        out["signal.peak_alloc_mb"] = peak("signal.sample_intensity")
    if have("speckle.generate_speckle_field"):
        out["speckle.synth_s"] = _total(spans, "speckle.generate_speckle_field") / points
        out["speckle.apply_s"] = _total(spans, "speckle.apply_speckle") / points
        out["speckle.peak_alloc_mb"] = peak(
            "speckle.generate_speckle_field", "speckle.apply_speckle"
        )
    if have("detection.detect_photons"):
        events = _sum(spans, "detection.detect_photons", "events")
        cand = _sum(spans, "detection.detect_photons", "candidates_est")
        out["detection.detect_s"] = _total(spans, "detection.detect_photons") / points
        out["detection.candidates_est"] = cand / points
        out["detection.accept_ratio"] = events / cand if cand > 0 else 0.0
        out["detection.peak_alloc_mb"] = peak("detection.detect_photons")
        out["detection.events"] = events / points
    elif have("detection.read_photon_stream"):
        out["detection.events"] = _sum(spans, "detection.read_photon_stream", "events") / points
    if have("detection.write_photon_stream"):
        out["detection.write_s"] = _total(spans, "detection.write_photon_stream") / points
        out["detection.write_mb"] = (
            _sum(spans, "detection.write_photon_stream", "bytes") / 1e6 / points
        )
    if have("detection.read_photon_stream"):
        out["detection.read_s"] = _total(spans, "detection.read_photon_stream") / points
        out["detection.read_mb"] = (
            _sum(spans, "detection.read_photon_stream", "bytes") / 1e6 / points
        )
    if have("correlator.coincidence_histogram"):
        hists = [s for s in spans if s["name"] == "correlator.coincidence_histogram"]
        hist_s = sum(_dur(s) for s in hists)
        busy = _total(spans, "correlator.pair_histogram")
        pairs = sum(s["pairs"] for s in hists)
        capacity = sum(s["threads"] * _dur(s) for s in hists)
        out["correlator.histogram_s"] = hist_s / points
        out["correlator.kernel_busy_s"] = busy / points
        out["correlator.kernel_calls"] = (
            sum(1 for s in spans if s["name"] == "correlator.pair_histogram") / points
        )
        out["correlator.pairs"] = pairs / points
        out["correlator.pairs_per_s"] = pairs / hist_s
        out["correlator.parallel_eff"] = busy / capacity
        out["correlator.post_s"] = (
            _total(spans, 
                "correlator.normalize_g2",
                "correlator.g2_zero_estimate",
                "correlator.peak_background_ratio",
            )
            / points
        )
        out["correlator.csv_write_s"] = (
            _total(spans, "correlator.write_g2_csv", "correlator.write_histogram_csv") / points
        )
    if have("analytic.fit_g2"):
        fits = [s for s in spans if s["name"] == "analytic.fit_g2"]
        out["analytic.fit_s"] = sum(_dur(s) for s in fits) / points
        out["analytic.fit_iterations"] = sum(s["iterations"] for s in fits) / points
        out["analytic.fit_converged"] = sum(s["converged"] for s in fits) / len(fits)
    entries = [s for s in spans if s["layer"] == "pipeline"]
    if entries:
        self_s = 0.0
        for s in entries:
            kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
            self_s += _dur(s) - _union_length(kids)
        out["pipeline.self_s"] = self_s / points
    config = [s for s in spans if s["layer"] == "config"]
    if config:
        out["config.build_s"] = _union_length([(s["start"], s["end"]) for s in config]) / points
    return out


def op_counts(spans: list[dict]) -> dict:
    """Exact counts of one traced call, comparable with an untraced call."""
    return {
        "events": _sum(spans, "detection.detect_photons", "events")
        or _sum(spans, "detection.read_photon_stream", "events"),
        "pairs": _sum(spans, "correlator.coincidence_histogram", "pairs"),
        "fit_iterations": _sum(spans, "analytic.fit_g2", "iterations"),
        "photon_bytes_written": _sum(spans, "detection.write_photon_stream", "bytes"),
    }


def layer_metrics(per_op: list[dict], names) -> dict:
    """Median over traced calls of each metric; 0 where no call ran the layer."""
    out = {}
    for name in names:
        values = [op[name] for op in per_op if name in op]
        out[name] = float(statistics.median(values)) if values else 0.0
    return out
