"""Benchmark of the superbunch pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ../src.  The
workload seed makes REALIZATIONS input realizations.  Each is set up in
its own process (prepare.py), timed from start to exit.  Then the
workload's entry point is called for S seconds, each call in a forked
child so that its peak RSS is its own, cycling over the realizations.
With --trace 0 the last line of output is a JSON object with the
end-to-end metrics.  With --trace 1 every realization runs untraced and
then traced, and the JSON holds the per-layer metrics.  Human-readable
lines, the environment and every correctness verdict come first.  A full
record, spans included, is written to .perfbench_out/ in the repository
root.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REALIZATIONS = 5
SETUP_TIMEOUT_S = 120
CALL_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "g2zero_1pct_s": "s",
    "setup_s": "s",
}

PER_LAYER = {
    "signal.synth_s": "s",
    "signal.samples": "count",
    "signal.peak_alloc_mb": "MB",
    "speckle.synth_s": "s",
    "speckle.apply_s": "s",
    "speckle.peak_alloc_mb": "MB",
    "detection.detect_s": "s",
    "detection.events": "count",
    "detection.candidates_est": "count-computed",
    "detection.accept_ratio": "ratio",
    "detection.peak_alloc_mb": "MB",
    "detection.write_s": "s",
    "detection.write_mb": "MB",
    "detection.read_s": "s",
    "detection.read_mb": "MB",
    "correlator.histogram_s": "s",
    "correlator.kernel_busy_s": "s",
    "correlator.kernel_calls": "count",
    "correlator.pairs": "count",
    "correlator.pairs_per_s": "1/s",
    "correlator.parallel_eff": "ratio",
    "correlator.post_s": "s",
    "correlator.csv_write_s": "s",
    "analytic.fit_s": "s",
    "analytic.fit_iterations": "count",
    "analytic.fit_converged": "ratio",
    "pipeline.self_s": "s",
    "config.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """A set-up step failed; the run reports no result."""


def _getconf(name: str):
    try:
        out = subprocess.run(
            ["getconf", name], capture_output=True, text=True, timeout=10, check=True
        ).stdout
        return int(out.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(seed: int) -> dict:
    import numpy as np
    import superbunch
    from superbunch import _kernels

    return {
        "compiled_kernel": bool(superbunch.COMPILED),
        "forced_fallback": bool(_kernels.FORCE_FALLBACK),
        "superbunch": superbunch.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
    }


def run_setups(name: str, seed: int, work: Path, trace: bool):
    """Set up every realization in its own process; return walls, records, spans.

    Realization 0 is set up a second time, into its own directory, so
    that set-up itself can be checked for determinism.
    """
    walls, records, spans = [], [], []
    for i, k in enumerate([*range(REALIZATIONS), 0]):
        rdir = work / (f"r{k}" if i < REALIZATIONS else "r0-repeat")
        cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", name,
               "--seed", str(seed), "--realization", str(k), "--work", str(rdir)]
        trace_out = work / f"setup-{i}.spans.json"
        if trace:
            cmd += ["--trace-out", str(trace_out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"set-up of realization {k} exited with code {proc.returncode}")
        records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        spans.append(json.loads(trace_out.read_text()) if trace else [])
    return walls, records, spans


def in_child(fn, timeout_s: float):
    """Run fn() in a forked child; return (payload, peak RSS in MB).

    fn returns a JSON-serializable value.  The child's peak RSS covers
    only what it allocated on top of this process's state at the fork.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(r)
            try:
                payload = {"ok": fn()}
                status = 0
            except Exception:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(w, "w") as fh:
                json.dump(payload, fh, default=float)
        finally:
            os._exit(status)
    os.close(w)
    data = bytearray()
    try:
        deadline = time.monotonic() + timeout_s
        while True:
            ready, _, _ = select.select([r], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                return {"error": f"call exceeded {timeout_s} s and was killed"}, 0.0
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            data += chunk
    finally:
        os.close(r)
        _, _, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss * 1024 / 1e6
    try:
        return json.loads(data), rss_mb
    except ValueError:
        return {"error": "child exited without a result"}, rss_mb


def timed_calls(workload, call, configs, work, setups, seconds, trace):
    """Call the entry point in forked children until `seconds` have passed.

    Calls cycle over the realizations.  With `trace`, each realization is
    called untraced and then traced, so the two can be compared.
    """
    import workloads

    calls = []
    t_start = time.perf_counter()
    min_calls = 2 if trace else 1
    last = 0.0
    # stop when the next call would end more than half a call past the budget
    while len(calls) < min_calls or time.perf_counter() - t_start + last / 2 < seconds:
        t_call = time.perf_counter()
        n = len(calls)
        traced = trace and n % 2 == 1
        k = (n // 2 if trace else n) % REALIZATIONS
        cfg, raw = configs[k]

        def child(k=k, cfg=cfg, raw=raw, traced=traced, n=n):
            tracer = None
            if traced:
                tracer = tracing.Tracer()
                tracer.op = f"call-{n}"
                tracer.install()
            try:
                res = call(workload, cfg, raw, work / f"r{k}", setups[k])
            finally:
                if tracer is not None:
                    tracer.uninstall()
            spans = tracer.spans if tracer else []
            return {"result": dataclasses.asdict(res), "spans": spans}

        payload, rss_mb = in_child(child, CALL_TIMEOUT_S)
        entry = {"realization": k, "traced": traced, "rss_mb": rss_mb,
                 "result": None, "spans": [], "error": payload.get("error")}
        if "ok" in payload:
            entry["result"] = workloads.CallResult(**payload["ok"]["result"])
            entry["spans"] = payload["ok"]["spans"]
        else:
            sys.stderr.write(payload["error"] + "\n")
        calls.append(entry)
        last = time.perf_counter() - t_call
    return calls


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end(calls, points, setup_walls) -> dict:
    ok = [c for c in calls if not c["traced"] and c["result"] is not None]
    res = [c["result"] for c in ok]
    return {
        "wall_s": _median([r.wall_s / points for r in res]),
        "events_per_s": _median([r.events / r.wall_s for r in res]),
        "peak_rss_mb": _median([c["rss_mb"] for c in ok]),
        # time to 1% relative precision on g2(0); worst point of a sweep
        "g2zero_1pct_s": _median(
            [r.wall_s / points * max((e / g / 0.01) ** 2 for g, e in r.g2) for r in res if r.g2]
        ),
        "setup_s": _median(setup_walls),
    }


def per_layer(calls, setup_spans, points) -> dict:
    traced = [tracing.op_totals(c["spans"], points) for c in calls if c["traced"] and c["spans"]]
    at_setup = [tracing.op_totals(spans, 1) for spans in setup_spans]
    names = [n for n in PER_LAYER if n != "trace.overhead_ratio"]
    out = tracing.layer_metrics(traced, names)
    # layers that only set-up exercises (synthesis on analyze_dense_binary)
    from_setup = tracing.layer_metrics(at_setup, names)
    for name in names:
        if not any(name in op for op in traced):
            out[name] = from_setup[name]
    # a share of all traced fits, which a median over calls would hide
    converged = [op["analytic.fit_converged"] for op in traced if "analytic.fit_converged" in op]
    if converged:
        out["analytic.fit_converged"] = statistics.fmean(converged)
    # traced over untraced wall of the same realization
    ratios = []
    for c in calls:
        if c["traced"] and c["result"] is not None:
            base = [u["result"].wall_s for u in calls if not u["traced"] and u["result"]
                    and u["realization"] == c["realization"]]
            if base:
                ratios.append(c["result"].wall_s / statistics.median(base))
    out["trace.overhead_ratio"] = _median(ratios)
    return out


def determinism_problems(calls, setup_records, setup_spans) -> list:
    """Counts must repeat exactly for a realization, traced or not."""
    problems = []
    if setup_records[-1] != setup_records[0]:
        problems.append(
            f"realization 0: repeated set-up wrote {setup_records[-1]}, first {setup_records[0]}"
        )
    for rec, spans in zip(setup_records, setup_spans):
        if rec and spans:
            got = tracing.op_counts(spans)
            if (got["events"], got["photon_bytes_written"]) != (rec["events"], rec["bytes"]):
                problems.append(f"traced set-up counts {got} differ from {rec}")
    first = {}
    for c in calls:
        if c["result"] is None:
            continue
        sigs = [("untraced" if not c["traced"] else "traced", c["result"].counts)]
        if c["traced"]:
            sigs.append(("spans", tracing.op_counts(c["spans"])))
        for kind, sig in sigs:
            ref = first.setdefault(c["realization"], sig)
            if sig != ref:
                problems.append(
                    f"realization {c['realization']}: {kind} counts {sig} differ from {ref}"
                )
    return problems


def bench(args, work: Path) -> int:
    import selfcheck
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    points = workload.points
    setup_walls, setup_records, setup_spans = run_setups(
        workload.name, args.seed, work, bool(args.trace)
    )
    configs = [workloads.load(work / f"r{k}") for k in range(REALIZATIONS)]
    calls = timed_calls(
        workload, workloads.CALLS[workload.name], configs, work, setup_records,
        args.seconds, bool(args.trace),
    )
    kernel = selfcheck.kernel_self_check(args.seed)
    env = environment(args.seed)

    attempted = points * len(calls)
    failed = sum(
        points if c["result"] is None else min(points, len(c["result"].failures))
        for c in calls
    )
    problems = determinism_problems(calls, setup_records, setup_spans)
    if kernel["status"] == "failed":
        problems.append(f"kernel self-check: {kernel['reason']}")
    fits = sum(c["result"].fits_total for c in calls if c["result"])
    unconverged = sum(c["result"].fits_unconverged for c in calls if c["result"])

    if args.trace:
        metrics, units = per_layer(calls, setup_spans, points), PER_LAYER
    else:
        metrics, units = end_to_end(calls, points, setup_walls), END_TO_END
    correct = failed == 0 and not problems

    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name}  seed {args.seed}  {mode}  {len(calls)} calls x "
          f"{points} operations over {REALIZATIONS} realizations")
    print("env " + json.dumps(env, sort_keys=True))
    reason = kernel.get("reason", f"{len(kernel.get('cases', []))} cases bit-identical")
    print(f"kernel self-check: {kernel['status']} ({reason})")
    for c in calls:
        messages = c["result"].failures if c["result"] else [c["error"].strip().splitlines()[-1]]
        for msg in messages:
            print(f"FAILED (realization {c['realization']}): {msg}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<26} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    if unconverged:
        print(f"note: {unconverged} of {fits} fits stopped at the iteration cap "
              "(reported, not counted as failures; see README.md)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "kernel_self_check": kernel,
        "setup": {"walls_s": setup_walls, "records": setup_records},
        "calls": [
            {"realization": c["realization"], "traced": c["traced"], "rss_mb": c["rss_mb"],
             **({"error": c["error"]} if c["result"] is None else vars(c["result"]))}
            for c in calls
        ],
        "fits_unconverged": unconverged,
        "fits_total": fits,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "result": result,
    }
    if args.trace:
        record["spans"] = {
            "setup": setup_spans,
            "calls": [c["spans"] for c in calls if c["traced"]],
        }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "superbunch" / "__init__.py").is_file():
        print(f"error: no superbunch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the package, so only after the check above

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return bench(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
