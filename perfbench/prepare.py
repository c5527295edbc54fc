"""Set-up of one input realization of a benchmark run, as its own process.

    python3 perfbench/prepare.py --workload NAME --seed N --realization K \
        --work DIR [--trace-out FILE]

Writes DIR/workload.ini with the config seed of realization K of workload
seed N, loads it, and for analyze_dense_binary builds DIR/photons.bin.
The last line of standard output is a JSON record of what was written.
With --trace-out the calls are traced and their spans written to FILE.
run.py times this process from start to exit as the set-up time:
interpreter start, imports, config load and input generation.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--realization", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    tracer = None
    if args.trace_out is not None:
        tracer = tracing.Tracer()
        tracer.op = f"setup-{args.realization}"
        tracer.install()
    try:
        record = workloads.prepare(
            workloads.WORKLOADS[args.workload],
            workloads.realization_seed(args.seed, args.realization),
            args.work,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        args.trace_out.write_text(json.dumps(tracer.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
