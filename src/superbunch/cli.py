"""Command line interface.

Subcommands:
  simulate   run the full chain from a config file and write artifacts
  analyze    correlate (and optionally fit) an existing timestamp file
  sweep      repeat simulate over the values of one config key
  plot       emit a gnuplot script for a g2 curve (+ optional model)

Exit codes: 0 success, 2 configuration problem (a config value, flag or
file name), 3 malformed data file, 4 the requested fit did not converge
(artifacts are still written), 5 one or more sweep points failed (the
other points and summary.csv are still written).  Any other exception
is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ._text import read_csv
from .config import apply_override, build_config, read_raw
from .errors import ConfigError, DataError
from .pipeline import make_out_dir, run_analysis, run_pipeline, run_sweep


def _run_flags(parser: argparse.ArgumentParser, *, seed: bool = True) -> None:
    parser.add_argument("--config", "-c", metavar="FILE", help="INI config file")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    else:
        parser.set_defaults(seed=None)
    parser.add_argument(
        "--out", "-o", metavar="DIR", default=None, help="output directory"
    )
    parser.add_argument(
        "--threads", "-j", type=int, default=1, help="upper bound on worker threads (default 1)"
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "binary"),
        default=None,
        help="timestamp file format: overrides [output] format, or for analyze "
        "names the input file's format (default: from its extension)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superbunch",
        description="simulate and analyze intensity-modulated pseudothermal light",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the simulation pipeline")
    _run_flags(p_sim)

    p_ana = sub.add_parser("analyze", help="correlate an existing timestamp file")
    _run_flags(p_ana, seed=False)
    p_ana.add_argument("stream", help="photon timestamp file (.txt/.csv or .bin/.phot)")
    p_ana.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="acquisition duration; needed to reproduce a run's normalization "
        "exactly (the files carry no header)",
    )

    p_sw = sub.add_parser("sweep", help="repeat simulate over [sweep] values")
    _run_flags(p_sw)

    p_plot = sub.add_parser("plot", help="write a gnuplot script for a g2 CSV")
    p_plot.add_argument("data", help="g2 CSV (tau_s,g2[,stderr])")
    p_plot.add_argument(
        "--theory", default=None, metavar="FILE", help="model CSV (tau_s,g2_theory)"
    )
    p_plot.add_argument(
        "--out", "-o", metavar="DIR", default=None, help="output directory (default .)"
    )
    return parser


def _load(args, need_config: bool):
    """The run's (RunConfig, raw config), with the flags applied as overrides.

    `--seed` sets `[run] seed`; `--format` sets `[output] format`, except
    for analyze, where it names the input file's format.  The config is
    built once from the result, so every setting is checked before any
    work and a sweep's points inherit the flags.
    """
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    if args.config is None:
        if need_config:
            raise ConfigError(f"--config is required for {args.command}")
        raw = {}
    else:
        raw = read_raw(args.config)
    if args.seed is not None:
        raw = apply_override(raw, "run.seed", str(args.seed))
    if args.fmt is not None and args.command != "analyze":
        raw = apply_override(raw, "output.format", args.fmt)
    return build_config(raw), raw


def _gnuplot_block(name: str, rows) -> list:
    lines = [f"${name} << EOD"]
    for row in rows:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append("EOD")
    return lines


def _cmd_plot(args) -> int:
    data = read_csv(args.data, 2, header="tau_s")
    have_err = data.shape[1] >= 3 and bool(np.any(data[:, 2] > 0))
    out_dir = args.out or "."
    script = os.path.join(out_dir, "plot.gp")
    make_out_dir(out_dir, (script,))

    lines = [
        "# run with: gnuplot -p " + os.path.basename(script),
        'set xlabel "tau (s)"',
        'set ylabel "g2"',
        "set grid",
        'set key top right',
    ]
    lines += _gnuplot_block("data", data[:, :3] if have_err else data[:, :2])
    plots = []
    if have_err:
        plots.append(
            '$data using 1:2:3 with yerrorbars pointtype 7 pointsize 0.35 title "data"'
        )
    else:
        plots.append('$data using 1:2 with points pointtype 7 pointsize 0.35 title "data"')
    if args.theory is not None:
        theory = read_csv(args.theory, 2, header="tau_s")
        lines += _gnuplot_block("theory", theory[:, :2])
        plots.append('$theory using 1:2 with lines linewidth 2 title "model"')
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(script, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(script)
    return 0


def _warn(warnings, prefix: str = "") -> None:
    """Print a run's diagnostics to stderr; artifacts do not record them."""
    for message in warnings:
        print(f"warning: {prefix}{message}", file=sys.stderr)


def _report(result) -> int:
    """Print a run's summary and warnings; the exit code: 4 for an unconverged fit."""
    print(
        f"g2(0) = {result.g2_zero:.4f} +- {result.g2_zero_err:.4f}  "
        f"peak/background = {result.peak.ratio:.3f}  "
        f"events = {result.stream.n1 + result.stream.n2}"
    )
    _warn(result.warnings)
    if result.fit is None:
        return 0
    state = "converged" if result.fit.converged else "did not converge"
    print(f"fit {state} after {result.fit.iterations} iterations")
    return 0 if result.fit.converged else 4


def _dispatch(args) -> int:
    if args.command == "plot":
        return _cmd_plot(args)

    if args.command == "simulate":
        cfg, _ = _load(args, True)
        return _report(run_pipeline(cfg, threads=args.threads, out_dir=args.out or cfg.out_dir))

    if args.command == "analyze":
        cfg, _ = _load(args, False)
        out_dir = args.out or cfg.out_dir
        result = run_analysis(
            cfg,
            args.stream,
            fmt=args.fmt,
            duration_s=args.duration_s,
            out_dir=out_dir,
            threads=args.threads,
        )
        return _report(result)

    if args.command == "sweep":
        cfg, raw = _load(args, True)
        out_dir = args.out or cfg.out_dir
        rows = run_sweep(cfg, raw, out_dir=out_dir, threads=args.threads)
        for i, row in enumerate(rows):
            _warn(row["warnings"], f"point_{i:03d}: ")
        failures = sum(1 for row in rows if row["status"] != "ok")
        print(f"{len(rows)} points, {failures} failed; summary in {out_dir}/summary.csv")
        return 5 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
