"""Command line interface.

Subcommands:
  simulate   run the full chain from a config file and write artifacts
  analyze    correlate (and optionally fit) an existing timestamp file
  sweep      repeat simulate over the values of one config key
  plot       emit a gnuplot script for a g2 curve (+ optional model)

Exit codes: 0 success, 2 configuration problem, 3 malformed data file,
4 the requested fit did not converge (artifacts are still written),
5 one or more sweep points failed (the other points and summary.csv are
still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import build_config, load_config
from .errors import ConfigError, DataError
from .pipeline import run_analysis, run_pipeline, run_sweep

_FULL = ("modulation",)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", "-c", metavar="FILE", help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument(
        "--out", "-o", metavar="DIR", default=None, help="output directory"
    )
    parser.add_argument(
        "--threads", "-j", type=int, default=1, help="worker threads (default 1)"
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "binary"),
        default=None,
        help="timestamp file format (default from config, else text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superbunch",
        description="simulate and analyze intensity-modulated pseudothermal light",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the simulation pipeline")
    _common_flags(p_sim)

    p_ana = sub.add_parser("analyze", help="correlate an existing timestamp file")
    _common_flags(p_ana)
    p_ana.add_argument("stream", help="photon timestamp file (.txt/.csv or .bin/.phot)")
    p_ana.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="acquisition duration; needed to reproduce a run's normalization "
        "exactly (the files carry no header)",
    )

    p_sw = sub.add_parser("sweep", help="repeat simulate over [sweep] values")
    _common_flags(p_sw)

    p_plot = sub.add_parser("plot", help="write a gnuplot script for a g2 CSV")
    _common_flags(p_plot)
    p_plot.add_argument("data", help="g2 CSV (tau_s,g2[,stderr])")
    p_plot.add_argument(
        "--theory", default=None, metavar="FILE", help="model CSV (tau_s,g2_theory)"
    )
    return parser


def _load(args, require):
    if args.config is None:
        if require:
            raise ConfigError(f"--config is required for {args.command}")
        cfg = build_config({}, require=())
        raw = {}
    else:
        cfg, raw = load_config(args.config, require=require)
    if args.seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    return cfg, raw


def _read_curve_csv(path, min_cols: int):
    """Read a small CSV of numbers with a one-line header."""
    try:
        with open(path) as fh:
            header = fh.readline()
            if not header.lower().startswith("tau_s"):
                raise DataError(f"{path}: expected a 'tau_s,...' header")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] < min_cols:
        raise DataError(f"{path}: expected at least {min_cols} columns")
    return data


def _gnuplot_block(name: str, rows) -> list:
    lines = [f"${name} << EOD"]
    for row in rows:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append("EOD")
    return lines


def _cmd_plot(args) -> int:
    data = _read_curve_csv(args.data, 2)
    have_err = data.shape[1] >= 3 and bool(np.any(data[:, 2] > 0))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    script = os.path.join(out_dir, "plot.gp")

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
        theory = _read_curve_csv(args.theory, 2)
        lines += _gnuplot_block("theory", theory[:, :2])
        plots.append('$theory using 1:2 with lines linewidth 2 title "model"')
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(script, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(script)
    return 0


def _dispatch(args) -> int:
    if args.command == "plot":
        return _cmd_plot(args)

    if args.command == "simulate":
        cfg, _ = _load(args, _FULL)
        out_dir = args.out or cfg.out_dir
        result = run_pipeline(cfg, threads=args.threads, out_dir=out_dir, fmt=args.fmt)
        print(
            f"g2(0) = {result.g2_zero:.4f} +- {result.g2_zero_err:.4f}  "
            f"peak/background = {result.peak.ratio:.3f}  "
            f"events = {result.stream.d1.size + result.stream.d2.size}"
        )
        if result.fit is not None:
            state = "converged" if result.fit.converged else "did not converge"
            print(f"fit {state} after {result.fit.iterations} iterations")
            if not result.fit.converged:
                return 4
        return 0

    if args.command == "analyze":
        cfg, _ = _load(args, ())
        out_dir = args.out or cfg.out_dir
        result = run_analysis(
            cfg,
            args.stream,
            fmt=args.fmt,
            duration_s=args.duration_s,
            out_dir=out_dir,
            threads=args.threads,
        )
        print(
            f"g2(0) = {result.g2_zero:.4f} +- {result.g2_zero_err:.4f}  "
            f"peak/background = {result.peak.ratio:.3f}"
        )
        if result.fit is not None and not result.fit.converged:
            return 4
        return 0

    if args.command == "sweep":
        cfg, raw = _load(args, _FULL)
        if cfg.sweep is None:
            raise ConfigError("missing required section [sweep]")
        out_dir = args.out or cfg.out_dir
        rows = run_sweep(cfg, raw, out_dir=out_dir, threads=args.threads, fmt=args.fmt)
        failures = sum(1 for row in rows if row["status"] != "ok")
        print(f"{len(rows)} points, {failures} failed; summary in {out_dir}/summary.csv")
        return 5 if failures else 0

    raise ConfigError(f"unknown command {args.command!r}")


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
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
