"""Byte-identity audit: run a fixed matrix of CLI commands and hash what they leave.

The matrix is every config below times the seeds 1000 and 1001 times
`-j` 1, 2 and 64, and for each of these the commands

  simulate-text     simulate --format text
  simulate-binary   simulate --format binary
  analyze-text      analyze of simulate-text's photons.txt
  analyze-binary    analyze of simulate-binary's photons.bin
  sweep             sweep, for a config with a [sweep] section

The audit prints one line per artifact, `KEY  SHA256`, plus one line each
for the command's stdout, stderr and exit code, sorted by KEY, which is
CONFIG/sSEED/jTHREADS/COMMAND/FILE (FILE is `<stdout>`, `<stderr>` or
`<exit>` for those three; the exit line carries the code, not a hash).
Each command runs in a directory of its own and is given relative
paths, so the one stdout line that prints a path (sweep's summary line)
reads the same in any checkout and at any `-j`: nothing is normalized.

  python3 tools/identity.py                 print the lines of this checkout
  python3 tools/identity.py --check         also require every command to exit 0,
                                            -j 2 and -j 64 to give -j 1's lines,
                                            and every command of a run to give the
                                            same analysis files
  python3 tools/identity.py --against REV   run the matrix on REV too (unpacked
                                            with `git archive`) and list every
                                            line that differs

The exit code is 1 when a check fails or a line differs, else 0.  The
benchmark's workload configs are read from perfbench/workloads.py, so
the audit imports that module and, through it, the checkout's package
from `src` (and numpy); the commands run the package from `src` with the
interpreter that runs this script.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SEEDS = (1000, 1001)
THREADS = (1, 2, 64)
JOBS = 2  # runs at once: each is a chain of commands, run one after another
# the files each of a run's commands writes from the same photons
ANALYSIS = ("histogram.csv", "g2.csv", "theory.csv", "fit.txt")
_FROM_PHOTONS = ("simulate-text", "simulate-binary", "analyze-text", "analyze-binary")

# the short configs: 0.2 s at dt = 1 us with their traces written
_SHORT = {
    "run": {"duration_s": "0.2", "dt_s": "1e-6"},
    "detection": {"rate_hz": "3e4"},
    "correlator": {"bin_s": "1e-5", "window_s": "1e-3"},
    "output": {"write_trace": "yes"},
}


def _short(model: str, **modulation) -> dict:
    return {**_SHORT, "modulation": modulation, "analysis": {"model": model}}


def _workloads():
    """perfbench/workloads.py, loaded by path, with the checkout's `src` on sys.path."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# name -> {section: {key: value}}: the short round-trip (a sinusoid),
# noise, four EOM and thermal configs, then the benchmark's workload
# configs, read from perfbench/workloads.py (sim_sinusoid_text is the
# README config at 2 s).  Between them they run every modulation kind
# and every [analysis] model, `none` included: thermal's sweep fits each
# model to a constant laser.  CI's round trip through the installed
# script writes its config with `ini(CONFIGS["roundtrip"])`
CONFIGS = {
    "roundtrip": _short("sinusoid_speckle", kind="sinusoid", depth="0.9", frequency_hz="5e3"),
    "noise": _short(
        "noise_speckle",
        kind="band_noise",
        cutoff_hz="2000",
        quantization_bits="8",
        clip_level="realistic",
    ),
    **{
        f"eom_{waveform}_vpp{vpp}": _short(
            f"{'noise' if waveform == 'noise' else 'sinusoid'}_speckle",
            kind="eom",
            vpp=str(vpp),
            frequency_hz="20e3",
            waveform=waveform,
        )
        for waveform in ("sinusoid", "noise")
        for vpp in (8, 0)
    },
    "thermal": {
        **_short("speckle", kind="constant"),
        "analysis": {"model": "speckle", "init_frequency_hz": "5e3", "init_cutoff_hz": "2000"},
        "sweep": {
            "parameter": "analysis.model",
            "values": "none, speckle, sinusoid_speckle, noise_speckle",
        },
    },
    **{name: workload.sections for name, workload in _workloads().WORKLOADS.items()},
}


def ini(sections: dict) -> str:
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
        for name, entries in sections.items()
    )


def _commands(sections: dict, seed: int, threads: int) -> list:
    """(name, argv) of a run's commands, in order; the config is ../../../config.ini."""
    config = ["--config", "../../../config.ini", "-j", str(threads), "--out", "out"]
    run = [*config, "--seed", str(seed)]
    # analyze normalizes as the simulation did
    duration = ["--duration-s", sections["run"]["duration_s"]]
    out = [
        ("simulate-text", ["simulate", *run, "--format", "text"]),
        ("simulate-binary", ["simulate", *run, "--format", "binary"]),
        ("analyze-text", ["analyze", "../simulate-text/out/photons.txt", *config, *duration]),
        ("analyze-binary", ["analyze", "../simulate-binary/out/photons.bin", *config, *duration]),
    ]
    if "sweep" in sections:
        out.append(("sweep", ["sweep", *run]))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tree: Path, work: Path, run: str, sections: dict, seed: int, threads: int) -> dict:
    """KEY -> value of every command of the run CONFIG/sSEED/jTHREADS, in work/run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    lines = {}
    for name, argv in _commands(sections, seed, threads):
        cwd = work / run / name
        cwd.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "superbunch.cli", *argv], cwd=cwd, env=env, capture_output=True
        )
        key = f"{run}/{name}"
        lines[f"{key}/<stdout>"] = _sha256(done.stdout)
        lines[f"{key}/<stderr>"] = _sha256(done.stderr)
        lines[f"{key}/<exit>"] = str(done.returncode)
        out = cwd / "out"
        for path in out.rglob("*") if out.is_dir() else ():
            if path.is_file():
                lines[f"{key}/{path.relative_to(out).as_posix()}"] = _sha256(path.read_bytes())
    return lines


def run_matrix(tree: Path, work: Path, configs: dict) -> dict:
    """KEY -> value over the whole matrix, run from `tree`'s sources under `work`."""
    runs = []
    for name, sections in configs.items():
        (work / name).mkdir(parents=True)
        (work / name / "config.ini").write_text(ini(sections))
        runs += [(f"{name}/s{s}/j{j}", sections, s, j) for s in SEEDS for j in THREADS]
    lines = {}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for part in pool.map(lambda run: _run(tree, work, *run), runs):
            lines.update(part)
    return lines


def check(lines: dict) -> list:
    """What fails or differs within one checkout: a command's exit, and across
    -j and across a run's commands."""
    # every command of the matrix succeeds, so a failure that each -j
    # shares is still a fault
    faults = [
        f"{key}: exits {value}"
        for key, value in sorted(lines.items())
        if key.endswith("/<exit>") and value != "0"
    ]
    threads = {key.split("/")[2] for key in lines}
    across = {}  # CONFIG/sSEED/*/COMMAND/FILE -> {jTHREADS: value}
    for key, value in lines.items():
        config, seed, j, rest = key.split("/", 3)
        across.setdefault(f"{config}/{seed}/*/{rest}", {})[j] = value
    for key, values in sorted(across.items()):
        if values.keys() != threads or len(set(values.values())) > 1:
            faults.append(f"{key}: differs across -j: {dict(sorted(values.items()))}")
    for run in sorted({"/".join(key.split("/")[:3]) for key in lines}):
        for name in ANALYSIS:
            values = {
                command: lines[f"{run}/{command}/{name}"]
                for command in _FROM_PHOTONS
                if f"{run}/{command}/{name}" in lines
            }
            if len(set(values.values())) > 1:
                faults.append(f"{run}/*/{name}: differs across commands: {values}")
    return faults


def diff(ours: dict, theirs: dict) -> list:
    """The keys whose lines differ, or that only one side has, sorted."""
    return sorted(key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key))


def _unpack(rev: str, dest: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="diff this checkout's lines with REV's")
    parser.add_argument("--check", action="store_true", help="compare -j values and formats")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="identity-"))
    try:
        lines = run_matrix(ROOT, work / "ours", CONFIGS)
        for key in sorted(lines):
            print(f"{key}  {lines[key]}")
        faults = []
        if args.check:
            faults = check(lines)
            for fault in faults:
                print(f"check: {fault}", file=sys.stderr)
            print(f"check: {len(lines)} lines, {len(faults)} faults", file=sys.stderr)
        if args.against:
            tree = _unpack(args.against, work / "tree")
            theirs = run_matrix(tree, work / "theirs", CONFIGS)
            changed = diff(lines, theirs)
            for key in changed:
                print(f"differs: {key}  {theirs.get(key)} -> {lines.get(key)}", file=sys.stderr)
            print(
                f"{len(lines)} lines here, {len(theirs)} at {args.against}, "
                f"{len(changed)} differ",
                file=sys.stderr,
            )
            faults += changed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
