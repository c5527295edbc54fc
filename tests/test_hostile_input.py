"""Hostile input through the command line: absurd config numbers, damaged photon files.

Every case runs `cli.main` in-process on a 0.01 s run.  It must exit 0,
or refuse with exit 2 (config) or 3 (data) and a message that names the
key, line or record at fault.  An exception escaping `main` is a bug and
fails the test.  The damaged photon files are also read a few records
at a time, and faults at a chunk's edge through `read_photon_stream`:
each must name the line or record that reading the file whole names.
"""

import re

import pytest

from superbunch import DataError, read_photon_stream
from superbunch.cli import main
from superbunch.config import _MODULATION, _SCHEMA, INIT

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e308", "1e-300")

# each kind is probed under a fit model its physics starts
_MODEL = {
    "constant": "speckle",
    "sinusoid": "sinusoid_speckle",
    "band_noise": "noise_speckle",
    "eom": "sinusoid_speckle",
}


def _ini(raw: dict) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
        for section, entries in raw.items()
    )


def _config(kind: str) -> dict:
    # README physics, shortened to 0.01 s
    return {
        "run": {"seed": "1", "duration_s": "0.01", "dt_s": "1e-6"},
        "modulation": {"kind": kind},
        "detection": {"rate_hz": "3e4"},
        "correlator": {"bin_s": "1e-6", "window_s": "1e-4"},
        "analysis": {"model": _MODEL[kind]},
    }


# (section, modulation kind, key): every key of _SCHEMA, and each kind's own
_KEYS = [
    *(("modulation", "sinusoid", key) for key in _SCHEMA["modulation"]),
    *(("modulation", kind, key) for kind, (keys, _) in _MODULATION.items() for key in keys),
    *((s, "sinusoid", key) for s, keys in _SCHEMA.items() if s != "modulation" for key in keys),
]


def test_every_init_key_is_probed():
    assert {(s, key) for s, _, key in _KEYS} >= {("analysis", key) for key in INIT}


def _names(message: str, section: str, key: str) -> bool:
    """Whether a refusal names `[section]` and `key`."""
    word = re.search(rf"(?<!\w){re.escape(key)}(?!\w)", message)
    return bool(f"[{section}]" in message and word)


@pytest.mark.parametrize(
    "section,kind,key", _KEYS, ids=[f"{section}.{kind}.{key}" for section, kind, key in _KEYS]
)
def test_config_value_runs_or_is_refused_by_name(tmp_path, capsys, section, kind, key):
    command = "sweep" if section == "sweep" else "simulate"
    for i, value in enumerate(VALUES):
        raw = _config(kind)
        if command == "sweep":
            raw["sweep"] = {"parameter": "modulation.kind", "values": kind}
        raw.setdefault(section, {})[key] = value
        path = tmp_path / f"run{i}.ini"
        path.write_text(_ini(raw))
        out = tmp_path / f"out{i}"
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if (section, key) == ("sweep", "values") and code == 5:
            # a swept value that a point rejects fails that point alone
            assert _names((out / "summary.csv").read_text(), "modulation", "kind"), value
            continue
        assert code in (0, 2, 3), (value, code, err)
        assert code == 0 or _names(err, section, key), (value, err)


def test_an_intensity_that_overflows_fails_its_sweep_point_alone(tmp_path, capsys):
    # 1e308 is finite, but the joint trace of such a source overflows
    raw = _config("sinusoid")
    raw["sweep"] = {"parameter": "modulation.intensity", "values": "1.0, 1e308"}
    path = tmp_path / "run.ini"
    path.write_text(_ini(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 5
    assert "Traceback" not in capsys.readouterr().err
    ok, refused = (out / "summary.csv").read_text().splitlines()[1:]
    assert ",ok," in ok and (out / "point_000" / "photons.txt").exists()
    assert _names(refused, "modulation", "intensity"), refused


# integer values too large for a float, kept out of VALUES: there a float
# key set to 1100 would start an 1100 s run
_HUGE = {
    "resolution_ns": ("sinusoid", "detection", "1" + "0" * 309),
    "quantization_bits": ("band_noise", "modulation", "1100"),
}


@pytest.mark.parametrize("key", sorted(_HUGE))
def test_integer_too_large_for_a_float_is_refused_by_name(tmp_path, capsys, key):
    kind, section, value = _HUGE[key]
    raw = _config(kind)
    raw.setdefault(section, {})[key] = value
    path = tmp_path / "run.ini"
    path.write_text(_ini(raw))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _names(err, section, key), err
    assert not (out / "photons.txt").exists()


@pytest.fixture(scope="module")
def photons(tmp_path_factory):
    """The lines of a 0.01 s photons.txt and the bytes of the same run's photons.bin."""
    tmp = tmp_path_factory.mktemp("photons")
    path = tmp / "run.ini"
    path.write_text(_ini(_config("sinusoid")))
    for fmt in ("text", "binary"):
        argv = ["simulate", "--config", str(path), "--format", fmt, "--out", str(tmp / fmt)]
        assert main(argv) == 0
    lines = (tmp / "text" / "photons.txt").read_text().splitlines()
    assert len(lines) > 200
    return lines, (tmp / "binary" / "photons.bin").read_bytes()


_TOP = 2**63 - 1
_OUTSIDE = "timestamp outside [0, 2**63 - 2**58) ns at"


def _at_100(lines, row):
    return [*lines[:99], row, *lines[99:]]


def _shift_last_to(lines, last):
    shift = last - int(lines[-1].split(",")[1])
    return [f"{ch},{int(t) + shift}" for ch, t in (line.split(",") for line in lines)]


# name -> (file extension, damaged content from (lines, blob), extra flags, message)
_DAMAGED = {
    "truncated-bin": ("bin", lambda lines, blob: blob[:-4], [], "truncated record {n} at byte"),
    "empty-bin": ("bin", lambda lines, blob: b"", [], "no events on channel 1"),
    "float": ("txt", lambda lines, blob: _at_100(lines, "1,1.5"), [], "line 100: malformed record"),
    "nan": ("txt", lambda lines, blob: _at_100(lines, "1,nan"), [], "line 100: malformed record"),
    "twenty-digit": (
        "txt",
        lambda lines, blob: _at_100(lines, "1,99999999999999999999"),
        [],
        "line 100: malformed record",
    ),
    # the last event 100 ns short of 2**63: the correlator's window would wrap
    "shifted-to-the-limit": (
        "txt",
        lambda lines, blob: _shift_last_to(lines, 2**63 - 101),
        ["--duration-s", "0.01"],
        f"{_OUTSIDE} line 1",
    ),
    "near-limit": ("txt", lambda lines, blob: [*lines, f"1,{_TOP}"], [], f"{_OUTSIDE} line {{n}}"),
    "near-limit-bin": (
        "bin",
        lambda lines, blob: blob + _TOP.to_bytes(8, "little") + b"\x01",
        [],
        f"{_OUTSIDE} record {{n}}",
    ),
    "negative": ("txt", lambda lines, blob: ["1,-5", *lines], [], f"{_OUTSIDE} line 1"),
    "unknown-channel": (
        "txt",
        lambda lines, blob: _at_100(lines, "3," + lines[99].split(",")[1]),
        [],
        "invalid channel 3 at line 100",
    ),
    "unknown-channel-bin": (
        "bin",
        lambda lines, blob: blob[: 9 * 99 + 8] + b"\x03" + blob[9 * 99 + 9 :],
        [],
        "invalid channel 3 at record 100",
    ),
    "unsorted": (
        "txt",
        lambda lines, blob: [*lines[:99], lines[100], lines[99], *lines[101:]],
        [],
        "timestamps not sorted at line 101",
    ),
    "three-columns": (
        "txt",
        lambda lines, blob: _at_100(lines, lines[99] + ",7"),
        [],
        "line 100: expected 2 columns, found 3",
    ),
    "tabs": (
        "txt",
        lambda lines, blob: [line.replace(",", "\t") for line in lines],
        [],
        "line 1: malformed record",
    ),
    "one-channel": (
        "txt",
        lambda lines, blob: [line for line in lines if line.startswith("1,")],
        [],
        "no events on channel 2",
    ),
}


def _write(path, content) -> int:
    """Write damaged content; the number of its last line or record, maybe a partial one."""
    if isinstance(content, bytes):
        path.write_bytes(content)
        return -(-len(content) // 9)
    path.write_text("".join(line + "\n" for line in content))
    return len(content)


def _refuse(tmp_path, capsys, photons, case):
    ext, damage, flags, message = _DAMAGED[case]
    path = tmp_path / f"photons.{ext}"
    n = _write(path, damage(*photons))
    out = tmp_path / "out"
    assert main(["analyze", str(path), *flags, "--out", str(out)]) == 3
    assert f"data error: {path}: {message.format(n=n)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_DAMAGED))
def test_damaged_photon_file_is_refused_by_line_or_record(tmp_path, capsys, photons, case):
    _refuse(tmp_path, capsys, photons, case)


@pytest.mark.parametrize("case", sorted(_DAMAGED))
def test_damaged_photon_file_names_the_same_fault_in_small_chunks(
    tmp_path, capsys, monkeypatch, photons, case
):
    # line or record 100 opens a chunk of 3 and sits inside one of 7
    for chunk in (3, 7):
        monkeypatch.setattr("superbunch.detection._CHUNK_RECORDS", chunk)
        (tmp_path / str(chunk)).mkdir()
        _refuse(tmp_path / str(chunk), capsys, photons, case)


_EDGE = 7  # the chunk size of the edge cases: record 8 opens the second chunk


def _swap_at_edge(items: list) -> list:
    return [*items[: _EDGE - 1], items[_EDGE], items[_EDGE - 1], *items[_EDGE + 1 :]]


def _records(blob: bytes) -> list:
    return [blob[i : i + 9] for i in range(0, len(blob), 9)]


def _line_8(lines, row):
    return [*lines[:_EDGE], row, *lines[_EDGE + 1 :]]


# name -> (file extension, damaged content from (lines, blob), message)
_AT_EDGE = {
    "unsorted": (
        "txt",
        lambda lines, blob: _swap_at_edge(lines),
        "timestamps not sorted at line 8",
    ),
    "unsorted-bin": (
        "bin",
        lambda lines, blob: b"".join(_swap_at_edge(_records(blob))),
        "timestamps not sorted at record 8",
    ),
    "unknown-channel": (
        "txt",
        lambda lines, blob: _line_8(lines, "3," + lines[_EDGE].split(",")[1]),
        "invalid channel 3 at line 8",
    ),
    "unknown-channel-bin": (
        "bin",
        lambda lines, blob: blob[: 9 * _EDGE + 8] + b"\x03" + blob[9 * _EDGE + 9 :],
        "invalid channel 3 at record 8",
    ),
    "float": ("txt", lambda lines, blob: _line_8(lines, "1,1.5"), "line 8: malformed record"),
    # each chunk of 3 columns loads: the reader must check a chunk's width
    "three-columns-on": (
        "txt",
        lambda lines, blob: [*lines[:_EDGE], *(line + ",7" for line in lines[_EDGE:])],
        "line 8: expected 2 columns, found 3",
    ),
}


@pytest.mark.parametrize("chunk", [None, _EDGE])
@pytest.mark.parametrize("case", sorted(_AT_EDGE))
def test_fault_at_a_chunk_edge_is_named_as_in_one_chunk(
    tmp_path, monkeypatch, photons, case, chunk
):
    if chunk is not None:
        monkeypatch.setattr("superbunch.detection._CHUNK_RECORDS", chunk)
    ext, damage, message = _AT_EDGE[case]
    path = tmp_path / f"photons.{ext}"
    _write(path, damage(*photons))
    with pytest.raises(DataError) as err:
        read_photon_stream(path)
    assert str(err.value) == f"{path}: {message}"
