import hashlib
import tracemalloc

import numpy as np
import pytest

from superbunch import _text
from superbunch._text import write_csv


def _percent_d(*columns) -> bytes:
    """The rows of integer columns as Python's %d writes them."""
    row = ",".join(["%d"] * len(columns)) + "\n"
    return "".join(row % cells for cells in zip(*(c.tolist() for c in columns))).encode()


def _written(tmp_path, *columns, header=None) -> bytes:
    path = tmp_path / "table.csv"
    write_csv(path, header, *columns)
    return path.read_bytes()


_EDGES = [0, 9, 10, 2**63 - 1, -(2**63), -1, -9, -10]
_EDGES += [s * (10**k + d) for k in range(1, 19) for d in (-1, 0, 1) for s in (1, -1)]


def test_integer_edges_match_percent_d(tmp_path):
    # every digit count, each side of each power of ten, and the int64 ends
    edges = np.array(_EDGES, dtype=np.int64)
    assert _written(tmp_path, edges) == _percent_d(edges)
    assert _written(tmp_path, edges, edges[::-1]) == _percent_d(edges, edges[::-1])


def test_uint64_edges_match_percent_d(tmp_path):
    top = np.iinfo(np.uint64).max
    edges = np.array([0, 9, 10, 10**19 - 1, 10**19, 10**19 + 1, 2**63, top - 1, top], np.uint64)
    assert _written(tmp_path, edges) == _percent_d(edges)
    assert _written(tmp_path, edges[::-1], edges) == _percent_d(edges[::-1], edges)


@pytest.mark.parametrize(
    "dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
)
def test_every_integer_dtype_matches_percent_d(tmp_path, dtype):
    info = np.iinfo(dtype)
    column = np.array([info.min, info.max, 0, 1, info.max // 10], dtype=dtype)
    assert _written(tmp_path, column, column[::-1]) == _percent_d(column, column[::-1])


def test_negative_and_unsorted_columns_match_percent_d(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.integers(-(10**6), 10**6, 500)
    b = rng.permutation(np.arange(-250, 250)) * 1001
    same_width = np.full(500, -7)  # negatives all one width
    assert _written(tmp_path, a, b, same_width) == _percent_d(a, b, same_width)


def test_a_chunk_whose_rows_change_width_every_row(tmp_path):
    # full-range values shifted by a random count: 1 to 20 digits, signs mixed
    rng = np.random.default_rng(4)
    n = 5000
    signed = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True) >> rng.integers(0, 64, n)
    unsigned = np.iinfo(np.uint64).max >> rng.integers(0, 64, n).astype(np.uint64)
    assert _written(tmp_path, signed, unsigned) == _percent_d(signed, unsigned)


def test_chunks_split_a_width_change(tmp_path, monkeypatch):
    # chunks of 7 two-column rows
    monkeypatch.setattr(_text, "SCRATCH_BYTES", 7 * 2 * _text._CELL_BYTES)
    column = np.arange(-40, 1200, 9)
    assert _written(tmp_path, column, column % 3) == _percent_d(column, column % 3)


def test_empty_table(tmp_path):
    empty = np.array([], dtype=np.int64)
    assert _written(tmp_path, empty, empty) == b""
    assert _written(tmp_path, empty, header=("a",)) == b"a\n"


def test_a_float_column_keeps_repr(tmp_path):
    ints = np.array([3, -12])
    floats = np.array([0.1 + 0.2, 1e-07])
    assert _written(tmp_path, ints, floats, header=("n", "x")) == (
        b"n,x\n3,0.30000000000000004\n-12,1e-07\n"
    )


def test_a_float_table_is_written_within_the_scratch_budget(tmp_path, monkeypatch):
    # 200,000 two-column float rows: chunks that fill SCRATCH_BYTES hold
    # about 2.1 MB of traced scratch, where 65536-row chunks held 8.4 MB
    t = np.arange(200_000) * 1e-6
    x = np.sin(t * 7e3) + 1.1
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        write_csv(path, ("t_s", "intensity"), t, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, f"peak {peak / 1e6:.2f} MB"
    # the chunking does not change the bytes
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    monkeypatch.setattr(_text, "SCRATCH_BYTES", 1 << 30)
    write_csv(path, ("t_s", "intensity"), t, x)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
