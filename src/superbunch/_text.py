"""The one reader and writer of numeric text tables.

photons.txt and the g2, histogram, theory and intensity CSVs all go
through `write_csv`: a float cell is `repr(float)`, the shortest string
that reads back to the same double; an integer cell is plain decimal.
Rows are formatted and written in bounded chunks, each by one %-format
string, so a file of millions of rows never exists as one string in
memory.

`read_csv` reads photons.txt and the curve CSVs back with `np.loadtxt`,
which skips empty lines and `#` comments.  Only when a table fails to
load is the file read again, line by line, to name the line at fault;
`line_of` does the same for a row the caller rejects.
"""

import warnings
from itertools import chain, islice

import numpy as np

from .errors import DataError

_CHUNK_ROWS = 1 << 16


def _is_int(column: np.ndarray) -> bool:
    return column.dtype.kind in "iu"


def _cells(column: np.ndarray) -> list:
    # Python ints and floats: %d of an int is str(int), %r of a float is repr(float)
    if _is_int(column):
        return column.tolist()
    return column.astype(float, copy=False).tolist()


def write_csv(path, header, *columns) -> None:
    """Write equal-length columns as rows; `header` is a tuple of names or None."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].shape[0]
    if any(c.shape != (n,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    row_fmt = ",".join("%d" if _is_int(c) else "%r" for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for a in range(0, n, _CHUNK_ROWS):
            cells = [_cells(c[a : a + _CHUNK_ROWS]) for c in columns]
            rows = len(cells[0])
            fh.write((row_fmt * rows) % tuple(chain.from_iterable(zip(*cells))))


def _rows(fh):
    """(line number, cells) of each line of `fh` that np.loadtxt reads as a row."""
    for lineno, line in enumerate(fh, 1):
        text = line.rstrip("\n").split("#", 1)[0]
        if text:
            yield lineno, text.split(",")


def _fault(path, skip, dtype) -> str:
    """Name the first line past `skip` rows that np.loadtxt rejects; "" if none is found."""
    dtype = np.dtype(dtype)
    # an integer must also fit the dtype: Python's int never overflows
    number = (lambda cell: dtype.type(int(cell))) if dtype.kind in "iu" else float

    def parse(cell):
        # numpy strips the whitespace str.strip does, and then takes no
        # underscore or non-ASCII digit, where Python's int and float take both
        cell = cell.strip()
        if not cell.isascii() or "_" in cell:
            raise ValueError(cell)
        number(cell)

    width = None
    with open(path, errors="replace") as fh:  # an undecodable line is malformed
        for lineno, cells in islice(_rows(fh), skip, None):
            width = width or len(cells)
            if len(cells) != width:
                return f"line {lineno}: expected {width} columns, found {len(cells)}"
            try:
                for cell in cells:
                    parse(cell)
            except (ValueError, OverflowError):
                return f"line {lineno}: malformed record"
    return ""


def read_csv(path, columns: int, *, dtype=float, header=None, exact=False) -> np.ndarray:
    """Read a comma-separated table of numbers as a 2-D array, one row per line.

    Each row has at least `columns` cells, or exactly `columns` with
    `exact`.  With `header` the first line must start with that text (in
    any case) and is not a row.  A missing file, a wrong header, a table
    with no rows, a cell that does not parse as `dtype` and a wrong
    number of cells each raise DataError naming the path, and the line
    when one is at fault.
    """
    skip = 0 if header is None else 1
    try:
        # opened here and not by np.loadtxt, whose missing-file error has no reason
        with open(path) as fh:
            if header is not None and not fh.readline().lower().startswith(header):
                raise DataError(f"{path}: expected a '{header},...' header")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # also a line that does not decode
        raise DataError(f"{path}: {_fault(path, skip, dtype) or exc}") from None
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    width = data.shape[1]
    if width < columns or (exact and width > columns):
        first = line_of(path, skip)
        least = "" if exact else "at least "
        raise DataError(f"{path}: line {first}: expected {least}{columns} columns, found {width}")
    return data


def line_of(path, row: int) -> int:
    """The line number of row `row` (from 0; a header line is row 0) of a table file."""
    with open(path) as fh:
        return next(islice(_rows(fh), row, None))[0]
