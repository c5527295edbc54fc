"""The one reader and writer of numeric text tables.

photons.txt and the g2, histogram, theory and intensity CSVs all go
through `write_csv`: a float cell is `repr(float)`, the shortest string
that reads back to the same double; an integer cell is plain decimal,
the bytes `%d` gives.  Rows are formatted and written in bounded chunks,
so a file of millions of rows never exists as one string in memory.  A
table with a float column formats each chunk with one %-format string,
as `repr` has no vectorized equivalent.  A table of integer columns
only (photons.txt) formats each chunk in numpy, as one uint8 matrix of
ASCII bytes (`_int_rows`).

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

_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # |x| < _POW10[k] has at most k + 1 digits
_QUAD = np.uint64(10**4)
_QUADS = np.array([b"%04d" % q for q in range(10**4)], dtype="S4").view(np.uint32)
_RAMP = np.arange(21, dtype=np.uint8)  # byte offsets in a cell: 20 digits and a sign


def _is_int(column: np.ndarray) -> bool:
    return column.dtype.kind in "iu"


def _decimal(column: np.ndarray):
    """The decimal cells of an integer column, right-aligned.

    Returns (text, width, negative): `text` is an (n, 4k) uint8 matrix
    whose row i ends in the ASCII digits of |column[i]|, zero-padded on
    the left; `width` is each cell's length with its sign, an array, or
    one int when every cell has the same length; `negative` is a mask,
    or None when no cell is negative.
    """
    magnitude = column.astype(np.uint64)  # -2**63 wraps to 2**63, its magnitude
    negative = None
    if column.dtype.kind == "i" and column.min() < 0:
        negative = column < 0
        np.negative(magnitude, out=magnitude, where=negative)
    lo, hi = np.searchsorted(_POW10, [magnitude.min(), magnitude.max()], side="right") + 1
    if negative is None and lo == hi:
        width = int(hi)
    else:
        width = (np.searchsorted(_POW10, magnitude, side="right") + 1).astype(np.uint8)
        if negative is not None:
            width += negative
    groups = -(-int(hi) // 4)
    quads = np.empty((column.size, groups), np.uint32)
    for g in range(groups - 1, -1, -1):
        rest = magnitude // _QUAD
        quads[:, g] = _QUADS.take((magnitude - rest * _QUAD).view(np.int64))
        magnitude = rest
    return quads.view(np.uint8), width, negative


def _int_rows(columns) -> np.ndarray:
    """The rows of equal-length integer columns as `%d` writes them, in ASCII bytes.

    Every row is first laid out in one uint8 matrix at the widest cell
    of each column, right-aligned.  When every cell of a column has the
    same width, as for sorted timestamps between two powers of ten, the
    matrix is the text; otherwise a mask drops each narrower cell's
    leading pad bytes.
    """
    cells = [_decimal(c) for c in columns]
    tops = [int(np.max(width)) for _, width, _ in cells]
    out = np.empty((columns[0].size, sum(tops) + len(tops)), np.uint8)
    keep = None
    at = 0
    for (text, width, negative), top in zip(cells, tops):
        field = out[:, at : at + top]
        # a sign slot left of the digits is set to "-" or dropped by the mask
        digits = min(top, text.shape[1])
        field[:, top - digits :] = text[:, text.shape[1] - digits :]
        if negative is not None:
            rows = np.flatnonzero(negative)
            field[rows, top - width[rows]] = ord("-")
        if np.ndim(width):
            if keep is None:
                keep = np.ones(out.shape, dtype=bool)
            np.greater_equal(_RAMP[:top], (top - width)[:, None], out=keep[:, at : at + top])
        out[:, at + top] = ord(",")
        at += top + 1
    out[:, -1] = ord("\n")
    return out if keep is None else out[keep]


def _float_rows(columns) -> bytes:
    """The rows of equal-length columns by one %-format string: %d for integers, %r for floats."""
    row_fmt = ",".join("%d" if _is_int(c) else "%r" for c in columns) + "\n"
    # Python ints and floats: %d of an int is str(int), %r of a float is repr(float)
    cells = [c.tolist() if _is_int(c) else c.astype(float, copy=False).tolist() for c in columns]
    rows = len(cells[0])
    return ((row_fmt * rows) % tuple(chain.from_iterable(zip(*cells)))).encode()


def write_csv(path, header, *columns) -> None:
    """Write equal-length columns as rows; `header` is a tuple of names or None."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].shape[0]
    if any(c.shape != (n,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    rows = _int_rows if all(_is_int(c) for c in columns) else _float_rows
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode())
        for a in range(0, n, _CHUNK_ROWS):
            fh.write(rows([c[a : a + _CHUNK_ROWS] for c in columns]))


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
