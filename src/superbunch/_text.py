"""The reader and writer of numeric text tables.

The g2, histogram, theory and intensity CSVs, float or mixed tables, go
through `write_csv`: a float cell is `repr(float)`, the shortest string
that reads back to the same double; an integer cell is plain decimal,
the bytes `%d` gives.  Each chunk of `_CHUNK_ROWS` rows is formatted
with one %-format string, as `repr` has no vectorized equivalent, and
written, so a file of millions of rows never exists as one string in
memory.  photons.txt is not written here: `detection` encodes its
checked records in numpy, in chunks of the same size.

`read_csv` reads the curve CSVs back with `np.loadtxt`, which skips
empty lines and `#` comments, and `read_blocks` photons.txt, the same
way but a block of rows at a time.  Only when a table fails to load is
the file read again, line by line, to name the line at fault; `line_of`
does the same for a row the caller rejects.
"""

import warnings
from itertools import chain, islice

import numpy as np

from .errors import DataError

_CHUNK_ROWS = 1 << 16


def _is_int(column: np.ndarray) -> bool:
    return column.dtype.kind in "iu"


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
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode())
        for a in range(0, n, _CHUNK_ROWS):
            fh.write(_float_rows([c[a : a + _CHUNK_ROWS] for c in columns]))


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


def read_blocks(path, columns: int, rows, *, dtype=float, header=None, exact=False):
    """Yield the table `read_csv` reads, a block of at most `rows` rows at a time.

    The blocks come from one open handle, through `np.loadtxt(max_rows=
    rows)`; `rows=None` reads the table as one block.  Each block is
    checked as `read_csv` checks its table.  A block of the wrong width
    names the line of its first row.  A block that fails to load names
    the first line of the file that np.loadtxt rejects: the blocks before
    it loaded, so that line is in this block.
    """
    skip = 0 if header is None else 1
    done = skip  # the rows, a header line included, before the block
    try:
        # opened here and not by np.loadtxt, whose missing-file error has no reason
        with open(path) as fh:
            if header is not None and not fh.readline().lower().startswith(header):
                raise DataError(f"{path}: expected a '{header},...' header")
            while True:
                try:
                    with warnings.catch_warnings():
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        # an empty or comment line is not a row, as max_rows counts
                        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
                        block = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2, max_rows=rows)
                except ValueError as exc:  # also a line that does not decode
                    raise DataError(f"{path}: {_fault(path, skip, dtype) or exc}") from None
                if block.size == 0:
                    break
                width = block.shape[1]
                if width < columns or (exact and width > columns):
                    least = "" if exact else "at least "
                    raise DataError(
                        f"{path}: line {line_of(path, done)}: "
                        f"expected {least}{columns} columns, found {width}"
                    )
                yield block
                done += block.shape[0]
                if rows is None or block.shape[0] < rows:
                    break
                del block  # before the next block is loaded
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    if done == skip:
        raise DataError(f"{path}: no data rows")


def read_csv(path, columns: int, *, dtype=float, header=None, exact=False) -> np.ndarray:
    """Read a comma-separated table of numbers as a 2-D array, one row per line.

    Each row has at least `columns` cells, or exactly `columns` with
    `exact`.  With `header` the first line must start with that text (in
    any case) and is not a row.  A missing file, a wrong header, a table
    with no rows, a cell that does not parse as `dtype` and a wrong
    number of cells each raise DataError naming the path, and the line
    when one is at fault.
    """
    (data,) = read_blocks(path, columns, None, dtype=dtype, header=header, exact=exact)
    return data


def line_of(path, row: int) -> int:
    """The line number of row `row` (from 0; a header line is row 0) of a table file."""
    with open(path) as fh:
        return next(islice(_rows(fh), row, None))[0]
