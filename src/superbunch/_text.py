"""The one writer of numeric text tables.

photons.txt and the g2, histogram, theory and intensity CSVs all go
through `write_csv`: a float cell is `repr(float)`, the shortest string
that reads back to the same double; an integer cell is plain decimal.
Rows are formatted and written in bounded chunks, each by one %-format
string, so a file of millions of rows never exists as one string in
memory.
"""

from itertools import chain

import numpy as np

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
