"""Count code lines: the lines of Python source that hold a token that is not a comment or a string.

  python3 tools/codelines.py            each module of src/superbunch, then their total
  python3 tools/codelines.py PATH ...   each .py file given, or under a directory given,
                                        then their total

A blank line, a comment, a docstring and each line of a string spread
over several lines count nothing.  Before Python 3.12 an f-string is one
STRING token; from 3.12 it is split into FSTRING_START, its parts and
FSTRING_END, with the names and operators of its fields among them.  So
every token from FSTRING_START to FSTRING_END counts as string, and each
version counts the same lines.  Standard library only.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superbunch"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.STRING,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path) -> int:
    """The number of lines of the Python file `path` that hold a code token."""
    lines = set()
    fstrings = 0  # f-strings open at this token: a field may hold another
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            name = tokenize.tok_name[token.type]
            if name == "FSTRING_START":
                fstrings += 1
            elif name == "FSTRING_END":
                fstrings -= 1
            elif not fstrings and token.type not in _NOT_CODE:
                lines.add(token.start[0])
    return len(lines)


def _files(paths) -> list:
    """(label, path) of each file: a directory's files are labelled from its own name."""
    files = []
    for path in map(Path, paths):
        if path.is_dir():
            files += [(f.relative_to(path.parent), f) for f in sorted(path.rglob("*.py"))]
        else:
            files.append((path, path))
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("paths", nargs="*", default=[str(PACKAGE)], help="files or directories")
    args = parser.parse_args(argv)
    total = 0
    for label, path in _files(args.paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {label}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
