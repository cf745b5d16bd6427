"""The CSV format of every input file and artifact: one reader, one writer;
and the one reader and writer of the JSON artifacts.

A table is a header line, then one line per row of comma-separated fields,
quoted as ``csv`` quotes them.  The first field of a row is its key (a pump
id, a feature name); the others are integers, numbers or labels.  Floats are
written as ``repr(float(v))``, the shortest text that reads back to the same
value, so every table round-trips exactly.  A JSON artifact is strict JSON (no
``NaN`` or ``Infinity``), indented by two spaces, with one final newline.
Both writers make the file's directory, so the first artifact a run writes
makes the output directory.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

_BLOCK_LINES = 2**12  # lines per np.loadtxt call, and the span of an error search
_DTYPES = {int: np.int64, float: np.float64}  # any other kind is an Enum of labels


@dataclass(frozen=True, eq=False)
class Table:
    """A parsed table; row r of every column is line r + 2 of the file.

    Parsing stops at the first malformed line, so the columns and ``keys``
    hold the rows before it and ``errors`` names it.
    """

    path: Path
    header: tuple[str, ...]
    keys: list[str]  # distinct first fields of the parsed rows, in first-appearance order
    columns: tuple[np.ndarray, ...]  # each row's key index, then each other field
    errors: list[tuple[int, str]]  # (line, message); line 0 is the file itself

    def repeated_keys(self) -> list[tuple[int, str]]:
        """An error at the first line whose key an earlier line already had."""
        code = self.columns[0]
        # keys are coded in order of appearance, so until the first repeat
        # row r opens a new key and has code r
        return [
            (int(r) + 2, f"{self.header[0]} {self.keys[code[r]]} repeats line {code[r] + 2}")
            for r in np.flatnonzero(code != np.arange(len(code)))[:1]
        ]

    def raise_first(self, errors: Iterable[tuple[int, str]] = ()) -> None:
        """Raise the error, of the parse's and ``errors``, that comes first."""
        errors = [*self.errors, *errors]
        if errors:
            line, message = min(errors, key=lambda e: e[0])
            raise DataError(f"{self.path}{f' line {line}' if line else ''}: {message}")


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds a byte that is not UTF-8: a file opened with
    ``errors="surrogateescape"`` holds each as a lone surrogate, which does
    not encode."""
    try:
        return text.isascii() or bool(text.encode())
    except UnicodeEncodeError:
        return False


def _line_error(line: str, header: Sequence[str], kinds: Sequence) -> str:
    """Why a line that ``np.loadtxt`` rejected is malformed."""
    if not _is_utf8(line):
        return "not UTF-8 text"
    fields = next(csv.reader([line]), [])
    if len(fields) != len(header):
        return f"expected {len(header)} fields, got {len(fields)}"
    for name, kind, text in zip(header[1:], kinds, fields[1:]):
        try:
            _DTYPES.get(kind, kind)(text)
        except (ValueError, OverflowError):
            what = {int: "an integer", float: "a number"}.get(kind)
            return f"{name} {text!r} is not {what or 'one of ' + ', '.join(m.value for m in kind)}"
    return "malformed line"


def _parse_lines(lines: list[str], dtype, converters) -> np.ndarray | None:
    """The lines as rows of ``dtype``; None unless every line is one row."""
    if not lines:
        return np.empty(0, dtype)
    # loadtxt would skip a blank line, and take a byte that is not UTF-8
    # as part of a pump id
    if any(map(str.isspace, lines)) or not _is_utf8("".join(lines)):
        return None
    try:
        # the last line is parsed twice over, so that a quoted field it
        # leaves open swallows the copy, wherever a block ends
        rows = np.loadtxt(
            lines + lines[-1:], dtype, delimiter=",", comments=None, quotechar='"',
            converters=converters, ndmin=1,
        )
    except ValueError:
        return None
    return rows[:-1] if len(rows) == len(lines) + 1 else None


def _parse_block(lines: list[str], dtype, converters) -> tuple[np.ndarray, int]:
    """The rows of the lines before the first malformed one, and that
    line's index (``len(lines)`` when every line parses)."""
    rows = _parse_lines(lines, dtype, converters)
    if rows is not None:
        return rows, len(lines)
    # a malformed block: find its first malformed line one line at a time
    good = next(i for i, line in enumerate(lines) if _parse_lines([line], dtype, converters) is None)
    return _parse_lines(lines[:good], dtype, converters), good


def _row_type(names: Sequence[str], kinds: Sequence) -> tuple[tuple, np.dtype]:
    """Each non-key field's kind, and the dtype of a row."""
    kinds = (*kinds, *kinds[-1:] * len(names))[: max(len(names) - 1, 0)]
    fields = [("key", np.int32)] + [(f"f{i}", _DTYPES.get(k, object)) for i, k in enumerate(kinds)]
    return kinds, np.dtype(fields)


def _columns(dtype: np.dtype, n_rows: int) -> tuple[np.ndarray, ...]:
    """One uninitialised column of ``n_rows`` per field of a row dtype."""
    return tuple(np.empty(n_rows, dtype[name]) for name in dtype.names)


def _line_count(fh) -> int:
    """The lines of a text file, split as iterating it splits them (at LF,
    CRLF or a bare CR)."""
    count = 0
    for count, _ in enumerate(fh, start=1):
        pass
    return count


def read_table(path: str | Path, header: Sequence[str] | None, kinds: Sequence) -> Table:
    """Parse a CSV table into one contiguous column per field.

    ``header`` is the expected header line, or None to take the file's.
    ``kinds`` gives each field after the key: ``int``, ``float`` or an
    ``Enum`` of labels, the last one repeating for any further fields.  The
    lines are counted first, then parsed in blocks of ``_BLOCK_LINES``, one
    ``np.loadtxt`` call each, straight into one preallocated column per
    field, so no more than one block is held twice.  A missing or empty
    file, a wrong header, a line that is not UTF-8 text, a wrong field count
    or a value that does not parse is returned as an error, not raised, so
    that the caller raises whichever of these and its own errors comes first
    in the file.
    """
    path = Path(path)
    codes = defaultdict()
    codes.default_factory = codes.__len__  # a new key takes the next code
    names, errors, filled, columns = list(header or ()), [], 0, ()
    try:
        with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
            n_lines = _line_count(fh)
            fh.seek(0)
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                errors.append((0, "empty file"))
            elif not _is_utf8(",".join(found)):
                errors.append((1, "not UTF-8 text"))
            elif header is None and found:
                names = found
            elif found != names or not found:
                expected = f"header {','.join(names)}" if names else "a header line"
                errors.append((1, f"expected {expected}, got {','.join(found)}"))
            row_kinds, dtype = _row_type(names, kinds)
            converters = {i: k for i, k in enumerate(row_kinds, 1) if k not in _DTYPES}
            converters[0] = codes.__getitem__
            columns = _columns(dtype, n_lines - reader.line_num)
            while not errors and (lines := list(islice(fh, _BLOCK_LINES))):
                rows, n_good = _parse_block(lines, dtype, converters)
                for column, name in zip(columns, dtype.names):
                    column[filled : filled + n_good] = rows[name]
                filled += n_good
                if n_good < len(lines):
                    errors.append((filled + 2, _line_error(lines[n_good], names, row_kinds)))
                del lines, rows  # not held while the next block is read
    except FileNotFoundError:
        errors.append((0, "file not found"))
    except OSError as exc:
        errors.append((0, f"cannot read ({exc.strerror})"))
    columns = tuple(c[:filled] for c in columns or _columns(_row_type(names, kinds)[1], 0))
    # a malformed line's key may have taken a code; the parsed rows hold a
    # prefix of the codes, since keys are coded in order of appearance
    n_keys = int(columns[0].max()) + 1 if filled else 0
    return Table(path, tuple(names), list(codes)[:n_keys], columns, errors)


def _new_file(path: str | Path) -> Path:
    """``path``, once its directory exists."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header line and one line per row, making the file's
    directory if need be; floats as ``repr(float(v))``."""
    with _new_file(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def write_json(path: str | Path, value) -> None:
    """Write ``value`` as a JSON artifact, making the file's directory if need
    be; a NaN or infinity is a ValueError."""
    text = json.dumps(value, indent=2, allow_nan=False) + "\n"
    _new_file(path).write_text(text, encoding="utf-8")


def read_json(path: str | Path):
    """A JSON artifact's value; a missing, unreadable or malformed file is a
    DataError naming the file (and, for malformed JSON, the line)."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} line {exc.lineno}: {exc.msg}") from None
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None
