"""
Numeric CSV tables with one header line, shared by every CSV reader and
writer of the toolkit.

The reader checks the header on its own handle, then parses the body in
one `np.loadtxt` call. For a regular file named by a str or path-like
argument, that call gets the file's absolute path and skips the header
lines, so numpy's C reader pulls the text in chunks. Every other input
keeps an open handle, which numpy reads one Python line at a time: a
pipe (a FIFO, `/dev/stdin`, `<(...)`) cannot be opened twice, and a name
ending in `.gz`, `.bz2`, `.xz` or `.lzma` would be decompressed. A pipe
cannot rewind either, so its text is read once into a buffer that both
parses share. Only a file the fast parse rejects goes through the
`csv.reader` row loop, which finds the first offending record and names
it as `path:lineno`; the loop also accepts the few spellings `float()`
reads and `loadtxt` does not (quoted fields, digit separators such as
`1_000`).

The writer opens a table in binary mode with `_table`, which writes its
UTF-8 header line, and formats a block of rows per bytes `%` call
straight into the file; the bytes are those of `np.savetxt`. Bytes `%`
formats a float as str `%` does, and it skips the text layer's encoder
and the copy of each block into UTF-8. Every number is `%.<precision>g`
bytes (`_number_format`, `_texts`), so a writer that knows its table's
repeated columns, such as the workspace grid, composes its rows from the
same pieces.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import stat
import warnings

import numpy as np

# Rows formatted per write call by `write_numeric_csv`.
_WRITE_BLOCK_ROWS = 4096

# Suffixes that numpy's `np.loadtxt` decompresses when it opens a path.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_numeric_csv(path, columns, error, kind, integer_columns=()):
    """
    Read a CSV whose header is `columns` into an (n, len(columns)) float
    array. Blank lines are skipped. Every failure raises `error`: an empty
    file, a wrong header, a record with the wrong column count, a field
    that is not a number, a non-integral value in one of
    `integer_columns`, or a file without data rows.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            # A pipe cannot rewind for the row loop: read its text once.
            src = fh if regular else io.StringIO(fh.read(), newline="")
            reader = csv.reader(src)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty {kind} file")
            if [h.strip() for h in header] != list(columns):
                raise error(f"{path}: expected header '{','.join(columns)}'")
            name = _reopenable_path(path) if regular else None
            try:
                with warnings.catch_warnings():
                    # An empty body warns; the row loop reports it instead.
                    warnings.simplefilter("ignore", UserWarning)
                    if name is None:
                        data = np.loadtxt(src, delimiter=",", comments=None, ndmin=2)
                    else:
                        data = np.loadtxt(name, delimiter=",", comments=None, ndmin=2,
                                          skiprows=reader.line_num, encoding="utf-8")
            except ValueError:
                # Also a UnicodeDecodeError, which the row loop raises again.
                data = None
            if (data is None or data.shape[0] == 0 or data.shape[1] != len(columns)
                    or not all(_integral(data[:, c]) for c in integer_columns)):
                src.seek(0)
                data = _read_rows(src, path, columns, error, integer_columns)
    except UnicodeDecodeError:
        raise error(f"{path}: {kind} file is not valid UTF-8") from None
    return data


def write_numeric_csv(path, columns, data, precision: int) -> None:
    """Write a header line of `columns` and the rows of `data`, each
    number with `precision` significant digits. A 1-D `data` is one column.

    Each block of `_WRITE_BLOCK_ROWS` rows is formatted by one bytes `%`
    call on a row format repeated per row; the blocks keep the tuple of
    arguments a few thousand rows long."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    row_fmt = b",".join([_number_format(precision)] * data.shape[1]) + b"\n"
    with _table(path, columns) as fh:
        for start in range(0, data.shape[0], _WRITE_BLOCK_ROWS):
            block = data[start:start + _WRITE_BLOCK_ROWS]
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _number_format(precision: int) -> bytes:
    """The bytes `%` format of one number with `precision` significant digits."""
    return b"%%.%dg" % precision


def _texts(values, precision: int) -> list:
    """The bytes of each number of the 1-D array `values`, as written in a
    table with `precision` significant digits."""
    values = np.asarray(values, dtype=np.float64).tolist()
    line = _number_format(precision) + b"\n"
    return (line * len(values) % tuple(values)).split(b"\n")[:-1]


@contextlib.contextmanager
def _table(path, columns):
    """`path` opened in binary mode for a table with LF line ends, its
    UTF-8 header line of `columns` written."""
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("utf-8"))
        yield fh


def _reopenable_path(path):
    """
    The absolute path under which `np.loadtxt` may open a regular file
    again, or None: numpy would decompress a name with a compression
    suffix. The absolute path keeps numpy from taking a relative name
    such as `http://host/log.csv` for a URL.
    """
    if not isinstance(path, (str, os.PathLike)):
        return None
    name = os.fspath(path)
    if not isinstance(name, str) or os.path.splitext(name)[1] in _COMPRESSED_SUFFIXES:
        return None
    return os.path.abspath(name)


def _integral(values) -> bool:
    return bool(np.all(np.isfinite(values)) and np.all(values == np.trunc(values)))


def _read_rows(fh, path, columns, error, integer_columns):
    """Row-by-row parse of a file opened at its start; raises at the first bad record."""
    reader = csv.reader(fh)
    next(reader)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise error(f"{path}:{lineno}: expected {len(columns)} columns")
        try:
            values = [float(field) for field in row]
        except ValueError:
            raise error(f"{path}:{lineno}: malformed record") from None
        for c in integer_columns:
            if not values[c].is_integer():
                raise error(f"{path}:{lineno}: {columns[c]} must be an integer")
        rows.append(values)
    if not rows:
        raise error(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)
