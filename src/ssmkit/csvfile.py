"""
Numeric CSV tables with one header line, shared by every CSV reader and
writer of the toolkit.

A valid file is parsed in one C-level `np.loadtxt` call. Only a file the
fast parse rejects goes through the `csv.reader` row loop, which finds the
first offending record and names it as `path:lineno`; the loop also
accepts the few spellings `float()` reads and `loadtxt` does not (quoted
fields, digit separators such as `1_000`).
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

# Rows formatted per write call by `write_numeric_csv`.
_WRITE_BLOCK_ROWS = 4096


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
            header = next(csv.reader(fh), None)
            if header is None:
                raise error(f"{path}: empty {kind} file")
            if [h.strip() for h in header] != list(columns):
                raise error(f"{path}: expected header '{','.join(columns)}'")
            try:
                with warnings.catch_warnings():
                    # An empty body warns; the row loop reports it instead.
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                # Also a UnicodeDecodeError, which the row loop raises again.
                data = None
            if (data is None or data.shape[0] == 0 or data.shape[1] != len(columns)
                    or not all(_integral(data[:, c]) for c in integer_columns)):
                fh.seek(0)
                data = _read_rows(fh, path, columns, error, integer_columns)
    except UnicodeDecodeError:
        raise error(f"{path}: {kind} file is not valid UTF-8") from None
    return data


def write_numeric_csv(path, columns, data, precision: int) -> None:
    """Write a header line of `columns` and the rows of `data`, each
    number with `precision` significant digits. A 1-D `data` is one column.

    Each block of `_WRITE_BLOCK_ROWS` rows is formatted by one `%` call on
    a row format repeated per row; the blocks keep the tuple of Python
    floats a few thousand rows long."""
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    row_fmt = ",".join(["%.{}g".format(precision)] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, data.shape[0], _WRITE_BLOCK_ROWS):
            block = data[start:start + _WRITE_BLOCK_ROWS]
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


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
