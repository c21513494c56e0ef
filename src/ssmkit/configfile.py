"""
Tiny `key = value` config format shared by the mechanism, transmission,
project and fit-report files. Lines starting with '#' are comments; values
keep whatever whitespace-separated tokens follow the '='. `read_config`
is the one reader: it checks a file's keys before any value is parsed.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import DomainError

# Significant digits of every emitted number, unless --precision or a
# project `precision` says otherwise; 17 digits round-trip every float64.
DEFAULT_PRECISION = 9
MAX_PRECISION = 17


def format_float(x: float, precision: int = DEFAULT_PRECISION) -> str:
    return "%.*g" % (precision, x)


def read_config(path, kind: str, required=(), optional=()) -> dict[str, str]:
    """
    The key = value pairs of a `kind` config file (later keys win). A line
    without '=', a required key that is absent (the first in `required`
    order), then any key in neither list, raises DomainError naming the
    file.
    """
    kv: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DomainError(f"{path}: config file is not valid UTF-8") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    for key in required:
        if key not in kv:
            raise DomainError(f"{kind} {path}: missing key {key!r}")
    unknown = set(kv).difference(required, optional)
    if unknown:
        raise DomainError(f"{kind} {path}: unknown keys {sorted(unknown)}")
    return kv


def write_kv(path, items, comments=()) -> None:
    """Write comment lines followed by key = value lines."""
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{k} = {v}" for k, v in items)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_float(raw: str, key: str) -> float:
    """A finite number, or DomainError naming the key."""
    try:
        value = float(raw)
    except ValueError:
        raise DomainError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


def parse_precision(raw: str, key: str) -> int:
    """An integer from 1 to MAX_PRECISION, or DomainError naming the key."""
    try:
        value = float(raw)
    except ValueError:
        value = 0.0  # not a number: reported as below the minimum
    if not math.isfinite(value):
        raise DomainError(f"key {key!r}: expected a finite number, got {raw!r}")
    if value < 1 or not value.is_integer():
        bound = "at least 1"
    elif value > MAX_PRECISION:
        bound = f"at most {MAX_PRECISION}"
    else:
        return int(value)
    raise DomainError(f"key {key!r}: expected an integer of {bound}, got {raw!r}")


def parse_floats(raw: str, key: str, count: int) -> list[float]:
    parts = raw.replace(",", " ").split()
    if len(parts) != count:
        raise DomainError(f"key {key!r}: expected {count} numbers, got {len(parts)}")
    return [parse_float(tok, key) for tok in parts]
