"""The input rule of the exported functions and records: a number is a finite
real number (a bool is one, by Python's rule; text and complex values are
not), and an array holds such numbers in the shape the caller needs. The
readers raise DomainError naming the argument, or the error class a record's
contract names; `floats` imports numpy only when it runs."""

import math

from .errors import DomainError


def real(name: str, x, error=DomainError) -> float:
    """`x` as a finite float, or `error` naming `name`."""
    try:
        # A numpy complex scalar of any width has a dtype of kind "c".
        if (isinstance(x, (str, bytes, complex)) or getattr(x, "ndim", 0)
                or getattr(getattr(x, "dtype", None), "kind", "") == "c"):
            raise TypeError
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name}: expected a real number, got {x!r:.60}") from None
    if not math.isfinite(value):
        raise error(f"{name}: expected a finite number, got {value}")
    return value


def floats(name: str, v, shape=None, error=DomainError, finite=True):
    """`v` as a float array of `shape` (None: any; a leading None: any
    length), its entries finite unless `finite` is false, or `error`."""
    import numpy as np

    what = {(3,): "a 3-vector", (3, 3): "a 3x3 matrix"}.get(shape, "an array")
    try:
        array = np.asarray(v)
        if array.dtype.kind not in "biufO":  # text, or complex that astype truncates
            raise TypeError
        array = array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name}: expected {what} of real numbers, got {v!r:.60}") from None
    if shape and shape[0] is None and array.shape == (0,):
        array = array.reshape((0, *shape[1:]))  # an empty sequence: no rows
    if shape and (array.ndim != len(shape) or array.shape[1:] != shape[1:]
                  or shape[0] not in (None, array.shape[0])):
        raise error(f"{name}: expected {what}, got shape {array.shape}")
    # Python floats scan the 3- and 3x3 shapes several times faster than numpy.
    if finite and not (all(map(math.isfinite, array.ravel().tolist())) if array.size <= 9
                       else np.isfinite(array).all()):
        raise error(f"{name}: expected finite entries, got {array[~np.isfinite(array)][0]}")
    return array
