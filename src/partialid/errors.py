"""Exception types, and the package's input rules: one function a rule, each raising
:class:`ParameterError` naming the input it rejects."""

import math
import numbers
import operator
import reprlib

import numpy as np


class ParameterError(ValueError):
    """An argument lies outside its documented domain."""


class SkipBudgetError(RuntimeError):
    """A batch exhausted its attempt cap; carries the skip and attempt counts."""

    def __init__(self, message, skipped=None, attempts=None):
        super().__init__(message)
        self.skipped = skipped
        self.attempts = attempts


def as_int(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int if it is an integer of any type (a numpy
    integer too) of at least ``least``; :class:`ParameterError` naming
    ``name`` otherwise."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {reprlib.repr(value)}") from None
    if least is not None and number < least:
        raise ParameterError(f"{name} must be >= {least}, got {number}")
    return number


def check_positive(**values) -> None:
    """:class:`ParameterError` naming the first of ``values`` that is not a
    positive and finite real number; NaN, infinities, text and arrays fail."""
    for name, value in values.items():
        try:
            # NaN fails both comparisons; a one-number array passes them
            if 0 < value < math.inf and not isinstance(value, np.ndarray):
                continue
        except (TypeError, ValueError):  # text; an array of several numbers
            pass
        raise ParameterError(f"{name} must be positive and finite, got {reprlib.repr(value)}")


def as_reals(name: str, value) -> np.ndarray:
    """``value`` as a float array if it is a real number or an array of them,
    infinities and NaN included (booleans count as 0 and 1); :class:`ParameterError`
    naming ``name`` for text, ``None``, complex numbers or a ragged nesting of
    lists.  A float64 array comes back as it is, not copied."""
    try:
        a = np.asarray(value)
        if a.dtype.kind == "O" and all(isinstance(x, numbers.Real) for x in a.flat):
            a = a.astype(float)  # Python ints beyond int64, fractions
    except (ValueError, OverflowError):  # a ragged nesting of lists; an int beyond float
        a = None
    if a is None or a.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must be real numbers, got {reprlib.repr(value)}")
    return a.astype(float, copy=False)


def check_finite(**values) -> None:
    """:class:`ParameterError` naming the first of ``values`` that is not a
    finite real number or an array of them (:func:`as_reals`); NaN,
    infinities and text fail."""
    for name, value in values.items():
        try:
            if np.isfinite(as_reals(name, value)).all():
                continue
        except ParameterError:
            pass
        raise ParameterError(f"{name} must be finite, got {reprlib.repr(value)}")


def as_unit(name: str, value) -> np.ndarray:
    """``value`` as a float array (:func:`as_reals`) if every entry lies in [0, 1]."""
    a = as_reals(name, value)
    if not ((0 <= a) & (a <= 1)).all():  # NaN fails both
        raise ParameterError(f"{name} must lie in [0, 1]")
    return a


def as_level(name: str, value) -> float:
    """``value`` as a Python float if it is one real number in (0, 1]."""
    level = as_reals(name, value)
    if level.shape or not 0 < level <= 1:  # one number; NaN fails
        raise ParameterError(f"{name} must be one number in (0, 1], got {reprlib.repr(value)}")
    return float(level)


def as_grid(name: str, value) -> np.ndarray:
    """``value`` as a float array if it is 1-d, nonempty, strictly increasing and without NaN."""
    g = as_reals(name, value)
    # neighbours compared, not subtracted (inf - inf); a NaN fails a comparison, a lone one has none
    if g.ndim != 1 or not g.size or np.isnan(g[0]) or not (g[1:] > g[:-1]).all():
        raise ParameterError(f"{name} must be nonempty, 1-d, strictly increasing and without "
                             f"NaN, got {reprlib.repr(value)}")
    return g


def as_symmetric(name: str, value) -> np.ndarray:
    """``value`` as a float array if it is a finite, square and symmetric matrix."""
    check_finite(**{name: value})
    m = as_reals(name, value)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.array_equal(m, m.T):
        raise ParameterError(f"{name} must be a square symmetric matrix, got shape {m.shape}")
    return m
