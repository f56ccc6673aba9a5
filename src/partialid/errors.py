"""Exception types, and the number checks, shared across the package."""

import math
import operator

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
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
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
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def check_finite(**values) -> None:
    """:class:`ParameterError` naming the first of ``values`` that is not a
    finite real number or an array of them; NaN, infinities and text fail."""
    for name, value in values.items():
        try:
            a = np.asarray(value)
            if a.dtype.kind in "iuf" and np.isfinite(a).all():
                continue
        except ValueError:  # a ragged nesting of lists
            pass
        raise ParameterError(f"{name} must be finite, got {value!r}")
