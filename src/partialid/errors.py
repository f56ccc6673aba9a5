"""Exception types, and the integer check, shared across the package."""

import operator


class ParameterError(ValueError):
    """An argument lies outside its documented domain."""


class SkipBudgetError(RuntimeError):
    """A batch exhausted its attempt cap; carries the skip and attempt counts."""

    def __init__(self, message, skipped=None, attempts=None):
        super().__init__(message)
        self.skipped = skipped
        self.attempts = attempts


def as_int(name: str, value) -> int:
    """``value`` as a Python int if it is an integer of any type (a numpy
    integer too); :class:`ParameterError` naming ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
