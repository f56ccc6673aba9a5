"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument lies outside its documented domain."""


class DegenerateEstimateError(RuntimeError):
    """A set point estimate collapsed to an inverted interval."""


class SkipBudgetError(RuntimeError):
    """A batch exhausted its attempt cap; carries the skip and attempt counts."""

    def __init__(self, message, skipped=None, attempts=None):
        super().__init__(message)
        self.skipped = skipped
        self.attempts = attempts
