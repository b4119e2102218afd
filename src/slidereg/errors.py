"""Exception types shared across the package."""


class FormatError(ValueError):
    """A file does not conform to its declared format."""


class DivergenceError(RuntimeError):
    """Numerical integration produced non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
