"""Exception types shared across the package."""


class FormatError(ValueError):
    """A file does not conform to its declared format."""


class DivergenceError(RuntimeError):
    """Numerical integration produced non-finite state."""
