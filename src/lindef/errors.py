"""Exception types shared across the package."""


class LindefError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LindefError):
    """Syntax error in a ring presentation, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class AlgebraError(LindefError):
    """Input does not define a commutative Artinian local algebra."""


class ResourceLimitError(LindefError):
    """A resource cap (pair limit, dimension cap, block size) was hit."""
