"""Exception types shared across the package."""


class LindefError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LindefError):
    """Syntax error in a ring presentation, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col

    def __reduce__(self):
        # args hold the formatted message, not __init__'s arguments:
        # rebuild without __init__, so the message as it stands (with any
        # prefix a caller added), line and col survive a pickle
        return _rebuild_parse_error, (type(self), self.args, self.line, self.col)


def _rebuild_parse_error(cls, args, line, col):
    err = cls.__new__(cls, *args)
    err.line = line
    err.col = col
    return err


class AlgebraError(LindefError):
    """Input does not define a commutative Artinian local algebra."""


class ResourceLimitError(LindefError):
    """A resource cap (pair limit, dimension cap, block size) was hit."""
