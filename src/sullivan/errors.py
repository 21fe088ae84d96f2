"""Exception hierarchy shared by the whole package."""


class SullivanError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SullivanError):
    """User-supplied data is invalid (presentation, functional, expression)."""


class TruncationError(InputError):
    """A degree beyond the declared truncation was requested."""


class IntegrityError(SullivanError):
    """An internal consistency condition failed; the input object is corrupt."""


class ParseError(InputError):
    """Text input could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)
