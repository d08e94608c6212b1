"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input violates a documented precondition (bad shape, zero column, ...)."""


class SolverError(RuntimeError):
    """An iterative solver failed to meet its tolerance within its budget."""


class ParseError(ValueError):
    """A matrix file could not be parsed.

    ``code`` is a stable machine-readable tag; ``line`` and ``column``
    are 1-based positions when they apply.
    """

    def __init__(self, message, code, line=None, column=None):
        super().__init__(message)
        self.code = code
        self.line = line
        self.column = column
