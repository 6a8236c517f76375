"""Typed errors shared by the pellucas modules."""


class SearchCapExceeded(RuntimeError):
    """A bounded search reached its cap before it could decide.

    The CLI maps this error to exit code 4.
    """


class InvariantError(ArithmeticError):
    """An arithmetic invariant failed.

    Raised by explicit checks rather than ``assert``, so that the invariants
    still hold under ``python -O``.
    """
