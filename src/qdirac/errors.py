"""Exception types shared across the package."""

from __future__ import annotations


class QDiracError(Exception):
    """Base class for all package errors."""


def show_dim(d) -> str:
    """A dim, a tuple of dims or other text for an error message.  A dim
    above 2^64 is written 2^k (~2^k unless it is a power of two): in decimal
    it would be hundreds of digits long, and past Python's int-string limit
    it could not be written at all."""
    if isinstance(d, tuple):
        return "(" + ", ".join(map(show_dim, d)) + ")"
    if isinstance(d, int) and d > 1 << 64:
        k = d.bit_length() - 1
        return f"2^{k}" if d == 1 << k else f"~2^{k}"
    return str(d)


class DimMismatch(QDiracError):
    def __init__(self, expected, got, position: str = ""):
        self.expected = expected
        self.got = got
        self.position = position
        msg = f"dimension mismatch: expected {show_dim(expected)}, got {show_dim(got)}"
        if position:
            msg += f" at {position}"
        super().__init__(msg)


class UnknownGate(QDiracError):
    pass


class UnboundAtom(QDiracError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound atom: {name}")


class NotAVector(QDiracError):
    pass


class NotAnOperator(QDiracError):
    pass


class NotInReducedShape(QDiracError):
    pass


class FuelExhausted(QDiracError):
    """`where` names the node whose evaluation ran out."""

    def __init__(self, budget: int, where: str):
        self.budget = budget
        self.where = where
        super().__init__(f"rewrite fuel exhausted (budget {budget}) at {where}")


class InvalidQubitIndex(QDiracError):
    pass


class NonInvertibleScalar(QDiracError):
    pass


class UnknownCase(QDiracError):
    pass


class ParseError(QDiracError):
    def __init__(self, message: str, line: int = 1, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")
