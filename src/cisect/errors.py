"""Exception types shared across the package.

Every domain error derives from CisectError so callers can catch the whole
family at once; most also derive from the closest builtin (ValueError etc.)
so generic handling keeps working.
"""
from __future__ import annotations


class CisectError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(CisectError, ValueError):
    """The requested characteristic is not a prime number."""


class NotIrreducible(CisectError, ValueError):
    """A supplied modulus polynomial factors over the prime field."""


class BudgetExceeded(CisectError, ValueError):
    """An enumeration or construction would exceed the engine's hard caps."""


def _decimal(n: int, what: str) -> str:
    """n in decimal, or BudgetExceeded naming ``what`` past the 4300 digits
    Python prints, decided from the bit length before any string is formed."""
    if n.bit_length() >= 14285 and abs(n) >= 10**4300:  # 10^4300 has 14 285 bits
        digits = n.bit_length() * 30103 // 100000 + 1
        raise BudgetExceeded(f"{what} has about {digits} digits, more than the 4300 Python prints")
    return str(n)


class FieldMismatch(CisectError, ValueError):
    """Operands belong to different field specs."""


class ArityMismatch(CisectError, ValueError):
    """A coordinate or covector tuple has the wrong length."""


class PolyParseError(CisectError, ValueError):
    """Malformed polynomial text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExponentArityMismatch(PolyParseError):
    """A term's exponent list does not match the declared variable count."""


class CoefficientOutOfRange(PolyParseError):
    """A parsed coefficient falls outside [0, p)."""


class ParseError(CisectError, ValueError):
    """Malformed variety file; ``line`` is the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotHomogeneousGenerator(CisectError, ValueError):
    """Generator ``index`` is not homogeneous."""

    def __init__(self, index: int):
        super().__init__(f"generator {index} is not homogeneous")
        self.index = index


class ZeroGenerator(CisectError, ValueError):
    """Generator ``index`` is the zero polynomial."""

    def __init__(self, index: int):
        super().__init__(f"generator {index} is the zero polynomial")
        self.index = index


class InvalidGenerator(CisectError, ValueError):
    """Generator ``index`` is a nonzero constant (degree 0 is not allowed)."""

    def __init__(self, index: int):
        super().__init__(f"generator {index} is a nonzero constant")
        self.index = index


class DimensionMismatch(CisectError, ValueError):
    """Asserted dimension disagrees with nvars minus the generator count."""


class BadSingularDim(CisectError, ValueError):
    """Asserted singular dimension is outside the admissible range."""


class PointNotOnVariety(CisectError, ValueError):
    """A point handed to a Jacobian operation does not lie on the variety."""


class UnsupportedExtension(CisectError, ValueError):
    """Extension coefficients are only supported over prime base fields."""


class MissingBetti(CisectError, ValueError):
    """An estimate row needs a Betti number that was neither supplied nor derivable."""


class InvalidInput(CisectError, ValueError):
    """A numeric input is outside the formula's domain."""


class DimensionDriftWarning(UserWarning):
    """A point count drifted far from the expectation for the asserted dimension."""
