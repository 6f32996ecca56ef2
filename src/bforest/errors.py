"""Exception types shared across the package."""


class BforestError(Exception):
    """Base class for all package-specific errors."""


class Refusal(BforestError):
    """A spec, order or request outside what a path answers; any other BforestError is a bug."""


class SpecError(Refusal, ValueError):
    """Invalid bicirculant connection data."""


class HalfWithoutEvenN(SpecError):
    pass


class OutOfRange(SpecError):
    pass


class NotConnected(Refusal, ValueError):
    pass


class ZeroPolynomial(BforestError, ValueError):
    pass


class InexactDivision(BforestError, ArithmeticError):
    pass


class DegenerateSystem(Refusal, ArithmeticError):
    pass


class NonIntegralResult(BforestError, ArithmeticError):
    pass


class NonConvergence(Refusal, ArithmeticError):
    pass


class NotAPerfectSquare(BforestError, ArithmeticError):
    pass


class NonDivisible(BforestError, ArithmeticError):
    pass


class NonPositiveStructure(BforestError, ArithmeticError):
    pass


class OrderExceeded(Refusal, ValueError):
    pass


class NonMonicDenominator(BforestError, ValueError):
    """A generating-function denominator without constant term 1."""


class InvariantViolation(BforestError, ArithmeticError):
    """An identity the mathematics guarantees failed: a bug, not bad input."""


__all__ = [name for name, value in globals().items() if isinstance(value, type)]
