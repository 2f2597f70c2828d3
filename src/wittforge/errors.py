"""Exception hierarchy. Every library error derives from WittforgeError;
``number_text`` writes the numbers in their messages."""


class WittforgeError(Exception):
    pass


def number_text(x) -> str:
    """``str(x)`` of an int or a Fraction, an integer too long for ``str`` named by its size."""
    try:
        return str(x)
    except ValueError:
        if x.denominator != 1:
            return number_text(x.numerator) + "/" + number_text(x.denominator)
        return f"<{x.numerator.bit_length()}-bit integer>"


# -- field tower / square class errors ------------------------------------

class ZeroElement(WittforgeError):
    pass


class UnknownVariable(WittforgeError):
    pass


class FieldMismatch(WittforgeError):
    pass


class InfiniteSquareClassGroup(WittforgeError):
    pass


class NotLaurent(WittforgeError):
    pass


class DeltaIsSquare(WittforgeError):
    pass


class UnsupportedDelta(WittforgeError):
    pass


class FactorBoundExceeded(WittforgeError):
    pass


class InvalidFactorBound(WittforgeError):
    """WITTFORGE_FACTOR_BOUND is set, but not to a non-negative integer."""


class PrimalityBoundExceeded(WittforgeError):
    """Too large for the proven range of the deterministic primality test."""


class UnrepresentableClass(WittforgeError):
    """No prime-field constant times a monomial represents the class."""


class ExponentOutOfRange(WittforgeError):
    """A Laurent exponent too large for exact packed arithmetic:
    |e| >= ``laurent.EXP_LIMIT``."""


# -- quadratic form errors -------------------------------------------------

class Degenerate(WittforgeError):
    pass


class NotSymmetric(WittforgeError):
    pass


class ZeroScale(WittforgeError):
    pass


class ZeroSlot(WittforgeError):
    pass


class NoSplit(WittforgeError):
    pass


class WitnessUnsupported(WittforgeError):
    pass


# -- rational local-global errors -------------------------------------------

class ZeroArgument(WittforgeError):
    pass


# -- composition algebra errors ---------------------------------------------

class AlgebraMismatch(WittforgeError):
    pass


class DimTooLarge(WittforgeError):
    pass


class UnsupportedDim(WittforgeError):
    pass


# -- torus type layer errors --------------------------------------------------

class UnsupportedCubic(WittforgeError):
    pass


class NotSeparable(WittforgeError):
    pass


class LambdaNotUnit(WittforgeError):
    pass


class PreconditionFailed(WittforgeError):
    pass


class InternalInconsistency(WittforgeError):
    """Computed evidence contradicts a theorem a verdict rests on."""


# -- CLI / DSL ----------------------------------------------------------------

class ParseError(WittforgeError):
    """Raised by the DSL parsers; carries the offending position."""

    def __init__(self, message, text="", pos=0):
        super().__init__(message)
        self.message = message
        self.text = text
        self.pos = pos

    def caret_message(self):
        lines = [f"parse error: {self.message}"]
        if self.text:
            lines.append("  " + self.text)
            lines.append("  " + " " * self.pos + "^")
        return "\n".join(lines)
