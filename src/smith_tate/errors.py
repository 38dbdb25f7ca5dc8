"""Exception types shared across the toolkit.

Every operation that rejects its input raises one of these; report-style
operations (validate, smith_barcode_check, ...) return structured results
instead and raise only on malformed input.
"""


class SmithTateError(Exception):
    """Base class for all toolkit errors."""


class NotPrime(SmithTateError):
    """A modulus that must be prime is not."""


class PrimeTooLarge(SmithTateError):
    """A prime is too large for exact int64 matrix arithmetic, primality
    testing, or the p-linear work of the Morse model."""


class NotNilpotent(SmithTateError):
    """t^p != 0 where a nilpotent operator was required."""


class NotOrderP(SmithTateError):
    """sigma^p != identity where an order-p automorphism was required."""


class InvalidComplex(SmithTateError):
    """A complex violates the invariants required by the operation."""


class InadmissibleWindow(SmithTateError):
    """A window endpoint equals a spectrum (action) value."""


class FiltrationViolation(SmithTateError):
    """The differential breaks the filtration invariant."""


class NotSquareZero(SmithTateError):
    """An assembled differential does not square to zero."""


class SpectralEndpoint(SmithTateError):
    """A test point coincides with a bar endpoint (non-generic)."""


class EmptyBarcode(SmithTateError):
    """The statistic is undefined on an empty barcode."""


class UnknownProperty(SmithTateError):
    """fuzz was asked for a property name that is not registered."""


class UnknownCommand(SmithTateError):
    """dispatch received a subcommand it does not recognize."""


class MalformedInput(SmithTateError):
    """A JSON instance file does not match the documented format."""


class TooLarge(SmithTateError):
    """A requested size is above the limit the operation allows."""


def check_size(what: str, size: int, limit: int) -> None:
    """Raise TooLarge when size exceeds limit; call before allocating."""
    if size > limit:
        raise TooLarge(f"{what} is {size}, above the limit of {limit}")
