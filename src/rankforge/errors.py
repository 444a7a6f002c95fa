"""Exception hierarchy shared across the package."""


class RankforgeError(Exception):
    """Base class for all errors raised by this package."""


# finite fields

class CompositeCharacteristic(RankforgeError):
    """Characteristic is not an odd prime."""


class ReducibleModulus(RankforgeError):
    """Field modulus factors over the prime field."""


class FieldMismatch(RankforgeError):
    """Operands belong to different fields."""


class DivisionByZero(RankforgeError, ZeroDivisionError):
    """Division by the zero element."""


# polynomials

class EvenCharacteristic(RankforgeError):
    """A residue field O_K/P above 2 was asked for; Dedekind factorization
    and enumeration handle p = 2, but no residue field is built there."""


class ZeroPolynomial(RankforgeError):
    """Operation undefined for the zero polynomial."""


class ZeroLeadingCoefficient(RankforgeError):
    """Leading coefficient must be nonzero."""


# number fields

class DenominatorNotInvertible(RankforgeError):
    """A coefficient denominator is divisible by the residue characteristic."""


class NotKnownIrreducible(RankforgeError):
    """Minimal polynomial could not be certified irreducible over Q."""


# family construction

class RepeatedRoot(RankforgeError):
    """Two of the six requested roots coincide."""


class ZeroRoot(RankforgeError):
    """A requested root is zero."""


class ZeroAlpha(RankforgeError):
    """The leading-coefficient square root is zero."""


class InternalIdentityFailure(RankforgeError):
    """An exact identity failed: the re-expansion of the constructed family,
    or the direct and analytic A_p sums of one ideal; indicates a bug."""


class BadPrime(RankforgeError):
    """Prime ideal is in the family's exceptional set."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


# arguments

class InvalidArgument(RankforgeError):
    """An argument is malformed or out of range; raised before any work."""
