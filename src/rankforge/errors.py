"""Exception hierarchy shared across the package."""


class RankforgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(RankforgeError):
    """The caller's input is malformed or out of range; raised before any
    work. Every error that blames the input subclasses it, and the CLI
    exits 2 on it (1 on any other RankforgeError)."""


# finite fields

class CompositeCharacteristic(InvalidArgument):
    """Characteristic is not an odd prime."""


class ReducibleModulus(InvalidArgument):
    """Field modulus factors over the prime field."""


class FieldMismatch(RankforgeError):
    """Operands belong to different fields: two number fields, two finite
    fields, or one of each (poly.FieldElem, for KElem and FqElem alike)."""


class DivisionByZero(RankforgeError, ZeroDivisionError):
    """Division by zero: the inverse of the zero element of K or F_q
    (poly.FieldElem), or a polynomial divided by the zero polynomial."""


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


class NotKnownIrreducible(InvalidArgument):
    """Minimal polynomial could not be certified irreducible over Q."""


# family construction

class RepeatedRoot(InvalidArgument):
    """Two of the six requested roots coincide."""


class ZeroRoot(InvalidArgument):
    """A requested root is zero."""


class ZeroAlpha(InvalidArgument):
    """The leading-coefficient square root is zero."""


class InternalIdentityFailure(RankforgeError):
    """An exact identity failed: the re-expansion of the constructed family,
    or the direct and analytic A_p sums of one ideal; indicates a bug."""


class BadPrime(RankforgeError):
    """Prime ideal is in the family's exceptional set."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
