"""Univariate polynomials over exact coefficient domains, and the element
protocol of the fields they run over.

Poly is duck-typed over its coefficients: anything with ring operators,
truthiness for zero-testing, and / for leading-coefficient inversion works
(Fraction, FqElem, KElem). FieldElem is the operator protocol KElem and
FqElem share: coercion of scalars, sums, quotients, negative powers,
equality and hashing, with one FieldMismatch for mixed fields and one
DivisionByZero for the inverse of zero. Factorization over prime fields
operates on plain int coefficient lists, and one function, _split, decides
how m mod p is split for every Dedekind caller (factor_mod_p,
prime_ideals_above, enumeration and landau_sum): the quadratic formula for
a quadratic at odd p, else the squarefree, distinct-degree and equal-degree
splits, p = 2 included.
"""

import math
import operator
import random
from fractions import Fraction

from . import _modpoly
from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidArgument,
    ZeroLeadingCoefficient,
    ZeroPolynomial,
)
from .primes import is_prime, sqrt_mod_p


class Poly:
    """Dense polynomial, constant term first, canonical (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            z = self.coeffs[-1] * 0
            out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Long division over a field domain (Fraction, FqElem)."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        dg = other.degree
        if self.degree < dg:
            return Poly(), self
        rem = list(self.coeffs)
        inv = 1 / other.lc
        quo = [None] * (len(rem) - dg)
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = rem[k + dg] * inv
            if c:
                for i, b in enumerate(other.coeffs[:dg]):
                    rem[k + i] = rem[k + i] - c * b
        return Poly(quo), Poly(rem[:dg])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Poly([c * i for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _coerced(op):
    """A binary operator of FieldElem on its other operand coerced into
    the field (FieldElem._coerce); NotImplemented for a foreign type."""
    def method(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return op(self, other)
    return method


class FieldElem:
    """Immutable element of a field F, a coefficient tuple over its basis.

    A subclass names the scalars F.elem takes (_scalars) and supplies the
    product (__mul__, wrapped in _coerced), _inverse of a nonzero element
    and _pow for exponents e >= 0; sums, differences and negation go
    coefficientwise through F.elem, which reduces them.
    """

    __slots__ = ("field", "coeffs")
    _scalars = (int,)

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, self._scalars):
            return self.field.elem(other)
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other
        return NotImplemented

    @_coerced
    def __add__(self, other):
        return self.field.elem(map(operator.add, self.coeffs, other.coeffs))

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return self.field.elem(map(operator.sub, self.coeffs, other.coeffs))

    @_coerced
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return self.field.elem([-a for a in self.coeffs])

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    @_coerced
    def __rtruediv__(self, other):
        return other * self.inverse()

    def inverse(self):
        if not self:
            raise DivisionByZero(f"inverse of zero in {self.field!r}")
        return self._inverse()

    def __pow__(self, e):
        return (self.inverse() if e < 0 else self)._pow(abs(e))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, self._scalars):
            other = self.field.elem(other)
        return (isinstance(other, FieldElem)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        """A constant hashes as the scalar it equals, its Fraction in K and
        its residue in [0, p) in F_q, so sets and dicts agree with ==. An
        int outside [0, p) equals its residue in F_q but cannot share its
        hash."""
        head, *rest = self.coeffs
        return hash(self.coeffs if any(rest) else head)


def xgcd(f, g):
    """(d, u, v) with d = uf + vg monic, over a field domain."""
    if f.is_zero and g.is_zero:
        return Poly(), Poly(), Poly()
    sample = (f if not f.is_zero else g).lc
    one = sample / sample
    r0, r1 = f, g
    s0, s1 = Poly([one]), Poly()
    t0, t1 = Poly(), Poly([one])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = one / r0.lc
    return r0 * inv, s0 * inv, t0 * inv


def resultant(f, g):
    """Resultant over a field domain (used for discriminants and norms)."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    res = Fraction(1)
    while g.degree > 0:
        r = f % g
        if r.is_zero:
            return f.lc * 0
        res *= g.lc ** (f.degree - r.degree)
        if (f.degree * g.degree) % 2 == 1:
            res = -res
        f, g = g, r
    return res * g.lc ** f.degree


def discriminant(f):
    """Discriminant of f over its coefficient field."""
    n = f.degree
    if n < 1:
        raise ZeroPolynomial("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 == 1 else 1
    return sign * r / f.lc


def expand_from_roots(roots, leading):
    """leading * prod (x - r_i)."""
    if not leading:
        raise ZeroLeadingCoefficient("leading coefficient is zero")
    one = leading ** 0
    acc = Poly([leading])
    for r in roots:
        acc = acc * Poly([-r, one])
    return acc


# ---------------------------------------------------------------------------
# factorization over F_p (int coefficient lists internally)


def _sff(f, p):
    """Squarefree decomposition of monic f; yields (factor, multiplicity)."""
    c = _modpoly.gcd(f, _modpoly.deriv(f, p), p)
    if c == [1]:
        return [(f, 1)]
    out = []
    w = _modpoly.divmod_(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _modpoly.gcd(w, c, p)
        z = _modpoly.divmod_(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _modpoly.divmod_(c, y, p)[0]
        i += 1
    if len(c) > 1:
        # c is a p-th power: strip exponents (coefficients are F_p-fixed)
        root = c[::p]
        for g, m in _sff(root, p):
            out.append((g, m * p))
    return out


def _ddf(f, p, max_norm=math.inf):
    """Distinct-degree split of squarefree monic f: (product, degree) pairs,
    the product of all irreducible factors of that degree, degree ascending.

    Only the factors of degree i with p^i <= max_norm are returned: the
    split stops as soon as p^(i+1) > max_norm, since every factor left then
    has degree > i, and the irreducible leftover is kept only when
    p^deg <= max_norm. For p > sqrt(max_norm) that is one power x^p mod f
    and one gcd, and no quotient by the factors found.
    """
    out = []
    h = [0, 1]
    i = 1
    g = f
    while len(g) - 1 >= 2 * i:
        if p ** i > max_norm:
            return out
        h = _modpoly.powmod(h, p, g, p)
        # h - x on a copy, since h goes on to the next degree
        hx = h + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % p
        d = _modpoly.gcd(g, _modpoly.trim(hx), p)
        if len(d) > 1:
            out.append((d, i))
            if p ** (i + 1) > max_norm:
                return out
            g = _modpoly.divmod_(g, d, p)[0]
            h = _modpoly.mod(h, g, p)
        i += 1
    if len(g) > 1 and p ** (len(g) - 1) <= max_norm:
        out.append((g, len(g) - 1))
    return out


def _edf(f, d, p):
    """Equal-degree split of f, a product of irreducibles of degree d. At
    odd p a product of two linear factors goes to the quadratic formula and
    anything else to Cantor-Zassenhaus, gcd(a^((p^d - 1)/2) - 1, f); at
    p = 2 the split is gcd(a + a^2 + ... + a^(2^(d-1)), f), the trace to
    F_2 (von zur Gathen-Gerhard, ch. 14). The generator of a is seeded from
    (p, f). The order of the factors is left to the caller's sort."""
    n = len(f) - 1
    if n == d:
        return [f]
    if d == 1 and n == 2 and p > 2:
        return [g for g, _ in _factor_quadratic(f, p)]
    e = (p ** d - 1) // 2
    rng = random.Random(hash((p, tuple(f))) ^ 0x5EED)
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        _modpoly.trim(a)
        if len(a) <= 1:
            continue
        if p == 2:
            b = s = a
            for _ in range(d - 1):
                s = _modpoly.mulmod(s, s, f, 2)
                b = _modpoly.add(b, s, 2)
        else:
            b = _modpoly.sub(_modpoly.powmod(a, e, f, p), [1], p)
        g = _modpoly.gcd(b, f, p)
        if 1 < len(g) < len(f):
            rest = _modpoly.divmod_(f, g, p)[0]
            return _edf(g, d, p) + _edf(rest, d, p)


def _factor_quadratic(f, p):
    """Monic quadratic over F_p, p odd, via the discriminant; avoids the
    generic path so Dedekind enumeration over quadratic fields stays fast."""
    c0, b = f[0], f[1]
    disc = (b * b - 4 * c0) % p
    if disc == 0:
        half = pow(2, p - 2, p)
        r = (-b * half) % p
        return [([(-r) % p, 1], 2)]
    s = sqrt_mod_p(disc, p)
    if s is None:
        return [(list(f), 1)]
    half = pow(2, p - 2, p)
    r1 = ((-b + s) * half) % p
    r2 = ((-b - s) * half) % p
    roots = sorted(((-r1) % p, (-r2) % p))
    return [([roots[0], 1], 1), ([roots[1], 1], 1)]


def _split(f, p, max_norm=math.inf, disc=0):
    """Dedekind's split of monic f over F_p: (product, d, e) for every
    product of the distinct irreducible factors of degree d and
    multiplicity e with norm p^d <= max_norm; _edf splits a product into
    its irreducibles. A quadratic at odd p goes to the quadratic formula.
    Anything else is squarefree unless p | disc, so the squarefree split
    runs only there (disc = 0, the default, when it is not known), and _ddf
    stops at the first degree whose norm passes max_norm."""
    if len(f) == 3 and p > 2:
        return [(g, len(g) - 1, e) for g, e in _factor_quadratic(f, p)
                if p ** (len(g) - 1) <= max_norm]
    squarefree = _sff(f, p) if disc % p == 0 else [(f, 1)]
    return [(prod, d, e) for sf, e in squarefree
            for prod, d in _ddf(sf, p, max_norm)]


def factor_mod_p(m, p):
    """Factor a monic integer polynomial over F_p, for any prime p.

    Returns a list of (Poly with int coefficients in [0, p), multiplicity),
    sorted by (degree, coefficients): every factor of _split, split into
    irreducibles by _edf. Deterministic: the generator of the equal-degree
    split is seeded from the factor being split. Raises InvalidArgument
    when p is not a prime.
    """
    if not (isinstance(p, int) and is_prime(p)):
        raise InvalidArgument(f"p must be a prime, got {p!r}")
    coeffs = m.coeffs if isinstance(m, Poly) else m
    f = _modpoly.trim([int(c) % p for c in coeffs])
    if len(f) < 2:
        raise ZeroPolynomial("need degree >= 1")
    result = [(irr, e) for prod, d, e in _split(_modpoly.monic(f, p), p)
              for irr in _edf(prod, d, p)]
    result.sort(key=lambda t: (len(t[0]), t[0][::-1]))
    return [(Poly(g), e) for g, e in result]


# ---------------------------------------------------------------------------
# text format: comma-separated coefficients, constant first; rationals as
# "num/den"


def fraction_from_str(s):
    s = s.strip().replace("−", "-")
    return Fraction(s)


def fraction_to_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def poly_from_str(s):
    """Parse "c0,c1,...,cn" into a Poly with Fraction coefficients; every
    part must parse as a Fraction ("3", "-1/2"), so "", "1,,2" and "1,2,"
    are refused."""
    if isinstance(s, str):
        try:
            return Poly([fraction_from_str(t) for t in s.split(",")])
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidArgument(f"cannot parse {s!r} as c0,c1,...,cn")


def int_coeffs(coeffs, what):
    """coeffs as a list of ints; each must be an int or a Fraction with
    denominator 1 (not a float, which would truncate)."""
    coeffs = list(coeffs)
    if not all(getattr(c, "denominator", 0) == 1 for c in coeffs):
        raise InvalidArgument(
            f"{what} {','.join(map(str, coeffs))} has a non-integer coefficient")
    return [int(c) for c in coeffs]


def poly_to_str(f):
    if isinstance(f, Poly):
        coeffs = f.coeffs
    else:
        coeffs = f
    if not coeffs:
        return "0"
    return ",".join(fraction_to_str(c) for c in coeffs)
