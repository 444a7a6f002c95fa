"""Number fields K = Q(theta), prime-ideal enumeration, residue reduction.

O_K is approximated by the order Z[theta]: factoring the minimal polynomial
mod p (Dedekind) gives the primes of O_K for every p outside the excluded
set, which defaults to the primes dividing disc(m). A caller's own list may
leave out exactly the p | disc(m) where Z[theta] is p-maximal; NumberField
refuses any other list (is_p_maximal, Dedekind's criterion). m is proved
irreducible at every degree by Zassenhaus's method (_certify_irreducible).

Every caller splits m mod p through poly._split, at every prime p, 2
included. Enumeration up to a norm bound X is one stream in norm order,
fed by the segmented primes.sieve, and factors only what can have
norm <= X: the squarefree split runs only at p | disc(m), the
distinct-degree split stops once the next degree i has p^i > X (so for
p > sqrt(X) it is one power x^p mod m and one gcd, with no quotient), and
only the products it keeps are split into irreducibles. The ideals of
norm p pass straight through; only those of norm p^d > p, all above
p <= sqrt(X), wait in a heap. landau_sum counts the norms from those
products as they come and builds no ideals. Neither holds a list, so the
memory of a pass stays near one block of sieve flags whatever X is.
prime_ideals_above(K, p) factors m mod p completely (factor_mod_p).

Reduction mod P is one integer linear map on ints: a batch of elements is
written as integer coordinates over one common denominator d
(integer_coords), and the image of each in O_K/P = F_p[x]/(P.factor) is the
tuple of its f coordinates over F_p, the dot products of its coordinates
with the images of 1, theta, ..., theta^(n-1) times d^-1 mod p, one inverse
per batch (reduce_coords). Each image is the one before times theta, one
companion step: a shift and one multiple of P.factor, with no multiply mod
P.factor. reduce_elem wraps one such tuple in an FqElem; the rank path
keeps the tuples. No residue field is built above 2.
"""

import functools
import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import _modpoly
from .errors import (
    DenominatorNotInvertible,
    EvenCharacteristic,
    InvalidArgument,
    NotKnownIrreducible,
)
from .finite_field import FqElem, FqField
from .poly import (
    FieldElem,
    Poly,
    _coerced,
    _edf,
    _sff,
    _split,
    discriminant,
    factor_mod_p,
    int_coeffs,
    poly_to_str,
    resultant,
    xgcd,
)
from .primes import is_prime, sieve

# the primes tried for m mod p (m stays irreducible mod some p only if its
# Galois group holds an n-cycle), and the most factors r whose products,
# up to 2^r trial divisions, are tried
_CANDIDATES, _MAX_FACTORS = 14, 12

# ideals per batch of the stream: taken one at a time from the splitting,
# rank over Q(sqrt 5) at X = 2*10^5 ran about 9 % slower (Python 3.11.7,
# one core of a 2-vCPU Xeon host)
_BATCH = 256


class NumberField:
    """K = Q(theta) for a monic irreducible integer polynomial m(theta)."""

    def __init__(self, min_poly, excluded_primes=None):
        coeffs = int_coeffs(min_poly, "minimal polynomial")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise InvalidArgument("minimal polynomial must be monic, degree >= 1")
        self.m = tuple(coeffs)
        self.n = len(coeffs) - 1
        self.m_poly = Poly([Fraction(c) for c in coeffs])
        disc = discriminant(self.m_poly)
        assert disc.denominator == 1
        self.disc_m = int(disc)
        if self.disc_m == 0:
            raise InvalidArgument("minimal polynomial is not squarefree")
        _certify_irreducible(self.m, self.disc_m)
        if excluded_primes is None:
            self.excluded_primes = frozenset(
                _modpoly.prime_divisors(abs(self.disc_m)))
        else:
            self.excluded_primes = self._checked_excluded(excluded_primes)

    def _checked_excluded(self, given):
        """A user list of excluded primes as a frozenset. Refuse anything
        but an iterable of primes, and a list that leaves out a p | disc(m)
        where Z[theta] is not maximal: Dedekind's factorization mislabels
        the primes above it. disc(m) = [O_K : Z[theta]]^2 disc(K), so only
        a p with p^2 | disc(m) needs the criterion."""
        try:
            excluded = frozenset(given)
        except TypeError:  # not iterable, or holds an unhashable value
            excluded = None
        if excluded is None or not all(
                isinstance(p, int) and not isinstance(p, bool) and is_prime(p)
                for p in excluded):
            raise InvalidArgument(
                f"excluded_primes must be a list of primes, got {given!r}")
        kept = [p for p in _modpoly.prime_divisors(abs(self.disc_m))
                if p not in excluded and self.disc_m % (p * p) == 0
                and not is_p_maximal(self.m, p)]
        if kept:
            raise InvalidArgument(
                f"excluded_primes leaves out {', '.join(map(str, kept))}, "
                f"where Z[theta] is not maximal (Dedekind's criterion; "
                f"disc(m) = {self.disc_m})")
        return excluded

    def elem(self, coeffs):
        """Element of K from rational coordinates in the power basis."""
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        if len(c) > self.n:
            reduced = Poly(c) % self.m_poly
            c = list(reduced.coeffs)
        c += [Fraction(0)] * (self.n - len(c))
        return KElem(self, tuple(c))

    @property
    def zero(self):
        return self.elem(0)

    @property
    def one(self):
        return self.elem(1)

    def theta(self):
        return self.elem([0, 1]) if self.n > 1 else self.elem(0)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"NumberField({list(self.m)})"


class KElem(FieldElem):
    """Element of K in the power basis 1, theta, ..., theta^(n-1)."""

    __slots__ = ()
    _scalars = (int, Fraction)

    @_coerced
    def __mul__(self, other):
        prod = Poly(self.coeffs) * Poly(other.coeffs) % self.field.m_poly
        return self.field.elem(prod.coeffs)

    __rmul__ = __mul__

    def _inverse(self):
        d, u, _ = xgcd(Poly(self.coeffs), self.field.m_poly)
        assert d.degree == 0  # d is monic: u is the inverse
        return self.field.elem(u.coeffs)

    def _pow(self, e):
        out, base = self.field.one, self
        while e:
            if e & 1:
                out *= base
            base *= base
            e >>= 1
        return out

    def norm(self):
        """Field norm N_{K/Q} as a Fraction (resultant with the min poly)."""
        if not self:
            return Fraction(0)
        return resultant(self.field.m_poly, Poly(self.coeffs))

    def __repr__(self):
        return "KElem[" + ",".join(str(c) for c in self.coeffs) + "]"


class PrimeIdeal(NamedTuple):
    """A prime of O_K above p, from Dedekind factorization of m mod p."""

    p: int
    factor: Poly  # monic irreducible over F_p, int coefficients
    f: int
    e: int
    norm: int

    @property
    def residue_field(self):
        """O_K/P; refused above 2, where Euler's criterion and the squares
        table of FqField would disagree on the quadratic character. The
        fields of the last 4096 (p, factor) asked for are kept, so equal
        ideals share one field and the element list and chi table it
        caches; FqField.tables() is rebuilt on every call."""
        if self.p == 2:
            raise EvenCharacteristic(
                f"even residue characteristic 2 at {self.label()}")
        return _residue_field(self.p, self.factor.coeffs)

    def sort_key(self):
        return (self.norm, self.p, self.factor.coeffs)

    def label(self):
        return f"({self.p}, {poly_to_str(self.factor)})"


@functools.lru_cache(maxsize=4096)
def _residue_field(p, modulus):
    return FqField(p, modulus)


def prime_ideals_above(K, p):
    """The primes of Z[theta] above a non-excluded rational prime p."""
    return [PrimeIdeal(p=p, factor=fac, f=fac.degree, e=e, norm=p ** fac.degree)
            for fac, e in factor_mod_p(K.m, p)]


def _split_bounded(K, X):
    """(p, product, d, e), p ascending, for every non-excluded p <= X and
    every product of the distinct irreducible factors of m mod p that have
    degree d, multiplicity e and norm p^d <= X (poly._split); no factor of
    larger norm is split out."""
    for p in sieve(X):
        if p not in K.excluded_primes:
            for prod, d, e in _split([c % p for c in K.m], p, X, K.disc_m):
                yield p, prod, d, e


def enumerate_prime_ideals(K, X):
    """The primes of norm <= X in sort_key order, streamed: excluded
    rational primes are skipped, and only the factors of m mod p that can
    have norm <= X are split into irreducibles (_edf). A caller that needs
    a list builds one from the stream."""
    return PrimeIdealStream(K, X)


class PrimeIdealStream:
    """The primes of K of norm <= X (enumerate_prime_ideals).

    Each pass streams them afresh in sort_key order, holding no list of
    them. The primes of norm p come as their p comes, sorted by factor;
    those of norm p^d > p wait in a heap until the stream passes p^d, and
    only p <= sqrt(X) has any. len() counts them as landau_sum does, in a
    pass of its own that builds no ideals (perfbench's tracer records it);
    list() asks for it first, so prefer a comprehension to list().
    """

    __slots__ = ("K", "X")

    def __init__(self, K, X):
        self.K, self.X = K, X

    def __iter__(self):
        later = []  # (sort_key, ideal) of norm p^d > p
        ready = []  # the next ideals in order, handed on in batches
        for p, splits in itertools.groupby(_split_bounded(self.K, self.X),
                                           operator.itemgetter(0)):
            while later and later[0][0][0] < p:
                ready.append(heapq.heappop(later)[1])
            now = []
            for _, prod, d, e in splits:
                for g in _edf(prod, d, p):
                    P = PrimeIdeal(p=p, factor=Poly(g), f=d, e=e, norm=p ** d)
                    if d == 1:
                        now.append(P)
                    else:
                        heapq.heappush(later, (P.sort_key(), P))
            now.sort(key=PrimeIdeal.sort_key)
            ready += now
            if len(ready) >= _BATCH:
                yield from ready
                ready = []
        yield from ready
        while later:
            yield heapq.heappop(later)[1]

    def __len__(self):
        return landau_sum(self.K, self.X)[2]


def is_p_maximal(m, p):
    """Dedekind's criterion: is Z[theta] maximal at p, for theta a root of
    the monic integer polynomial m?

    Write m mod p = prod g_i^e_i, let t be the lift of the radical
    prod g_i and h that of (m mod p) / t, both with coefficients in
    [0, p), and F = (m - t h) / p. Then Z[theta] is p-maximal iff
    gcd(F, t, h) = 1 over F_p (Cohen, GTM 138, Thm 6.1.4). At p not
    dividing disc(m), m mod p is squarefree, h = 1 and the answer is yes.
    """
    f = _modpoly.trim([c % p for c in m])
    t = [1]
    for g, _ in _sff(f, p):
        t = _modpoly.mul(t, g, p)
    h = _modpoly.divmod_(f, t, p)[0]
    th = (Poly(t) * Poly(h)).coeffs
    F = _modpoly.trim([(c - d) // p % p for c, d in zip(m, th)])
    return len(_modpoly.gcd(_modpoly.gcd(F, t, p), h, p)) == 1


def _certify_irreducible(m, disc):
    """Refuse the monic integer m, of discriminant disc != 0, unless it is
    irreducible over Q (Zassenhaus; von zur Gathen-Gerhard, Modern Computer
    Algebra, ch. 15-16): one factor mod one of the first _CANDIDATES primes
    p >= 3 prime to disc proves it. Else the factors f_i mod the p with
    fewest are Hensel-lifted to q = p^k > 2^(n//2 + 1) (floor |m|_2 + 1),
    twice Mignotte's bound for a factor of degree <= n/2, adding p^k (e s_i
    mod f_i) to f_i, e = (m - prod f_i) / p^k, s_i = (m / f_i)^-1 mod f_i.
    Products of lifted f_i of degree <= n/2, in symmetric residues mod q,
    are tried by exact division, fewest f_i first."""
    n, m_poly, best = len(m) - 1, Poly(map(Fraction, m)), None
    primes = (p for p in itertools.count(3) if disc % p and is_prime(p))
    for p in itertools.islice(primes, _CANDIDATES):
        split = _split([c % p for c in m], p, disc=disc)
        factors = [g for prod, d, _ in split for g in _edf(prod, d, p)]
        if len(factors) == 1:
            return
        if best is None or len(factors) < len(best[1]):
            best = p, factors
    (p, lifted), q = best, best[0]
    if len(lifted) > _MAX_FACTORS:
        raise NotKnownIrreducible(
            f"cannot certify the minimal polynomial irreducible: it has more "
            f"than {_MAX_FACTORS} factors mod each of {_CANDIDATES} primes")
    inverses = [_modpoly.powmod(_modpoly.divmod_(m, f, p)[0],
                                p ** (len(f) - 1) - 2, f, p) for f in lifted]
    while q <= 2 ** (n // 2 + 1) * (math.isqrt(sum(c * c for c in m)) + 1):
        prod = functools.reduce(lambda a, b: _modpoly.mul(a, b, q * p), lifted)
        e = [(c - d) // q % p for c, d in zip(m, prod)]
        lifted = [[a + q * b for a, b in itertools.zip_longest(
            f, _modpoly.mod(_modpoly.mul(e, s, p), f, p), fillvalue=0)]
            for f, s in zip(lifted, inverses)]
        q *= p
    products = (Poly(Fraction(c - q if 2 * c > q else c) for c in
                     functools.reduce(lambda a, b: _modpoly.mul(a, b, q), s))
                for k in range(1, len(lifted))
                for s in itertools.combinations(lifted, k))
    found = [g for g in products if g.degree <= n // 2 and (m_poly % g).is_zero]
    roots = [-g.coeffs[0] for g in found if g.degree == 1]
    if roots:
        r = min(roots, key=lambda r: (abs(r), r < 0))
        raise InvalidArgument(f"minimal polynomial has rational root {r}")
    if found:
        raise InvalidArgument(
            f"minimal polynomial has factor {poly_to_str(found[0])}, "
            f"cofactor {poly_to_str(m_poly // found[0])}")


def integer_coords(*elems):
    """(rows, d): the coordinates of each element as integers over one
    common denominator d > 0, the lcm of all their coordinate denominators."""
    d = math.lcm(*(c.denominator for x in elems for c in x.coeffs))
    return tuple(tuple(c.numerator * (d // c.denominator) for c in x.coeffs)
                 for x in elems), d


def _theta_images(n, g, p, scale):
    """scale * theta^i in F_p[x]/(g) for i < n and monic g of degree f, each
    as its f coefficients in [0, p), by companion steps: x u mod g shifts u
    up one slot and subtracts u_(f-1) g. At f = 1 they are scale times the
    powers of the root -g_0 of g."""
    g = g[:-1]
    u = [scale % p] + [0] * (len(g) - 1)
    images = [u]
    for _ in range(n - 1):
        top = u[-1]
        u = [(s - top * c) % p for s, c in zip([0, *u], g)]
        images.append(u)
    return images


def reduce_coords(coords, P):
    """Coefficient tuples in O_K/P = F_p[x]/(P.factor) of nonempty
    integer_coords, whose denominator d must be prime to p: one dot product
    per residue coordinate, and one inverse of d per call.

    Column j of the map holds coordinate j of the images of 1, theta, ...,
    theta^(n-1) times d^-1 (_theta_images); no multiply mod P.factor runs.
    """
    rows, d = coords
    p = P.p
    images = _theta_images(len(rows[0]), P.factor.coeffs, p, pow(d, -1, p))
    return list(zip(*([sum(map(operator.mul, nums, col)) % p for nums in rows]
                      for col in zip(*images))))


def reduce_elem(x, P):
    """Image of x in the residue field O_K/P = F_p[x]/(P.factor), with
    theta mapping to the class of the variable."""
    fld, p = P.residue_field, P.p
    for c in x.coeffs:
        if c.denominator % p == 0:
            raise DenominatorNotInvertible(
                f"denominator {c.denominator} not invertible mod {p}")
    coeffs, = reduce_coords(integer_coords(x), P)
    return FqElem(fld, coeffs)


def landau_sum(K, X):
    """(sum of log N(P) over norms <= X, sum/X, ideal count).

    Builds no ideals: a product of degree k of the irreducible factors of
    degree d above p stands for k/d primes of norm p^d, each adding
    math.log(p ** d) (not d * math.log(p), which rounds differently).
    math.fsum rounds the sum once and does not depend on the order of its
    terms; everything upstream is exact. The logs are streamed into it and
    counted as they come; no list of them is held.
    """
    count = 0

    def logs():
        nonlocal count
        for p, prod, d, _ in _split_bounded(K, X):
            k = (len(prod) - 1) // d
            count += k
            yield from itertools.repeat(math.log(p ** d), k)

    total = math.fsum(logs())
    return total, (total / X if X else 0.0), count

