"""Closed-form quadratic character sums over F_q and their oracles.

For a != 0 the t-sum of chi(a t^2 + b t + c) collapses to (q-1)chi(a) when
the discriminant vanishes and -chi(a) otherwise; quad_sum_brute is the
independent enumeration oracle, conic_count the point count on
s^2 = a t^2 + b t + c. These work on FqElem and are the reference path.
verify_quad_sums checks the closed form in bulk against FqTables.t_sums,
the brute-force t-sum that the direct A_p method in nagao adds up over x.
"""

import itertools
import random
from dataclasses import dataclass

from ._modpoly import find_irreducible
from .errors import FieldMismatch, ZeroLeadingCoefficient
from .finite_field import FqElem, FqField
from .primes import sieve

RANDOM_TRIPLES = 1000  # triples per field above exhaustive_max_q


@dataclass(frozen=True)
class QuadSumInput:
    a: FqElem
    b: FqElem
    c: FqElem

    def __post_init__(self):
        if not (self.a.field == self.b.field == self.c.field):
            raise FieldMismatch("coefficients in different fields")

    @property
    def field(self):
        return self.a.field


def quad_sum_closed(inp):
    """Closed form, valid only for a != 0 in odd characteristic."""
    a, b, c = inp.a, inp.b, inp.c
    if not a:
        raise ZeroLeadingCoefficient("closed form requires a != 0")
    fld = a.field
    disc = b * b - 4 * a * c
    chi_a = fld.chi(a)
    if not disc:
        return (fld.q - 1) * chi_a
    return -chi_a


def quad_sum_brute(inp):
    """Direct enumeration of sum over t of chi(a t^2 + b t + c)."""
    a, b, c = inp.a, inp.b, inp.c
    fld = a.field
    chi = fld.chi
    return sum(chi(a * t * t + b * t + c) for t in fld.elements())


def conic_count(inp):
    """#{(s, t) : s^2 = a t^2 + b t + c} = q + quad_sum_brute."""
    a, b, c = inp.a, inp.b, inp.c
    fld = a.field
    chi = fld.chi
    return sum(1 + chi(a * t * t + b * t + c) for t in fld.elements())


# ---------------------------------------------------------------------------
# bulk verification sweep


@dataclass
class SweepResult:
    q: int
    p: int
    r: int
    mode: str  # "exhaustive" or "random"
    checked: int
    mismatches: int
    conic_violations: int

    @property
    def ok(self):
        return self.mismatches == 0 and self.conic_violations == 0


def odd_prime_powers(limit):
    """(q, p, r) for every odd prime power q <= limit, ascending in q."""
    return sorted((p ** r, p, r) for p in sieve(limit) if p != 2
                  for r in range(1, limit.bit_length()) if p ** r <= limit)


def standard_field(p, r):
    """F_{p^r} over a deterministic (smallest) irreducible modulus."""
    return FqField(p, find_irreducible(p, r))


def _sweep(fld, triples):
    """Closed form and conic bound against FqTables.t_sums over F_q."""
    q = fld.q
    codes, _, log, exp = tables = fld.tables()
    chi = tables.chi()
    four = log[codes[4 % fld.p]]  # constants embed along the prime subfield
    coded, kernel = itertools.tee(
        (log[codes[a]], log[codes[b]], codes[c]) for a, b, c in triples)
    mism = viol = checked = 0
    for (la, lb, c), s in zip(coded, tables.t_sums(kernel)):
        degenerate = exp[lb + lb] == exp[four + log[exp[la + log[c]]]]
        chi_a = chi[exp[la]]
        if s != ((q - 1) * chi_a if degenerate else -chi_a):
            mism += 1
        # the parametrization bound applies to the nondegenerate conic only
        if not degenerate and not q - 1 <= q + s <= q + 1:
            viol += 1
        checked += 1
    return checked, mism, viol


def verify_quad_sums(max_q=343, exhaustive_max_q=49, seed=0):
    """Oracle-equivalence and conic-bound sweep.

    Exhaustive over all (a, b, c) with a != 0 for q <= exhaustive_max_q;
    RANDOM_TRIPLES seeded random triples for larger q up to max_q. Returns
    one SweepResult per odd prime power q.
    """
    results = []
    for q, p, r in odd_prime_powers(max_q):
        exhaustive = q <= exhaustive_max_q
        if exhaustive:
            triples = itertools.product(range(1, q), range(q), range(q))
        else:
            rng = random.Random(seed * 1000003 + q)
            triples = ((rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
                       for _ in range(RANDOM_TRIPLES))
        checked, mism, viol = _sweep(standard_field(p, r), triples)
        results.append(SweepResult(
            q=q, p=p, r=r,
            mode="exhaustive" if exhaustive else "random",
            checked=checked, mismatches=mism, conic_violations=viol))
    return results
