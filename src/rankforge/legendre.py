"""Closed-form quadratic character sums over F_q and their oracles.

For a != 0 the t-sum of chi(a t^2 + b t + c) collapses to (q-1)chi(a) when
the discriminant vanishes and -chi(a) otherwise; quad_sum_brute is the
independent enumeration oracle, conic_count the point count on
s^2 = a t^2 + b t + c. These work on FqElem and are the reference path.
verify_quad_sums checks the closed form and the conic bound in bulk
against brute-force t-sums over every t: FqTables.row_sums gives the q
sums of each (a, b) row of an exhaustive field at once, and
FqTables.t_sums, the kernel the direct A_p method in nagao adds up over x,
gives those of all the random triples of a field in one packed pass over t.
"""

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


def _exhaustive_sums(tables):
    """Every (a, b, c) with a != 0, a row of q sums per (a, b) from
    FqTables.row_sums, as ((log a, log b, code c), t-sum) pairs."""
    codes, log = tables.codes, tables.log
    rows = [(log[a], log[b]) for a in codes[1:] for b in codes]
    for (la, lb), sums in zip(rows, tables.row_sums(rows)):
        yield from zip(((la, lb, c) for c in codes), sums)


def _random_sums(tables, rng):
    """RANDOM_TRIPLES seeded triples with a != 0, all from one batched
    FqTables.t_sums, as ((log a, log b, code c), t-sum) pairs."""
    codes, log = tables.codes, tables.log
    q = len(codes)
    coded = [(log[codes[rng.randrange(1, q)]], log[codes[rng.randrange(q)]],
              codes[rng.randrange(q)]) for _ in range(RANDOM_TRIPLES)]
    return zip(coded, tables.t_sums(coded))


def _sweep(tables, sums):
    """Closed form and conic bound on ((log a, log b, code c), t-sum) pairs
    over F_q, q = len(tables.codes)."""
    codes, log, exp, p = tables.codes, tables.log, tables.exp, tables.p
    q = len(codes)
    chi = tables.chi()
    four = log[codes[4 % p]]  # constants embed along the prime subfield
    mism = viol = checked = 0
    for (la, lb, c), s in sums:
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
        tables = standard_field(p, r).tables()
        if exhaustive:
            sums = _exhaustive_sums(tables)
        else:
            sums = _random_sums(tables, random.Random(seed * 1000003 + q))
        checked, mism, viol = _sweep(tables, sums)
        results.append(SweepResult(
            q=q, p=p, r=r,
            mode="exhaustive" if exhaustive else "random",
            checked=checked, mismatches=mism, conic_violations=viol))
    return results
