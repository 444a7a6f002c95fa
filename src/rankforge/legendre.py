"""Closed-form quadratic character sums over F_q, checked in bulk.

For a != 0 the t-sum of chi(a t^2 + b t + c) collapses to (q-1)chi(a) when
the discriminant vanishes and -chi(a) otherwise, and for a nondegenerate
conic s^2 = a t^2 + b t + c the point count q + (that sum) lies in
[q - 1, q + 1]. verify_quad_sums checks both against brute-force t-sums
over every t. In an exhaustive field FqTables.row_sums gives the q sums of
each (a, b) row at once, and the row is checked whole: one list compare
against the closed-form row, -chi(a) at every c but (q-1)chi(a) at the one
degenerate c = b^2 / (4a), found from logs; only a row that differs is
counted entry by entry. FqTables.t_sums, the kernel the direct A_p method
in nagao adds up over x, gives the sums of all the random triples of a
field in one packed pass over t, checked triple by triple. A sweep past
MAX_Q or EXHAUSTIVE_MAX_Q is refused before any field is built.
"""

import random
from typing import NamedTuple

from ._modpoly import find_irreducible
from .errors import InvalidArgument
from .finite_field import FqField
from .primes import sieve

RANDOM_TRIPLES = 1000  # triples per field above exhaustive_max_q
# above about 4000, t_sums is slower than a loop over t per triple
MAX_Q = 4096
EXHAUSTIVE_MAX_Q = 127  # the exhaustive sweep checks q^3 - q^2 triples


class SweepResult(NamedTuple):
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


def _row_check(tables):
    """(checked, mismatches, conic_violations) over every (a, b, c) with
    a != 0, one (a, b) row of q t-sums from FqTables.row_sums at a time.

    The closed-form row is -chi(a) at every c but the degenerate
    c* = b^2 / (4a), of log 2 log b - log 4 - log a (c* = 0 when b = 0),
    where it is (q-1)chi(a). A row equal to it is q triples with no
    mismatch and no violation, as |-chi(a)| = 1; any other row is counted
    entry by entry, by the rule of _sweep.
    """
    codes, log, exp, p = tables.codes, tables.log, tables.exp, tables.p
    q, order, zero_log = len(codes), len(codes) - 1, log[0]
    chi = tables.chi()
    four = log[codes[4 % p]]  # constants embed along the prime subfield
    index = {c: i for i, c in enumerate(codes)}
    rows = [(log[a], log[b]) for a in codes[1:] for b in codes]
    mism = viol = 0
    for (la, lb), sums in zip(rows, tables.row_sums(rows)):
        chi_a = chi[exp[la]]
        star = (0 if lb == zero_log
                else index[exp[(2 * lb - four - la) % order]])
        expected = [-chi_a] * q
        expected[star] = (q - 1) * chi_a
        if sums == expected:
            continue
        for i, (s, e) in enumerate(zip(sums, expected)):
            mism += s != e
            # the parametrization bound applies to the nondegenerate conic only
            viol += i != star and not -1 <= s <= 1
    return len(rows) * q, mism, viol


def _random_sums(tables, rng):
    """RANDOM_TRIPLES seeded triples with a != 0, all from one batched
    FqTables.t_sums, as ((log a, log b, code c), t-sum) pairs.

    The indices of a, b and c are those of rng.randrange(1, q),
    rng.randrange(q) and rng.randrange(q), in that order, drawn by
    randrange's own rejection loop: getrandbits(n.bit_length()) until the
    draw is below n."""
    codes, log = tables.codes, tables.log
    q = len(codes)
    getrandbits = rng.getrandbits
    draws = []
    for n in (q - 1, q, q) * RANDOM_TRIPLES:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        draws.append(r)
    it = iter(draws)
    coded = [(log[codes[a + 1]], log[codes[b]], codes[c])
             for a, b, c in zip(it, it, it)]
    return zip(coded, tables.t_sums(coded))


def _sweep(tables, sums):
    """Closed form and conic bound on ((log a, log b, code c), t-sum) pairs
    over F_q, q = len(tables.codes), one triple at a time."""
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
    one SweepResult per odd prime power q. Refuses max_q above MAX_Q and
    exhaustive_max_q above EXHAUSTIVE_MAX_Q before any work.
    """
    if max_q > MAX_Q:
        raise InvalidArgument(
            f"the Legendre sweep is capped at q = {MAX_Q}, got max_q {max_q}")
    if exhaustive_max_q > EXHAUSTIVE_MAX_Q:
        raise InvalidArgument(
            f"the exhaustive Legendre sweep is capped at q = "
            f"{EXHAUSTIVE_MAX_Q}, got exhaustive_max_q {exhaustive_max_q}")
    results = []
    for q, p, r in odd_prime_powers(max_q):
        exhaustive = q <= exhaustive_max_q
        tables = standard_field(p, r).tables()
        if exhaustive:
            checked, mism, viol = _row_check(tables)
        else:
            checked, mism, viol = _sweep(tables, _random_sums(
                tables, random.Random(seed * 1000003 + q)))
        results.append(SweepResult(
            q=q, p=p, r=r,
            mode="exhaustive" if exhaustive else "random",
            checked=checked, mismatches=mism, conic_violations=viol))
    return results
