"""factor_mod_p, the Dedekind ideal lists and norm-bounded enumeration
against sympy's independent factorization over F_p (factor_list with
modulus=p), and Dedekind's maximality criterion against sympy's round-two
integral basis."""

import math
import random

import pytest

from rankforge import NumberField, enumerate_prime_ideals, factor_mod_p
from rankforge._modpoly import mul
from rankforge._modpoly import prime_divisors
from rankforge.number_field import is_p_maximal, prime_ideals_above
from rankforge.primes import sieve
from conftest import BOUNDARY_NORMS, bounded_fields

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x")
PRIMES = [p for p in sieve(50000) if p > 2]


def sympy_factors(coeffs, p):
    """Sorted (coefficients constant first in [0, p), multiplicity) of the
    monic polynomial coeffs over F_p, as sympy finds them."""
    poly = sympy.Poly(list(reversed(coeffs)), X, modulus=p)
    lead, factors = poly.factor_list()
    assert lead % p == 1
    out = [([int(c) % p for c in reversed(g.all_coeffs())], e)
           for g, e in factors]
    return sorted(out, key=lambda t: (len(t[0]), t[0][::-1]))


def ours(coeffs, p):
    return [(list(g.coeffs), e) for g, e in factor_mod_p(coeffs, p)]


def random_monic(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


@pytest.mark.parametrize("small", [True, False], ids=["p<50", "p<5e4"])
def test_factor_mod_p_matches_sympy(small):
    rng = random.Random(small)
    pool = [p for p in PRIMES if p < 50] if small else PRIMES
    for _ in range(300):
        p = rng.choice(pool)
        coeffs = random_monic(rng, p, rng.randint(2, 6))
        assert ours(coeffs, p) == sympy_factors(coeffs, p), (coeffs, p)


def test_factor_mod_p_matches_sympy_not_squarefree():
    rng = random.Random(7)
    for i in range(300):
        p = rng.choice(PRIMES[:12] if i % 2 else PRIMES)
        a = random_monic(rng, p, rng.randint(1, 2))
        b = random_monic(rng, p, rng.randint(0, 2))
        coeffs = mul(mul(a, a, p), b, p)
        assert ours(coeffs, p) == sympy_factors(coeffs, p), (coeffs, p)


def test_factor_mod_p_matches_sympy_p_th_power():
    # x^p - 2 = (x - 2)^p over F_p: the p-th-root branch of the SFF
    for p in (3, 5, 7):
        coeffs = [p - 2] + [0] * (p - 1) + [1]
        assert ours(coeffs, p) == sympy_factors(coeffs, p)


def test_factor_mod_p_matches_sympy_at_2():
    # p = 2 splits equal degrees by the trace map; x(x + 1), Phi_7 mod 2 =
    # (x^3 + x + 1)(x^3 + x^2 + 1) and (x^4 + x + 1)(x^4 + x^3 + 1) are
    # products of equal-degree factors
    rng = random.Random(2)
    cases = [[0, 1, 1], [1] * 7, mul([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], 2)]
    cases += [random_monic(rng, 2, rng.randint(1, 10)) for _ in range(300)]
    for coeffs in cases:
        assert ours(coeffs, 2) == sympy_factors(coeffs, 2), coeffs


@pytest.mark.parametrize("min_poly", [[-2, 0, 0, 1], [-2, 0, 0, 0, 1],
                                      [-1, -1, 0, 0, 0, 1], [2, 1, 1],
                                      [1, 1, 1, 1, 1, 1, 1]],
                         ids=["x3-2", "x4-2", "x5-x-1", "sqrt-7", "zeta7"])
def test_prime_ideals_above_match_sympy(min_poly):
    # 2 splits in Q(sqrt -7) into two ideals of degree 1, and in Q(zeta_7)
    # into two of degree 3
    K = NumberField(min_poly)
    rng = random.Random(len(min_poly))
    ps = [p for p in sieve(50000) if p not in K.excluded_primes]
    for p in sorted(rng.sample(ps, 60) + ps[:10]):
        got = [(P.p, list(P.factor.coeffs), P.f, P.e, P.norm)
               for P in prime_ideals_above(K, p)]
        want = [(p, g, len(g) - 1, e, p ** (len(g) - 1))
                for g, e in sympy_factors(min_poly, p)]
        assert got == want, p


def test_enumeration_matches_sympy():
    # enumeration and factor_mod_p share poly._split, so this is the
    # reference that shares no code with enumeration
    top = max(BOUNDARY_NORMS)
    for K in bounded_fields():
        every = sorted((p ** (len(g) - 1), p, g, e) for p in sieve(top)
                       if p not in K.excluded_primes
                       for g, e in sympy_factors(K.m, p))
        for X in BOUNDARY_NORMS:
            got = [(P.norm, P.p, list(P.factor.coeffs), P.e)
                   for P in enumerate_prime_ideals(K, X)]
            assert got == [t for t in every if t[0] <= X], (K, X)


def test_dedekind_criterion_matches_sympy_round_two():
    # Z[theta] is p-maximal iff p does not divide its index in O_K, the
    # square root of disc(m) / disc(K)
    from sympy.polys.numberfields.basis import round_two

    rng = random.Random(16)
    fields = [[3, 0, 1], [-5, 0, 1], [-8, 0, 1], [-10, 0, 0, 1],
              [-2, 0, 0, 1], [-2, 0, 0, 0, 1], [-1, -1, 0, 0, 0, 1],
              [-12, 0, 0, 1], [-28, 0, 0, 1], [-162, 0, 0, 1], [-72, 0, 0, 0, 1]]
    while len(fields) < 40:
        m = [rng.randint(-30, 30) for _ in range(rng.randint(2, 4))] + [1]
        poly = sympy.Poly(list(reversed(m)), X)
        if poly.is_irreducible and poly.discriminant() != 0:
            fields.append(m)
    for m in fields:
        poly = sympy.Poly(list(reversed(m)), X, domain="ZZ")
        disc_m = int(poly.discriminant())
        index = math.isqrt(disc_m // int(round_two(poly)[1]))
        for p in prime_divisors(abs(disc_m)):
            assert is_p_maximal(m, p) == (index % p != 0), (m, p)
