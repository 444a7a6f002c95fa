import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from rankforge import (
    NumberField,
    enumerate_prime_ideals,
    landau_sum,
    reduce_elem,
)
from rankforge.errors import (
    DenominatorNotInvertible,
    EvenCharacteristic,
    InvalidArgument,
    NotKnownIrreducible,
    RankforgeError,
)
from rankforge.finite_field import FqElem
from rankforge.number_field import is_p_maximal, prime_ideals_above
from rankforge.poly import Poly, factor_mod_p
from rankforge.primes import sieve
from conftest import BOUNDARY_NORMS, bounded_fields, ideal_above


def test_gauss_ideals_up_to_10(K_gauss):
    ideals = enumerate_prime_ideals(K_gauss, 10)
    assert [P.norm for P in ideals] == [5, 5, 9]
    assert sorted(K_gauss.excluded_primes) == [2]


def test_rational_ideals_up_to_10(K_rat):
    ideals = enumerate_prime_ideals(K_rat, 10)
    assert [P.norm for P in ideals] == [2, 3, 5, 7]
    assert not K_rat.excluded_primes


def test_sqrt5_splitting(K_sqrt5):
    assert sorted(K_sqrt5.excluded_primes) == [5]
    above_11 = [P for P in enumerate_prime_ideals(K_sqrt5, 11) if P.p == 11]
    assert [P.norm for P in above_11] == [11, 11]


def test_degree_sum_accounts_for_n(K_gauss, K_sqrt5):
    for K in (K_gauss, K_sqrt5):
        by_p = {}
        for P in enumerate_prime_ideals(K, 200 ** K.n):
            if P.p <= 200:
                by_p.setdefault(P.p, []).append(P)
        for p, ideals in by_p.items():
            assert sum(P.e * P.f for P in ideals) == K.n


def test_reduce_with_denominator(K_gauss):
    # theta -> 2: the ideal above 5 whose factor is x - 2 = x + 3
    P = next(P for P in enumerate_prime_ideals(K_gauss, 5)
             if P.factor.coeffs == (3, 1))
    x = K_gauss.elem([Fraction(1, 3), Fraction(1, 3)])  # (1 + theta)/3
    assert reduce_elem(x, P) == P.residue_field.elem(1)


def test_reduce_rational_integer_in_f9(K_gauss):
    P = ideal_above(K_gauss, 3, 9)
    assert P.norm == 9
    assert reduce_elem(K_gauss.elem(7), P) == P.residue_field.elem(1)


def test_reduce_bad_denominator(K_gauss):
    P = ideal_above(K_gauss, 5, 25)
    with pytest.raises(DenominatorNotInvertible):
        reduce_elem(K_gauss.elem(Fraction(1, 5)), P)


def test_no_residue_field_above_2(K_sqrt5):
    # 2 is inert in Q(sqrt 5): F_4 has no quadratic character of odd q
    P, = prime_ideals_above(K_sqrt5, 2)
    assert P.norm == 4
    with pytest.raises(EvenCharacteristic):
        reduce_elem(K_sqrt5.theta(), P)
    with pytest.raises(EvenCharacteristic):
        P.residue_field


def _reduce_by_horner(x, P):
    """The definition of the reduction: theta goes to the class of the
    variable mod P.factor, evaluated by Horner over theta in F_q."""
    fld = P.residue_field
    theta = fld.generator() if fld.r > 1 else fld.elem(-P.factor.coeffs[0])
    acc = fld.zero
    for c in reversed(x.coeffs):
        acc = acc * theta + c.numerator * pow(c.denominator, -1, P.p)
    return acc


@pytest.mark.parametrize("min_poly, p, f", [
    ([0, 1], 13, 1),
    ([-1, -1, 1], 11, 1),  # 11 splits in Q(sqrt 5)
    ([-1, -1, 1], 7, 2),  # 7 is inert
    ([-2, 0, 0, 1], 5, 1),  # 5 = P1 P2 in Q(cbrt 2), of degrees 1 and 2
    ([-2, 0, 0, 1], 5, 2),
    ([-2, 0, 0, 0, 1], 5, 4),  # x^4 - 2 is inert at 5: q = 625
], ids=["Q-13", "sqrt5-11", "sqrt5-7", "cbrt2-5-f1", "cbrt2-5-f2", "x4m2-5"])
def test_reduce_matches_horner_over_theta(min_poly, p, f):
    K = NumberField(min_poly)
    P = next(P for P in prime_ideals_above(K, p) if P.f == f)
    rng = random.Random(p * 10 + f)
    dens = [d for d in range(1, 30) if d % p]
    for _ in range(200):
        x = K.elem([Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(dens))
                    for _ in range(K.n)])
        got = reduce_elem(x, P)
        assert isinstance(got, FqElem) and got.field is P.residue_field
        assert got == _reduce_by_horner(x, P)
    with pytest.raises(DenominatorNotInvertible):
        reduce_elem(K.elem([Fraction(1, 3)] * (K.n - 1) + [Fraction(2, p)]), P)


def test_reduce_is_ring_homomorphism(K_gauss, K_sqrt5):
    rng = random.Random(271828)
    for K in (K_gauss, K_sqrt5):
        ideals = [P for P in enumerate_prime_ideals(K, 2000)
                  if P.p > 50]
        for _ in range(1000):
            P = rng.choice(ideals)
            x = K.elem([Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
                        for _ in range(K.n)])
            y = K.elem([Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
                        for _ in range(K.n)])
            rx, ry = reduce_elem(x, P), reduce_elem(y, P)
            assert reduce_elem(x + y, P) == rx + ry
            assert reduce_elem(x * y, P) == rx * ry


def test_gauss_splitting_law_small(K_gauss):
    by_p = {}
    for P in enumerate_prime_ideals(K_gauss, 10 ** 3):
        by_p.setdefault(P.p, []).append(P)
    for p in sieve(31):
        if p == 2:
            continue
        fs = sorted(P.f for P in by_p.get(p, []))
        if p % 4 == 1:
            assert fs == [1, 1]
        else:
            assert fs == [2] if p * p <= 10 ** 3 else fs == []


def test_landau_rational_100(K_rat):
    total, ratio, count = landau_sum(K_rat, 100)
    oracle = sum(math.log(p) for p in sieve(100))
    assert count == 25
    assert abs(total - oracle) < 1e-9
    assert abs(total - 83.7284) < 1e-3


def test_landau_empty(K_rat):
    assert landau_sum(K_rat, 1)[0] == 0.0


def test_landau_gauss_25(K_gauss):
    total, _, count = landau_sum(K_gauss, 25)
    oracle = 2 * (math.log(5) + math.log(13) + math.log(17)) + math.log(9)
    assert abs(total - oracle) < 1e-9
    assert count == 7


def _reference_ideals(K, X):
    """(norm, p, factor, f, e) of every prime of norm <= X, from a complete
    factorization of m at every non-excluded p <= X."""
    out = []
    for p in sieve(X):
        if p not in K.excluded_primes:
            out += [(p ** g.degree, p, g.coeffs, g.degree, e)
                    for g, e in factor_mod_p(K.m, p) if p ** g.degree <= X]
    return sorted(out)


def test_enumeration_matches_complete_factorization():
    for K in bounded_fields():
        for X in BOUNDARY_NORMS:
            got = [(P.norm, P.p, P.factor.coeffs, P.f, P.e)
                   for P in enumerate_prime_ideals(K, X)]
            assert got == _reference_ideals(K, X), (K, X)


def test_landau_sum_counts_the_enumerated_norms_exactly():
    # landau_sum builds no ideals; its sum must still be the exactly rounded
    # sum of math.log(N(P)) over the enumerated ideals, to the last bit
    for K in bounded_fields():
        for X in BOUNDARY_NORMS:
            logs = [math.log(P.norm) for P in enumerate_prime_ideals(K, X)]
            total = math.fsum(logs)
            assert landau_sum(K, X) == (total, total / X, len(logs)), (K, X)
    # 13 is inert in Q(cbrt 2) and alone: the sum is one rounded log, and
    # math.log(13 ** 3) differs from 3 * math.log(13) in the last bit
    K = NumberField([-2, 0, 0, 1],
                    excluded_primes=[p for p in sieve(2197) if p != 13])
    assert landau_sum(K, 2197) == (math.log(2197), math.log(2197) / 2197, 1)


def test_norm_bound_cuts_distinct_degree_split(monkeypatch):
    # over x^4 - 2 a prime p > sqrt(X) costs one distinct-degree step, the
    # power x^p mod m, and no squarefree split: the step to x^(p^2) and
    # gcd(m, m') are skipped. Distinct-degree steps are the powmods to the
    # exponent p; equal-degree splitting raises to (p^d - 1)/2. landau_sum
    # splits nothing into irreducibles, so at such a p it divides nothing:
    # the product of the roots is not divided out of m, since no factor of
    # degree 2 can fit.
    from rankforge import _modpoly
    from rankforge import poly

    steps_at, sff_at, quotients_at = [], [], []
    powmod, sff, divmod_ = _modpoly.powmod, poly._sff, _modpoly.divmod_

    def counting_powmod(f, e, m, p):
        if e == p:
            steps_at.append(p)
        return powmod(f, e, m, p)

    def counting_sff(f, p):
        sff_at.append(p)
        return sff(f, p)

    def counting_divmod(f, g, p):
        quotients_at.append(p)
        return divmod_(f, g, p)

    monkeypatch.setattr(_modpoly, "powmod", counting_powmod)
    monkeypatch.setattr(poly, "_sff", counting_sff)
    monkeypatch.setattr(_modpoly, "divmod_", counting_divmod)
    X = 2000
    large = [p for p in sieve(X) if p * p > X]
    K = NumberField([-2, 0, 0, 0, 1])
    # one pass each: list() would ask len() first, a pass of its own
    for run in (lambda: [P for P in enumerate_prime_ideals(K, X)],
                lambda: landau_sum(K, X)):
        steps_at.clear()
        quotients_at.clear()
        run()
        assert sorted(p for p in steps_at if p * p > X) == large
    assert quotients_at and not [p for p in quotients_at if p * p > X]
    assert sff_at == []
    # with no exclusions the squarefree split runs at p | disc(m) alone
    landau_sum(NumberField([1, -1, 0, 1], excluded_primes=[]), X)
    assert sff_at == [23]


def _peak_bytes(run):
    """The tracemalloc peak of run(), in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_ordered_passes_hold_no_list():
    # a list of every prime, log or ideal up to X = 10^5 passes the bound:
    # with them, landau_sum over Q(cbrt 2) peaked at 0.71 MiB and a pass
    # over the ideals of Q(sqrt 5) at 3.1 MiB. Streamed, each holds one
    # block of sieve flags, the primes up to sqrt(X), a heap of the ideals
    # of norm p^d > p and one batch: 0.13 and 0.18 MiB. (tracemalloc slows
    # both about twentyfold, so X stays small.)
    X, bound = 10 ** 5, 400 * 1024
    cbrt2, sqrt5 = NumberField([-2, 0, 0, 1]), NumberField([-1, -1, 1])
    assert _peak_bytes(lambda: landau_sum(cbrt2, X)) < bound
    one_pass = lambda: [None for _ in enumerate_prime_ideals(sqrt5, X)]
    assert _peak_bytes(one_pass) < bound


def test_dedekind_criterion():
    # x^2 + 3 at 2: O_K = Z[(1 + sqrt -3)/2]; x^2 - 5 at 2 likewise;
    # x^3 - 10 at 3: 10 = 1 mod 9, so (1 + theta + theta^2)/3 is integral.
    # x^3 - 2 and x^4 - 2 are Eisenstein at 2, and x^3 - 2 is maximal at 3
    assert not is_p_maximal((3, 0, 1), 2)
    assert is_p_maximal((3, 0, 1), 3)
    assert not is_p_maximal((-5, 0, 1), 2)
    assert is_p_maximal((-5, 0, 1), 5)
    assert not is_p_maximal((-10, 0, 0, 1), 3)
    assert is_p_maximal((-10, 0, 0, 1), 2) and is_p_maximal((-10, 0, 0, 1), 5)
    assert is_p_maximal((-2, 0, 0, 1), 2) and is_p_maximal((-2, 0, 0, 1), 3)
    assert is_p_maximal((-2, 0, 0, 0, 1), 2)
    # away from disc(m) the criterion always holds
    assert all(is_p_maximal((-1, -1, 0, 0, 0, 1), p) for p in sieve(200))


def test_norm():
    K = NumberField([1, 0, 1])
    theta = K.theta()
    assert (K.elem(1) + theta).norm() == 2  # N(1 + i)
    assert K.elem(5).norm() == 25
    assert theta.norm() == 1


def test_kelem_field_ops():
    K = NumberField([-1, -1, 1])
    theta = K.theta()
    golden = theta * theta
    assert golden == theta + 1
    assert (theta / theta) == K.one
    inv = K.one / theta
    assert inv * theta == K.one


def test_reducible_min_poly_rejected():
    with pytest.raises(RankforgeError):
        NumberField([-1, 0, 1])  # (x-1)(x+1)
    with pytest.raises(RankforgeError):
        NumberField([1, 2, 1])  # not squarefree
    # the root of least |r| is named, positive first; (x - r)(x^2 + 1) with
    # r = 2^61, and with r = -+5000 near the Cauchy bound 5001, above half
    # of 3^8, the first power of the lifting prime 3 past that bound
    for min_poly, r in [([-4, 0, 1], 2), ([-15, -2, 1], -3)] + [
            ([-r, 1, -r, 1], r) for r in (2 ** 61, 5000, -5000)]:
        with pytest.raises(RankforgeError, match=f"rational root {r}$"):
            NumberField(min_poly)


@pytest.mark.parametrize("min_poly", [
    [-2 ** 101, 0, 1], [-2 ** 101, 0, 0, 1]], ids=["quadratic", "cubic"])
def test_irreducibility_of_huge_constant_term_in_bounded_time(min_poly):
    # trial division of |c_0| = 2^101 would take years; the Hensel-lifted
    # root test grows with the digits
    start = time.perf_counter()
    assert NumberField(min_poly).n == len(min_poly) - 1
    assert time.perf_counter() - start < 1


def test_large_prime_discriminant_in_bounded_time():
    # disc = 1 + 4 * 100000000000032 is prime: prime_divisors stops once
    # its cofactor is prime instead of trial-dividing up to 2 * 10^7
    start = time.perf_counter()
    K = NumberField([-100000000000032, -1, 1])
    assert time.perf_counter() - start < 0.05
    assert K.excluded_primes == {400000000000129} == {K.disc_m}


def test_semiprime_discriminant_in_bounded_time():
    # disc = 10000121 * 10000141: trial division up to the smaller factor
    # took over a second; rho splits it in a few thousand steps
    start = time.perf_counter()
    K = NumberField([-25000655004265, -1, 1])
    assert time.perf_counter() - start < 0.05
    assert K.excluded_primes == {10000121, 10000141}


def test_excluded_primes_leaving_out_a_non_maximal_prime_is_refused():
    # x^2 + 3: Z[theta] is not maximal at 2, where Dedekind would list
    # (2, x + 1) of norm 2 although 2 is inert in Z[(1 + sqrt -3)/2]; it is
    # maximal at 3, so a list may leave 3 out
    with pytest.raises(RankforgeError, match=(
            r"^excluded_primes leaves out 2, where Z\[theta\] is not maximal "
            r"\(Dedekind's criterion; disc\(m\) = -12\)$")):
        NumberField([3, 0, 1], excluded_primes=[])
    K = NumberField([3, 0, 1], excluded_primes=(p for p in [2]))
    assert K.excluded_primes == {2}
    assert [P.label() for P in enumerate_prime_ideals(K, 10)] == [
        "(3, 0,1)", "(7, 2,1)", "(7, 5,1)"]


@pytest.mark.parametrize("excluded", [[-3], [True], [4], [5, 1], [5.0], 5, [[5]]])
def test_excluded_primes_must_be_primes(excluded):
    # 5 is not iterable and [5] not hashable: both used to raise TypeError
    with pytest.raises(InvalidArgument, match=(
            r"^excluded_primes must be a list of primes, got ")):
        NumberField([-1, -1, 1], excluded_primes=excluded)


@pytest.mark.parametrize("coeff", [Fraction(3, 2), 2.7, 2.0, "2"])
def test_non_integer_coefficients_are_refused(coeff):
    # int() used to truncate: [3/2, 0, 1] built x^2 + 1, [2.7, 0, 1] x^2 + 2
    with pytest.raises(InvalidArgument, match="non-integer coefficient$"):
        NumberField([coeff, 0, 1])


def test_integral_fraction_coefficients_are_accepted():
    K = NumberField([Fraction(-2), Fraction(0), Fraction(4, 4)])
    assert K.m == (-2, 0, 1) and all(type(c) is int for c in K.m)


@pytest.mark.parametrize("min_poly", [
    [0, 2], [], [-1, 0, 1], [1, 2, 1], [0, 1, 1], [4, 0, 0, 0, 1]],
    ids=["not monic", "zero", "rational root", "not squarefree", "root 0",
         "not known irreducible"])
def test_malformed_min_poly_is_an_invalid_argument(min_poly):
    with pytest.raises(InvalidArgument):
        NumberField(min_poly)


def test_degree4_irreducibility_certificate():
    # Phi_5 is irreducible mod 3 (3 generates (Z/5)^*)
    NumberField([1, 1, 1, 1, 1])
    # x^4 + 1 and x^4 - 10 x^2 + 1 factor mod every prime: the lifted
    # factors prove them irreducible; x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
    assert NumberField([1, 0, 0, 0, 1]).n == 4
    assert NumberField([1, 0, -10, 0, 1]).n == 4
    with pytest.raises(InvalidArgument, match=(
            "^minimal polynomial has factor 2,-?2,1, cofactor 2,-?2,1$")):
        NumberField([4, 0, 0, 0, 1])


def swinnerton_dyer(radicands):
    """The monic integer polynomial whose roots are all the sums of +-sqrt a
    over a in radicands: mod every prime prime to its discriminant it
    factors into factors of degree at most 2."""
    f = Poly([0, 1])
    for a in radicands:
        # f(x + t) f(x - t) with t^2 = a is E^2 - a O^2, where E and O sum
        # the even and the odd powers of t in the Taylor expansion of f(x + t)
        even, odd, d = Poly(), Poly(), f
        for j in range(f.degree + 1):
            term = d * Fraction(a ** (j // 2), math.factorial(j))
            even, odd = (even + term, odd) if j % 2 == 0 else (even, odd + term)
            d = d.derivative()
        f = even * even - odd * odd * a
    return f.coeffs


def test_swinnerton_dyer_fields_build_and_the_factor_cap_refuses():
    assert swinnerton_dyer([2, 3]) == (1, 0, -10, 0, 1)
    assert swinnerton_dyer([2, 3, 5]) == (576, 0, -960, 0, 352, 0, -40, 0, 1)
    for radicands in ([2, 3, 5], [2, 3, 5, 7]):
        m = swinnerton_dyer(radicands)
        assert NumberField(m).n == len(m) - 1
    # degree 32: 16 factors mod every prime, over the recombination cap
    with pytest.raises(NotKnownIrreducible, match=(
            "^cannot certify the minimal polynomial irreducible: it has more "
            "than 12 factors mod each of 14 primes$")):
        NumberField(swinnerton_dyer([2, 3, 5, 7, 11]))


def test_irreducibility_when_every_candidate_prime_divides_the_discriminant():
    # x^2 - 3 * 5 * ... * 47: the primes tried go on past 47
    K = NumberField([-math.prod(p for p in sieve(47) if p > 2), 0, 1])
    assert all(p in K.excluded_primes for p in sieve(47) if p > 2)


def test_factor_of_two_modular_factors_is_named():
    # both quartic factors split into two quadratics mod every prime, so a
    # factor is found only as a product of two lifted factors
    m = Poly([1, 0, -10, 0, 1]) * Poly([9, 0, -14, 0, 1])
    with pytest.raises(InvalidArgument, match=(
            "^minimal polynomial has factor (9,0,-14,0,1|1,0,-10,0,1), "
            "cofactor (9,0,-14,0,1|1,0,-10,0,1)$")) as refusal:
        NumberField(m.coeffs)
    assert "9,0,-14,0,1" in str(refusal.value)


def test_lift_passes_twice_mignottes_bound(monkeypatch):
    # a factor of degree d <= n/2 has coefficients of size at most
    # 2^d |m|_2 (Mignotte), so its symmetric residues mod q are the
    # factor itself only once q > 2^(n/2 + 1) |m|_2; the small m at hand
    # have factors far below that bound, so the modulus itself is checked
    from rankforge import _modpoly

    moduli, mul = [], _modpoly.mul

    def recording_mul(f, g, q):
        moduli.append(q)
        return mul(f, g, q)

    monkeypatch.setattr(_modpoly, "mul", recording_mul)
    for m in ([4, 0, 0, 0, 1], [1, 0, -10, 0, 1], swinnerton_dyer([2, 3, 5])):
        moduli.clear()
        try:
            NumberField(m)
        except InvalidArgument:
            pass
        n = len(m) - 1
        assert max(moduli) ** 2 > 4 ** (n // 2 + 1) * sum(c * c for c in m), m


def test_rational_root_past_the_first_modulus_needs_the_lift():
    # (x - 2^60)(x^2 + 1): the root is read only mod p^k > 2^61
    with pytest.raises(InvalidArgument, match=f"rational root {2 ** 60}$"):
        NumberField([-2 ** 60, 1, -2 ** 60, 1])


def test_enumeration_deterministic(K_sqrt5):
    a = enumerate_prime_ideals(K_sqrt5, 500)
    b = enumerate_prime_ideals(K_sqrt5, 500)
    assert [(P.norm, P.p, P.factor.coeffs) for P in a] == \
        [(P.norm, P.p, P.factor.coeffs) for P in b]
    norms = [P.norm for P in a]
    assert norms == sorted(norms)
