"""The multiply-mod-m kernel, powmod and divmod_ against a schoolbook
reference: a plain product (_modpoly.mul) followed by long division written
out here, and powers by right-to-left square and multiply on that product.

The kernel packs residues into slots of _slot_bits(d, p) bits, a bound of
about 3 log2(p) + 2 log2(6d) bits, so large p only widens the slots; WIDE
holds primes whose slots pass one 64-bit word, and the PRIMES below 50000
fit in one at every degree up to 12. Degrees up to 12 cover every modulus
the package reaches: A_P powers modulo P.factor and factorization works
modulo factors of m, so the degree is at most that of the field."""

import random

import pytest

from rankforge import _modpoly
from rankforge.primes import is_prime, sieve

PRIMES = [p for p in sieve(50000) if p > 2]
SMALL = [3, 5, 7]
WIDE = [10000000019, 1000000000000000003, 2 ** 89 - 1]


def long_division(f, g, p):
    """(quotient, remainder) of f by g over F_p, one leading term at a time."""
    inv = pow(g[-1], -1, p)
    rem = [c % p for c in f]
    quo = [0] * max(len(rem) - len(g) + 1, 0)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        k = len(rem) - len(g)
        c = rem[-1] * inv % p
        quo[k] = c
        rem = [(r - c * g[i - k]) % p if k <= i < k + len(g) else r
               for i, r in enumerate(rem)]
    while quo and quo[-1] == 0:
        quo.pop()
    return quo, rem


def ref_mulmod(a, b, m, p):
    return long_division(_modpoly.mul(a, b, p), m, p)[1]


def ref_powmod(f, e, m, p):
    """Right to left over the bits of e, on the reference product."""
    result = long_division([1], m, p)[1]
    f = long_division(f, m, p)[1]
    while e:
        if e & 1:
            result = ref_mulmod(result, f, m, p)
        f = ref_mulmod(f, f, m, p)
        e >>= 1
    return result


def rand_poly(rng, p, length):
    return _modpoly.trim([rng.randrange(p) for _ in range(length)])


def rand_monic(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [1]


def is_reduced(f, p):
    return all(0 <= c < p for c in f) and (not f or f[-1] != 0)


@pytest.mark.parametrize("degree", range(1, 13))
def test_mulmod_matches_reference(degree):
    rng = random.Random(degree)
    for p in SMALL + WIDE + rng.sample(PRIMES, 20):
        for _ in range(10):
            m = rand_monic(rng, p, degree)
            a = rand_poly(rng, p, rng.randint(0, degree))
            b = rand_poly(rng, p, rng.randint(0, degree))
            got = _modpoly.mulmod(a, b, m, p)
            assert is_reduced(got, p)
            assert got == ref_mulmod(a, b, m, p), (a, b, m, p)


def test_wide_primes_take_slots_past_one_word():
    # the written bound: every slot value is below 6 d p^2, and a slot
    # holds it times the Barrett multiplier floor(2^t / p), 2^t >= 12 d p^2
    for d in range(1, 13):
        for p in SMALL + WIDE + PRIMES[::500]:
            t = (6 * d * p * p).bit_length() + 1
            worst = d * (2 * p - 1) * (3 * p - 2) * ((1 << t) // p)
            assert worst < 2 ** _modpoly._slot_bits(d, p), (d, p)
    assert min(_modpoly._slot_bits(d, p) for d in (1, 12) for p in WIDE) > 64
    assert max(_modpoly._slot_bits(12, p) for p in PRIMES) <= 64


@pytest.mark.parametrize("degree", range(1, 13))
def test_powmod_matches_reference_up_to_degree_12(degree):
    # bases x, general and constant; the exponents of Fermat, of Euler's
    # criterion, of a random 100-bit power, and 2^k - 1, whose every bit is
    # set, so that each squaring is followed by a multiply (a shift for x)
    rng = random.Random(300 + degree)
    for p in SMALL + WIDE + rng.sample(PRIMES, 3):
        m = rand_monic(rng, p, degree)
        general = rand_poly(rng, p, degree) or [1]
        for f in ([0, 1], general, [rng.randrange(1, p)]):
            for e in (0, 1, 2, p ** degree - 1, (p - 1) // 2,
                      rng.randrange(10 ** 30), 2 ** 17 - 1, 2 ** 101 - 1):
                got = _modpoly.powmod(f, e, m, p)
                assert is_reduced(got, p)
                assert got == ref_powmod(f, e, m, p), (f, e, m, p)


def worst_case(p, degree):
    """Operands p - 1 and a modulus with -m = p - 1: the largest slots."""
    return [p - 1] * degree, [1] * degree + [1]


def test_slots_three_bits_narrower_fail(monkeypatch):
    # the slot width is what keeps the products exact, and the bound is
    # within three bits of what the worst operands need: three bits less
    # and their powers come out wrong at every wide prime
    width = _modpoly._slot_bits
    monkeypatch.setattr(_modpoly, "_slot_bits", lambda d, p: width(d, p) - 3)
    _modpoly._kernel.cache_clear()
    try:
        for p in WIDE:
            for degree in (2, 6, 12):
                a, m = worst_case(p, degree)
                e = 2 ** 20 - 1
                assert _modpoly.powmod(a, e, m, p) != ref_powmod(a, e, m, p)
    finally:
        _modpoly._kernel.cache_clear()


def test_worst_case_operands_stay_exact_at_the_slot_bound():
    # the same operands at the full width, for every degree and for primes
    # from 3 to 2^89 - 1; with the lazy residues of powmod in [0, 2p) the
    # slots of every product, quotient and remainder are at their largest
    for degree in range(1, 13):
        for p in SMALL + WIDE + [30011, 1000003]:
            a, m = worst_case(p, degree)
            assert _modpoly.mulmod(a, a, m, p) == ref_mulmod(a, a, m, p)
            for e in (3, 2 ** 20 - 1):
                assert _modpoly.powmod(a, e, m, p) == ref_powmod(a, e, m, p)
            assert (_modpoly.powmod([0, 1], p, m, p)
                    == ref_powmod([0, 1], p, m, p))


def test_mulmod_edge_operands():
    p, m = 7, [3, 0, 1]
    assert _modpoly.mulmod([], [1, 2], m, p) == []
    assert _modpoly.mulmod([0, 0], [0, 0], m, p) == []  # zero-padded zero
    assert _modpoly.mulmod([5], [4], m, p) == [6]
    assert _modpoly.mulmod([0, 1], [0, 1], m, p) == [4]  # x^2 = -3
    assert _modpoly.mulmod((2, 0), (3, 0), (3, 0, 1), p) == [6]  # tuples


@pytest.mark.parametrize("degree", range(1, 7))
def test_powmod_matches_reference(degree):
    rng = random.Random(100 + degree)
    for _ in range(40):
        p = rng.choice(PRIMES)
        m = rand_monic(rng, p, degree)
        bases = [rand_poly(rng, p, rng.randint(2, degree + 3)),
                 [rng.randrange(1, p)], []]
        for f in bases:
            for e in (0, 1, 2, 3, rng.randrange(10 ** 3), p ** degree - 1,
                      rng.randrange(10 ** 30)):
                got = _modpoly.powmod(f, e, m, p)
                assert is_reduced(got, p)
                assert got == ref_powmod(f, e, m, p), (f, e, m, p)


@pytest.mark.parametrize("degree", range(1, 7))
def test_powmod_of_x_matches_reference(degree):
    # a base of x multiplies by a shift; m of degree 1 makes x a constant
    rng = random.Random(200 + degree)
    moduli = [(3, rand_monic(rng, 3, degree)), (3, [0] * degree + [1])]
    for _ in range(30):
        p = rng.choice(PRIMES)
        moduli += [(p, rand_monic(rng, p, degree)), (p, [0] * degree + [1])]
    for p, m in moduli:
        for e in (1, 2, 3, degree, degree + 1, p ** degree - 1,
                  rng.randrange(10 ** 30)):
            got = _modpoly.powmod([0, 1], e, m, p)
            assert is_reduced(got, p)
            assert got == ref_powmod([0, 1], e, m, p), (e, m, p)


def test_powmod_of_x_shifts_to_zero():
    # x^e mod x^k is zero from e = k on, and stays zero
    for k in range(2, 6):
        assert _modpoly.powmod([0, 1], k - 1, [0] * k + [1], 3) == [0] * (k - 1) + [1]
        for e in (k, k + 1, 2 * k + 1, 3 ** k - 1):
            assert _modpoly.powmod([0, 1], e, [0] * k + [1], 3) == []


def test_powmod_exponent_zero_is_one():
    assert _modpoly.powmod([2, 3, 1], 0, [1, 1], 5) == [1]
    assert _modpoly.powmod([4], 0, [1, 0, 1], 5) == [1]
    assert _modpoly.powmod([], 0, [1, 0, 1], 5) == [1]
    assert _modpoly.powmod([], 3, [1, 0, 1], 5) == []


def test_powmod_base_divisible_by_modulus():
    m = [2, 0, 1]
    assert _modpoly.powmod(_modpoly.mul(m, [1, 4], 7), 5, m, 7) == []


def test_powmod_refuses_a_negative_exponent_on_a_non_constant_base():
    # 1 + x has the inverse 4 + 3x in F_49 = F_7[x]/(x^2 + 1); a negative
    # power of a polynomial is refused rather than computed wrong, while a
    # constant base is inverted in F_p
    m, p = [1, 0, 1], 7
    assert _modpoly.mulmod([1, 1], [4, 3], m, p) == [1]
    for e in (-1, -2, -(2 ** 70)):
        with pytest.raises(ValueError):
            _modpoly.powmod([1, 1], e, m, p)
        with pytest.raises(ValueError):
            _modpoly.powmod([0, 1], e, m, p)
    assert _modpoly.powmod([3], -1, m, p) == [5]
    assert _modpoly.powmod([3], -2, m, p) == [4]


def test_more_moduli_than_the_kernel_cache_holds():
    # every (m, p) builds its own constants: 24 worst-case moduli (-m =
    # p - 1) and 216 random ones over d = 1..6 and p = 2, 3, 30011 and
    # 2^89 - 1, far more than the cache keeps, each taken twice with
    # powmod and mulmod interleaved, so the second round rebuilds them all
    rng = random.Random(25)
    cases = []
    for degree in range(1, 7):
        for p in (2, 3, 30011, 2 ** 89 - 1):
            a, m = worst_case(p, degree)
            cases.append((a, m, p))
            cases += [(a, rand_monic(rng, p, degree), p) for _ in range(9)]
    assert len({(tuple(m), p) for _, m, p in cases}) >= 200
    assert len(cases) > 4 * _modpoly._kernel.cache_info().maxsize
    for _ in range(2):
        for a, m, p in cases:
            b = rand_poly(rng, p, len(m) - 1)
            e = rng.choice((p - 1, 2 ** 20 - 1, rng.randrange(2 ** 40)))
            assert _modpoly.powmod(a, e, m, p) == ref_powmod(a, e, m, p)
            assert _modpoly.mulmod(a, b, m, p) == ref_mulmod(a, b, m, p)
            assert (_modpoly.powmod([0, 1], p, m, p)
                    == ref_powmod([0, 1], p, m, p))


@pytest.mark.parametrize("monic", [True, False])
def test_divmod_matches_reference(monic):
    rng = random.Random(monic)
    for _ in range(500):
        p = rng.choice(PRIMES)
        g = rand_poly(rng, p, rng.randint(1, 7))
        if not g:
            continue
        if monic:
            g = _modpoly.scale(g, pow(g[-1], -1, p), p)
        elif g[-1] == 1:
            g[-1] = 2
        f = rand_poly(rng, p, rng.randint(0, 12))
        quo, rem = _modpoly.divmod_(f, g, p)
        assert is_reduced(quo, p) and is_reduced(rem, p)
        assert (quo, rem) == long_division(f, g, p)
        assert _modpoly.mod(f, g, p) == rem
        assert _modpoly.add(_modpoly.mul(quo, g, p), rem, p) == f


def test_divmod_short_dividend():
    assert _modpoly.divmod_([3, 4], [1, 2, 5], 7) == ([], [3, 4])
    assert _modpoly.divmod_([], [1, 2, 5], 7) == ([], [])
    assert _modpoly.divmod_([6], [2, 3], 7) == ([], [6])


def test_divmod_non_monic_divisor():
    # 3x^2 + 2 = (2x + 1)(5x + 1) + 1 over F_7
    assert _modpoly.divmod_([2, 0, 3], [1, 5], 7) == ([1, 2], [1])
    with pytest.raises(ZeroDivisionError):
        _modpoly.divmod_([1, 2], [], 7)
    with pytest.raises(ZeroDivisionError):
        _modpoly.mod([1, 2], [], 7)


def trial_division(n, primes):
    """Distinct prime divisors of n by every prime up to sqrt(n), in order."""
    out = []
    for d in primes:
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    return out + [n] if n > 1 else out


def test_prime_divisors_match_trial_division():
    primes = list(sieve(10 ** 6))
    rng = random.Random(14)
    seeded = [rng.randrange(1, 10 ** 12) for _ in range(500)]
    for n in list(range(1, 20001)) + seeded:
        assert _modpoly.prime_divisors(n) == trial_division(n, primes), n


def test_prime_divisors_split_semiprimes_of_large_factors():
    # each factor is a prime of 7 to 9 digits by trial division up to its
    # square root; trial division of the product would take up to 10^9 steps
    primes = list(sieve(31623))
    rng = random.Random(15)

    def random_prime(digits):
        while True:
            q = rng.randrange(10 ** (digits - 1), 10 ** digits)
            if trial_division(q, primes) == [q]:
                return q

    for _ in range(12):
        p, q = (random_prime(rng.choice((7, 8, 9))) for _ in range(2))
        assert _modpoly.prime_divisors(p * q) == sorted({p, q})
        assert _modpoly.prime_divisors(12 * p * q) == sorted({2, 3, p, q})
        assert _modpoly.prime_divisors(p * p) == [p]


def test_is_prime_rejects_the_strong_pseudoprime_to_the_first_12_bases():
    # 2, 3, ..., 37 all pass this composite; 41 catches it
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(400000000000129)
