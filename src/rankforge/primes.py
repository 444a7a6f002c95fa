"""Rational prime utilities: primality, sieving, square roots mod p."""

# Deterministic Miller-Rabin witness set, valid for all n < PRIME_TEST_BOUND:
# the least strong pseudoprime to the first 13 prime bases is
# 3317044064679887385961981 (Sorenson and Webster 2015); the first 12 alone
# pass 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 33 * 10 ** 23

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n):
    """Primality test: Miller-Rabin with fixed witnesses, deterministic
    for n < PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit):
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
        p += 1
    return [i for i in range(2, limit + 1) if flags[i]]


def sqrt_mod_p(a, p):
    """A square root of a mod p (odd prime), or None if a is a nonresidue.

    Tonelli-Shanks; the p % 4 == 3 shortcut covers half the primes.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = d * 2^s with d odd
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, d, p)
    x = pow(a, (d + 1) // 2, p)
    t = pow(a, d, p)
    m = s
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x
