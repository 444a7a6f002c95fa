"""Rational prime utilities: primality, a segmented sieve, square roots
mod p."""

import itertools
import math

# Deterministic Miller-Rabin witness set, valid for all n < PRIME_TEST_BOUND:
# the least strong pseudoprime to the first 13 prime bases is
# 3317044064679887385961981 (Sorenson and Webster 2015); the first 12 alone
# pass 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 33 * 10 ** 23

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_BLOCK = 1 << 16  # least number of flags in one block of sieve


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
    """The primes <= limit, ascending, one at a time.

    A segmented sieve of Eratosthenes (Bays and Hudson 1977). The first
    block, [0, B) with B > sqrt(limit), is sieved alone and holds every
    prime <= sqrt(limit); each later block [lo, lo + B) crosses off the
    multiples of those primes. Only they and one block of B flags are held.
    """
    if limit < 2:
        return
    root = math.isqrt(limit)
    size = min(limit + 1, max(root + 1, _BLOCK))
    flags = bytearray([1]) * size
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(size - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, size, p)))
    base = list(itertools.compress(range(root + 1), flags))
    yield from itertools.compress(range(size), flags)
    for lo in range(size, limit + 1, size):
        hi = min(lo + size, limit + 1)
        flags = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo::p] = bytes(len(range(start, hi, p)))
        yield from itertools.compress(range(lo, hi), flags)


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
