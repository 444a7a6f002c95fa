"""The segmented sieve against a plain one-block sieve written here."""

import pytest

from rankforge import primes
from rankforge.primes import sieve

BLOCK = primes._BLOCK


def one_block_sieve(n):
    """The primes <= n from one bytearray of n + 1 flags."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


@pytest.mark.parametrize("n", [
    0, 1, 2, 3, 4,
    24, 25, 26, 120, 121, 122,  # around the squares of 5 and 11
    65520, 65521, 65522,  # around the prime 65521
    BLOCK - 1, BLOCK, BLOCK + 1,  # each side of the first block boundary
    2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 2,
    3 * BLOCK + 17, 3 * BLOCK + 1000,  # a last block shorter than a prime
    257 ** 2, 263 ** 2 - 1, 263 ** 2,  # sqrt(n) past a base prime
])
def test_sieve_matches_a_one_block_sieve(n):
    assert list(sieve(n)) == one_block_sieve(n)


def test_sieve_streams_block_by_block():
    # the flags of a block are sized by sqrt(n), not by n
    stream = sieve(10 ** 12)
    assert next(stream) == 2 and next(stream) == 3
    assert list(sieve(10 ** 7 + 3))[-3:] == [9999971, 9999973, 9999991]
