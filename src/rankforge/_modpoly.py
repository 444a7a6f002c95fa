"""Dense polynomial arithmetic over F_p on plain coefficient lists.

Coefficients are ints in [0, p), constant term first, no trailing zeros;
the zero polynomial is []. Shared by the finite-field and factorization
code so neither has to depend on the other.

mulmod is the one multiply-mod-m kernel: powmod, and through it the
factorization and irreducibility tests, FqElem multiplication and the
A_p kernel's r^((q-1)/2) all run on it. Its modulus m must be monic, of
degree d, and its operands reduced mod m. The kernel packs the residues
into one int, slot i holding coefficient i in whole 64-bit words wide
enough for 2 d p^2 (Kronecker substitution; Harvey 2009), so a product is
one big-int multiply. The slots at or above d are folded back from the
top, each times the packed -m mod p, and every coefficient then takes one
% p. powmod keeps its power packed from start to end; for a base of x,
the multiply after a squaring is a one-slot shift of the square.
"""

import itertools
import math

from .primes import PRIME_TEST_BOUND, is_prime


def trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def add(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % p for c in out])


def scale(f, k, p):
    k %= p
    return trim([c * k % p for c in f])


def divmod_(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    inv_lead = 1 if g[-1] == 1 else pow(g[-1], p - 2, p)
    quo = [0] * max(len(f) - dg, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = f[k + dg] * inv_lead % p
        if c:
            for i in range(dg):
                f[k + i] -= c * g[i]
    return trim(quo), trim([c % p for c in f[:dg]])


def mod(f, g, p):
    return divmod_(f, g, p)[1]


def monic(f, p):
    if not f:
        return []
    return scale(f, pow(f[-1], p - 2, p), p)


def gcd(f, g, p):
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def _slot_bits(d, p):
    """Width of one packed slot for a modulus of degree d: whole 64-bit
    words holding 2 d p^2, above every coefficient of a product of two
    reduced operands (at most d (p-1)^2) plus what folding adds to it."""
    return -(-(2 * d * p * p).bit_length() // 64) * 64


def _pack(coeffs, bits):
    """The int holding coefficient i in slot i."""
    v = 0
    for c in reversed(coeffs):
        v = v << bits | c
    return v


def _fold(v, top, d, negm, bits, p):
    """v mod m, packed: slots top down to d of v are each taken % p and
    added, times the packed -m mod p, to the d slots below them; then each
    of the d low slots is taken % p. Slots never carry."""
    mask = (1 << bits) - 1
    low = d * bits
    for shift in range(top * bits, low - 1, -bits):
        v += (v >> shift & mask) % p * negm << (shift - low)
    out = 0
    for shift in range(low - bits, -1, -bits):
        out = out << bits | (v >> shift & mask) % p
    return out


def _unpack(v, d, bits):
    mask = (1 << bits) - 1
    return trim([v >> shift & mask for shift in range(0, d * bits, bits)])


def _packing(m, p):
    """(d, slot bits, packed -m mod p) for a monic m of degree d."""
    d = len(m) - 1
    bits = _slot_bits(d, p)
    return d, bits, _pack([-c % p for c in m[:d]], bits)


def mulmod(a, b, m, p):
    """a * b mod m for monic m and a, b of degree below deg m: one big-int
    product of the packed operands (Kronecker substitution), then _fold."""
    d, bits, negm = _packing(m, p)
    prod = _pack(a, bits) * _pack(b, bits)
    return _unpack(_fold(prod, len(a) + len(b) - 2, d, negm, bits, p), d, bits)


def powmod(f, e, m, p):
    """f^e mod a monic m, left-to-right square and multiply on the packed
    kernel of mulmod, packed from start to end; a constant f stays in F_p,
    and multiplying by a base of x shifts the square by one slot."""
    if len(f) <= 1:
        return trim([pow(f[0] if f else 0, e, p)])
    if e == 0:
        return [1]
    f = mod(f, m, p)
    d, bits, negm = _packing(m, p)
    by_x = f == [0, 1]
    v = base = _pack(f, bits)
    top = 2 * d - 2
    for bit in bin(e)[3:]:
        if bit == "1" and by_x:
            v = _fold(v * v << bits, top + 1, d, negm, bits, p)
            continue
        v = _fold(v * v, top, d, negm, bits, p)
        if bit == "1":
            v = _fold(v * base, top, d, negm, bits, p)
    return _unpack(v, d, bits)


def deriv(f, p):
    return trim([i * c % p for i, c in enumerate(f)][1:])


def prime_divisors(n):
    """The distinct primes dividing n, ascending.

    Trial division runs only while the cofactor is at or above
    PRIME_TEST_BOUND, where is_prime is not deterministic. Below it a
    composite cofactor is split by Pollard-Brent rho and each part tested
    with is_prime. Rho finds the least prime factor q of a part in about
    sqrt(q) steps, where trial division took as many steps as the
    second-largest prime factor of n.
    """
    out = set()
    d = 2
    while n >= PRIME_TEST_BOUND and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    parts = [n]
    while parts:
        k = parts.pop()
        if k <= 1:
            continue
        # k >= PRIME_TEST_BOUND only if no d <= sqrt(k) divides it
        if k >= PRIME_TEST_BOUND or is_prime(k):
            out.add(k)
        else:
            g = _rho_divisor(k)
            parts += [g, k // g]
    return sorted(out)


def _rho_divisor(n):
    """A proper divisor of a composite n: 2 for even n, else Pollard's rho
    in Brent's form, y -> y^2 + c mod n from y = 2, with c = 1, 2, ...
    until one splits n. The |x - y| are multiplied 128 at a time before a
    gcd; a batch whose gcd is n is walked again one step at a time."""
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def is_irreducible(f, p):
    """Rabin's irreducibility test for monic f over F_p."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    if powmod(x, p ** n, f, p) != x:
        return False
    for d in prime_divisors(n):
        h = sub(powmod(x, p ** (n // d), f, p), x, p)
        if len(gcd(h, f, p)) != 1:
            return False
    return True


def find_irreducible(p, r):
    """Smallest monic irreducible of degree r over F_p, lexicographic in
    (c_{r-1}, ..., c_0)."""
    if r == 1:
        return [0, 1]
    bound = p ** r
    for code in range(bound):
        coeffs = []
        v = code
        for _ in range(r):
            coeffs.append(v % p)
            v //= p
        f = coeffs + [1]
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable
