"""Dense polynomial arithmetic over F_p on plain coefficient lists.

Coefficients are ints in [0, p), constant term first, no trailing zeros;
the zero polynomial is []. Shared by the finite-field and factorization
code so neither has to depend on the other.

mulmod is the one multiply-mod-m kernel: powmod, and through it the
factorization and irreducibility tests, FqElem multiplication and the
A_p kernel's r^((q-1)/2) all run on it; reduction mod a prime ideal
(number_field.reduce_coords) takes its powers of theta by companion
steps and builds no kernel. mulmod's modulus m must be monic, of
degree d, and its operands reduced mod m. The kernel packs the residues
into one int, slot i holding coefficient i (Kronecker substitution;
Harvey 2009), so a product is one big-int multiply, and reduces the
product with a fixed handful of whole-int operations and no loop over
slots: the degree by polynomial Barrett, the quotient
floor(floor(v / x^d) floor(x^(2d-1) / m) / x^(d-1)) times the packed
-m mod p, and the coefficients by a SWAR Barrett step (Barrett 1986) that
brings every slot into [0, 2p) at once. Residues stay lazy, in [0, 2p),
while powmod squares and multiplies; each coefficient takes its one % p
when it is unpacked. Every slot value is below 6 d p^2, and a slot is
_slot_bits(d, p) bits wide, enough for that bound times the Barrett
multiplier, so large p only widens the slots.

_kernel(m, p) holds no code, only the constants of one (m, p): the slot
width, t and floor(2^t / p), the masks, and the packed mu and -m mod p,
mu's d coefficients from their recurrence in plain int loops. A new
modulus, as at every p of a Dedekind split, costs those few int steps;
the last 32 are cached, for FqElem's repeated multiplies. mulmod and
powmod both run _ladder, one loop of products whose three Barrett steps
are written inline, with no call per product. For a base of x, powmod's
multiply after a squaring is a one-slot shift of the square.
"""

import functools
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
    inv_lead = 1 if g[-1] == 1 else pow(g[-1], -1, p)
    quo = [0] * max(len(f) - dg, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = f[k + dg] * inv_lead % p
        if c:
            for i in range(dg):
                f[k + i] -= c * g[i]
    return trim(quo), trim([c % p for c in f[:dg]])


def mod(f, g, p):
    """The remainder of divmod_, with no quotient list."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    inv_lead = 1 if g[-1] == 1 else pow(g[-1], -1, p)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = f[k + dg] * inv_lead % p
        if c:
            for i in range(dg):
                f[k + i] -= c * g[i]
    return trim([c % p for c in f[:dg]])


def monic(f, p):
    if not f:
        return []
    return scale(f, pow(f[-1], -1, p), p)


def gcd(f, g, p):
    """The monic gcd; a nonzero constant remainder ends it at [1]."""
    while len(g) > 1:
        f, g = g, mod(f, g, p)
    return [1] if g else monic(f, p)


def _slot_bits(d, p):
    """Width of one packed slot for a modulus of degree d over F_p.

    Every slot value the reduction meets is below V = 6 d p^2 (see
    _kernel), and the Barrett step multiplies such a value by
    mu_p = floor(2^t / p) with 2^t >= 2V; a slot holds that product.
    """
    bound = 6 * d * p * p
    return ((bound - 1) * ((1 << bound.bit_length() + 1) // p)).bit_length()


def _pack(coeffs, bits):
    """The int holding coefficient i in slot i."""
    v = 0
    for c in reversed(coeffs):
        v = v << bits | c
    return v


@functools.lru_cache(maxsize=32)
def _kernel(m, p):
    """(bits, t, mu_p, low, qmask, mu, negm) for a monic m of degree d,
    given as a tuple: the plain constants of the reduction _ladder runs.

    The reduction takes a packed polynomial v of degree at most 2d - 1
    whose coefficients are at most d (2p - 1)^2, the product of two
    residues with coefficients in [0, 2p), possibly times x, to v mod m
    with every coefficient in [0, 2p) and congruent to the true one mod p.

    Degree: polynomial Barrett with mu = floor(x^(2d-1) / m) over F_p.
    The quotient of v by m is q = floor(floor(v / x^d) mu / x^(d-1)),
    exactly, and v mod m is the low d slots of v + q (-m mod p), kept by
    the mask low; negm is -m mod p packed.

    Coefficients: one SWAR Barrett step acts on every slot at once,
    x - floor(x mu_p / 2^t) p with mu_p = floor(2^t / p) and 2^t >= 2V.
    For 0 <= x < V the quotient is short by at most one, so the result
    lies in [0, 2p); no slot borrows. It runs on the high part of v, on
    q and on the result, where the slots are at most d (2p - 1)^2,
    d (2p - 1)(p - 1) and d (2p - 1)(3p - 2), all below V = 6 d p^2.
    With slots of _slot_bits(d, p) bits nothing carries from one slot
    into the next, and qmask, the low bits - t bits of every slot, keeps
    each slot's quotient to itself.
    """
    d = len(m) - 1
    bits = _slot_bits(d, p)
    t = (6 * d * p * p).bit_length() + 1
    # mu reversed is 1 / (x^d m(1/x)) to d terms: c_k = -sum m_(d-j) c_(k-j),
    # and c_k goes to slot d - 1 - k; slot k of negm is -m_k mod p
    c = [1]
    mu = ones = 1
    negm = -m[d - 1] % p
    for k in range(1, d):
        s = 0
        for j in range(1, k + 1):
            s -= m[d - j] * c[k - j]
        s %= p
        c.append(s)
        mu = mu << bits | s
        negm = negm << bits | -m[d - 1 - k] % p
        ones = ones << bits | 1
    return (bits, t, (1 << t) // p, (1 << d * bits) - 1,
            ((1 << bits - t) - 1) * ones, mu, negm)


def _ladder(a, b, steps, by_x, m, p):
    """a after steps, each a product reduced mod m on the packed residues:
    "0" squares, "1" multiplies by b or, with by_x, squares and shifts up
    one slot (times x). The three Barrett steps of _kernel run inline, and
    each slot takes its one % p when the result is unpacked."""
    d = len(m) - 1
    bits, t, mu_p, low, qmask, mu, negm = _kernel(tuple(m), p)
    high = d * bits
    top = high - bits
    v = _pack(a, bits)
    base = v if b is a else _pack(b, bits)
    for s in steps:
        if s == "0":
            v *= v
        elif by_x:
            v = v * v << bits
        else:
            v *= base
        h = v >> high
        h -= (h * mu_p >> t & qmask) * p
        q = h * mu >> top
        q -= (q * mu_p >> t & qmask) * p
        v = (v + q * negm) & low
        v -= (v * mu_p >> t & qmask) * p
    mask = (1 << bits) - 1
    return trim([(v >> shift & mask) % p for shift in range(0, high, bits)])


def mulmod(a, b, m, p):
    """a * b mod m for monic m and a, b of degree below deg m: one big-int
    product of the packed operands (Kronecker substitution), reduced by
    the constants of m's kernel and unpacked."""
    return _ladder(a, b, "1", False, m, p)


def powmod(f, e, m, p):
    """f^e mod a monic m, left-to-right square and multiply on the kernel
    of mulmod, packed from start to end with lazy residues in [0, 2p); a
    constant f stays in F_p, and multiplying by a base of x shifts the
    square by one slot. A negative e is refused unless f is a constant:
    take the inverse of f first."""
    if len(f) <= 1:
        return trim([pow(f[0] if f else 0, e, p)])
    if e < 0:
        raise ValueError(f"powmod of a non-constant base needs e >= 0, got {e}")
    if e == 0:
        return [1]
    if len(f) >= len(m):
        f = mod(f, m, p)
    by_x = f == [0, 1]
    steps = bin(e)[3:]
    return _ladder(f, f, steps if by_x else steps.replace("1", "01"),
                   by_x, m, p)


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
