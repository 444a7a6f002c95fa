"""Dense polynomial arithmetic over F_p on plain coefficient lists.

Coefficients are ints in [0, p), constant term first, no trailing zeros;
the zero polynomial is []. Shared by the finite-field and factorization
code so neither has to depend on the other.

mulmod is the one multiply-mod-m kernel: powmod, and through it the
factorization and irreducibility tests, and FqElem multiplication all run
on it. Its modulus m must be monic, and its operands reduced mod m. The one
exception is multiplication by x, a shift plus at most one reduction step
(mulx), which powmod uses when its base is x.
"""


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


def mulmod(a, b, m, p):
    """a * b mod m for monic m and a, b of degree below deg m: a schoolbook
    product, then a descending reduction by m, one % p per coefficient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    dm = len(m) - 1
    for k in range(len(out) - 1, dm - 1, -1):
        c = out[k] % p
        if c:
            for i in range(dm):
                out[k - dm + i] -= c * m[i]
    return trim([c % p for c in out[:dm]])


def mulx(a, m, p):
    """a * x mod a monic m, for a reduced mod m: a shift, then at most one
    reduction step by m."""
    if not a:
        return []
    out = [0] + a
    if len(out) < len(m):
        return out
    c = out.pop()
    return trim([(u - c * v) % p for u, v in zip(out, m)])


def powmod(f, e, m, p):
    """f^e mod a monic m, left-to-right square and multiply; a constant f
    stays in F_p, and multiplying by a base of x is a shift."""
    if len(f) <= 1:
        return trim([pow(f[0] if f else 0, e, p)])
    if e == 0:
        return [1]
    f = mod(f, m, p)
    by_x = f == [0, 1]
    result = f
    for bit in bin(e)[3:]:
        result = mulmod(result, result, m, p)
        if bit == "1":
            result = mulx(result, m, p) if by_x else mulmod(result, f, m, p)
    return result


def deriv(f, p):
    return trim([i * c % p for i, c in enumerate(f)][1:])


def prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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
