"""Arithmetic in F_{p^r} for odd p, with the quadratic character.

Elements live in a polynomial basis over F_p with an explicitly supplied
modulus; the prime-field case r = 1 goes through the same code path.

FqElem with chi(u) (squares table) and quadratic_character (Euler's
criterion) is the simple element-level path that the reference oracles of
the test suite read. FqField.tables() codes elements as ints with O(q)
log/antilog tables (Lidl-Niederreiter, Finite Fields, ch. 9), walked on
plain int coefficient vectors with no FqElem in the loop, for the two
brute-force kernels of the t-sum of chi(a t^2 + b t + c), both summing chi
over every t. FqTables.t_sums takes a whole batch of triples in one pass
over t: each triple is a slot of packed digit-plane ints, a t^2 + b t + c
follows t by finite differences (slotwise adds mod p, no field multiply),
and chi is read for every slot at once by bytes.translate. The random
Legendre sweep and the direct A_p method in nagao (minus its sum over x,
its triples built on the same tables) use it. FqTables.row_sums gives all
q values of c of one (a, b) at once from a packed chi, for the exhaustive
Legendre sweep, which checks each such row whole against its closed form.
The analytic A_p method needs no tables.
"""

import itertools
import operator
import struct
from typing import NamedTuple

from . import _modpoly
from .errors import CompositeCharacteristic, FieldMismatch, ReducibleModulus
from .poly import FieldElem, _coerced, int_coeffs, poly_to_str
from .primes import is_prime


class FqField:
    """The field with q = p^r elements, p an odd prime.

    modulus is a monic irreducible polynomial over F_p of degree r, given
    constant-first as a sequence of ints in [0, p). The caller vouches for
    p and the modulus; make_field checks them.
    """

    def __init__(self, p, modulus):
        self.p = p
        self.r = len(modulus) - 1
        self.modulus = tuple(modulus)
        self.q = p ** self.r
        self._elements = None
        self._chi = None

    def elem(self, coeffs):
        """Element from a coefficient sequence (or an int) mod p."""
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        c = [x % self.p for x in coeffs]
        if len(c) > self.r:
            c = list(_modpoly.mod(_modpoly.trim(c), list(self.modulus), self.p))
        c += [0] * (self.r - len(c))
        return FqElem(self, tuple(c))

    @property
    def zero(self):
        return self.elem(0)

    @property
    def one(self):
        return self.elem(1)

    def generator(self):
        """The class of the basis variable theta."""
        return self.elem([0, 1])

    def encode(self, u):
        """Index of u in enumeration order (base-p digits, constant first)."""
        code = 0
        for c in reversed(u.coeffs):
            code = code * self.p + c
        return code

    def decode(self, code):
        coeffs = []
        for _ in range(self.r):
            coeffs.append(code % self.p)
            code //= self.p
        return FqElem(self, tuple(coeffs))

    def elements(self):
        """All q elements, lexicographic on coefficient vectors. Cached."""
        if self._elements is None:
            self._elements = [self.decode(i) for i in range(self.q)]
        return self._elements

    def chi_table(self):
        """chi by element index, built by marking squares. Cached.

        The independent reference behind chi(u); bulk kernels use tables().
        """
        if self._chi is None:
            table = [-1] * self.q
            table[0] = 0
            for u in self.elements()[1:]:
                table[self.encode(u * u)] = 1
            self._chi = table
        return self._chi

    def tables(self):
        """Integer-coded arithmetic of this field in O(q) for fixed r, built
        afresh on every call (never cached), for the t-sum kernels and their
        callers: t_sums, one batch per call, for nagao's direct A_p method
        (capped at norm 1000) and the random Legendre sweep; row_sums for
        the exhaustive sweep.

        Coefficients c_0..c_{r-1} give the code sum c_i (2p-1)^i, so adding
        two codes never carries: red[a + b] is the code of the sum, and log
        (and chi()) accept such a sum too. exp and log come from walking the
        powers of a primitive element g on coefficient vectors of plain
        ints: times g is the linear map whose r columns are g theta^i, built
        once, and each power's code is read off its vector. exp[k] is the
        code of g^k, so exp[log[a] + log[b]] is the product; log 0 is a
        sentinel past which exp reads 0. -1 = g^((q-1)/2) has the code p - 1,
        so -a is exp[log[a] + log[p - 1]].
        """
        p, q, r = self.p, self.q, self.r
        base = 2 * p - 1
        codes = list(range(p))
        red = codes + codes[:-1]
        for j in range(1, r):
            step = base ** j
            red = [d % p * step + s for d in range(base) for s in red]
            codes = [d * step + c for d in range(p) for c in codes]
        # primitive g: g^((q-1)/l) != 1 for every prime l | q-1. 1 never is,
        # nor any constant if r > 1, so a zero top coefficient goes last
        top = p ** (r - 1)
        exponents = [(q - 1) // l for l in _modpoly.prime_divisors(q - 1)]
        for i in itertools.chain(range(max(top, 2), q), range(2, top)):
            g = self.decode(i)
            if all(g ** e != self.one for e in exponents):
                break
        # u -> u g on coefficient vectors: row j of the map holds
        # coefficient j of each column g theta^i
        rows = list(zip(*(self.elem([0] * i + list(g.coeffs)).coeffs
                          for i in range(r))))
        weights = [base ** i for i in range(r)]
        zero_log = 2 * (q - 1)  # above any sum of two logs of nonzero codes
        log, powers, u = [zero_log] * len(red), [], [1] + [0] * (r - 1)
        for k in range(q - 1):
            code = sum(map(operator.mul, u, weights))
            log[code] = k
            powers.append(code)
            u = [sum(map(operator.mul, u, row)) % p for row in rows]
        log = list(map(log.__getitem__, red))
        return FqTables(codes, red, log, powers * 2 + [0] * (2 * q - 1), p, r)

    def chi(self, u):
        """Quadratic character of u via the cached squares table."""
        if u.field != self:
            raise FieldMismatch("element of a different field")
        return self.chi_table()[self.encode(u)]

    def __eq__(self, other):
        return (isinstance(other, FqField)
                and self.p == other.p and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"F_{self.p}"
        return f"F_{self.q} = F_{self.p}[x]/{list(self.modulus)}"


class FqTables(NamedTuple):
    """Integer-coded arithmetic of one field; see FqField.tables."""

    codes: list  # code of each element, in enumeration order
    red: list  # red[a + b]: code of the field sum of codes a and b
    log: list  # log[s]: discrete log of red[s]; log[0] is the zero sentinel
    exp: list  # exp[k]: code of g^k; 0 from the sentinel on
    p: int  # the characteristic
    r: int  # the degree over F_p

    def code(self, coords):
        """The code of the element with these coordinates over F_p."""
        return sum(c * (2 * self.p - 1) ** i for i, c in enumerate(coords))

    def chi(self):
        """chi[s], the quadratic character of red[s]: the parity of log."""
        sign = [1, -1] * (self.log[0] // 2) + [0]
        return list(map(sign.__getitem__, self.log))

    def t_sums(self, triples):
        """Per (log a, log b, code c): sum over t in F_q of chi(a t^2 + b t + c),
        as a list; a or b = 0 is the log 0 sentinel, read from exp. Every t
        is enumerated for every triple, in one packed pass over t for all.

        Triple i owns slot i of each plane int, and plane k of an element
        holds its digit k times p^k (Kronecker packing, digit by digit), so
        the planes of V = a t^2 + b t + c add up to the index of V in
        enumeration order. Step number i = 1..q-1 adds theta^j, j the p-adic
        valuation of i: digit k of t is then i_k - i_(k+1) mod p, and t
        meets every element once. With D_m = V(t + theta^m) - V(t), a step
        along theta^j is V += D_j, then D_m += 2a theta^(m+j) (finite
        differences: no field multiply in the loop). Each is a slotwise add
        per plane and one bias-and-mask subtraction of p^(k+1). D_m is read
        only at steps along theta^m, so it is brought up to date only at
        steps with j >= m; the steps between two of those add -theta^(m-1)
        to t, so D_m -= 2a theta^(2m-1) first. chi(V) + 1 is read by one
        bytes.translate of the index's low bytes per value of its higher
        bytes, which select the slots that table applies to; the results
        add up in 8-bit slots, moved into the sums every 127 values of t.
        """
        triples = list(triples)
        n = len(triples)
        if not n:
            return []
        p, r, codes, red, log, exp = (
            self.p, self.r, self.codes, self.red, self.log, self.exp)
        q, order, ks = len(codes), len(codes) - 1, range(r)
        # q <= 2^top: a sum before reduction, below 2q, fits the slot
        fmt = "B" if q < 1 << 7 else "H" if q < 1 << 15 else "Q"
        width = struct.calcsize(fmt)
        size, top = n * width, 8 * width - 1
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * n, "little")
        highs = ones << top
        mods = [p ** (k + 1) for k in ks]
        bias = [((1 << top) - mod) * ones for mod in mods]

        def reduce(x, k):  # from below 2 p^(k+1) in every slot
            return x - ((x + bias[k] & highs) >> top) * mods[k]

        def add(X, Y):
            for k in ks:
                X[k] = reduce(X[k] + Y[k], k)

        # V and the D_m at t = 0, c and a theta^(2m) + b theta^m, and the
        # steps E_s = 2a theta^s, as codes, then as planes
        ltheta = log[codes[p]] if r > 1 else 0
        lpow = [s * ltheta % order for s in range(2 * r - 1)]
        las, lbs, cs = zip(*triples)
        values = [cs]
        values += [[red[exp[la + lpow[2 * m]] + exp[lb + lpow[m]]]
                    for la, lb in zip(las, lbs)] for m in ks]
        values += [[exp[la + l2] for la in las]
                   for l2 in ((log[2] + lp) % order for lp in lpow)]
        scaled = [[0] * len(red) for _ in ks]  # code -> digit k times p^k
        for i, c in enumerate(codes):
            for k in ks:
                scaled[k][c] = i % mods[k] - i % (mods[k] // p)

        def planes(vals):
            return [int.from_bytes(struct.pack(f"<{n}{fmt}", *map(
                dig.__getitem__, vals)), "little") for dig in scaled]

        V, *rest = map(planes, values)
        D, E = rest[:r], rest[r:]
        # the catch-ups C_m = -E_(2m-1), negated slotwise
        C = [None] + [[reduce(mod * ones - x, k)
                       for k, mod, x in zip(ks, mods, E[2 * m - 1])]
                      for m in range(1, r)]

        chi1 = bytes(x + 1 for x in map(self.chi().__getitem__, codes))
        high_bytes = ((q - 1).bit_length() - 1) // 8  # those ever nonzero
        lookups = [(chi1[h:h + 256].ljust(256, b"\0"),
                    [(i, bytes(v) + b"\xff" + bytes(255 - v)) for i, v in
                     enumerate((h >> 8).to_bytes(high_bytes, "little"), 1)])
                   for h in range(0, q, 256)]

        def chi_plus_one():
            index = V[0]
            for plane in V[1:]:
                index += plane
            index = index.to_bytes(size, "little")
            low, total = index[::width], 0
            for table, select in lookups:
                part = int.from_bytes(low.translate(table), "little")
                for i, eq in select:
                    part &= int.from_bytes(
                        index[i::width].translate(eq), "little")
                total += part
            return total

        steps = [0] * (p - 1)
        for k in range(1, r):
            steps = (steps + [k]) * (p - 1) + steps
        sums, acc = [-q] * n, chi_plus_one()
        for i, j in enumerate(steps, 2):  # i values of t so far
            for m in range(1, j + 1):
                add(D[m], C[m])
            add(V, D[j])
            for m in range(j + 1):
                add(D[m], E[m + j])
            acc += chi_plus_one()
            if i % 127 == 0 or i == q:  # 127 values of chi + 1 <= 2 fit a byte
                sums = list(map(operator.add, sums, acc.to_bytes(n, "little")))
                acc = 0
        return sums

    def row_sums(self, rows):
        """Per (log a, log b): the t-sums of chi(a t^2 + b t + c) for every c,
        in the order of codes, all from one packed chi (Kronecker packing).

        Slot s of one int holds chi[s] + 1 in whole bytes wide enough for
        2q + 1. Shifted down by the code v_t of a t^2 + b t, the int holds
        chi(v_t + c) + 1 in slot c, so the sum of the q shifted ints holds
        sum_t chi(v_t + c) + q there: q big-int shift-adds per row instead
        of q^2 table reads, every t still enumerated."""
        red, log, exp, codes = self.red, self.log, self.exp, self.codes
        # (log t^2, log t) for every t, t = 0 as the sentinel pair
        t_logs = [(log[exp[lt + lt]], lt) for lt in map(log.__getitem__, codes)]
        q = len(codes)
        width = -(-(2 * q + 1).bit_length() // 8)
        bits = 8 * width
        mask = (1 << bits) - 1
        packed = int.from_bytes(b"".join(
            (x + 1).to_bytes(width, "little") for x in self.chi()), "little")
        shifts = [c * bits for c in codes]
        for la, lb in rows:
            total = 0
            for ltt, lt in t_logs:
                total += packed >> bits * red[exp[la + ltt] + exp[lb + lt]]
            yield [(total >> s & mask) - q for s in shifts]


class FqElem(FieldElem):
    """Immutable element of an FqField; coefficient tuple of length r."""

    __slots__ = ()

    @_coerced
    def __mul__(self, other):
        f = self.field
        prod = _modpoly.mulmod(self.coeffs, other.coeffs, f.modulus, f.p)
        prod += [0] * (f.r - len(prod))
        return FqElem(f, tuple(prod))

    __rmul__ = __mul__

    def _inverse(self):
        return self ** (self.field.q - 2)

    def _pow(self, e):
        f = self.field
        return f.elem(_modpoly.powmod(list(self.coeffs), e, f.modulus, f.p))

    def __repr__(self):
        return f"FqElem{list(self.coeffs)}@{self.field!r}"


def make_field(p, modulus):
    """F_p[x]/(modulus) from unchecked input: p must be an odd prime, and
    the modulus, reduced mod p, monic and irreducible."""
    if p == 2 or not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not an odd prime")
    mod = _modpoly.trim([c % p for c in int_coeffs(modulus, "modulus")])
    if len(mod) < 2 or mod[-1] != 1:
        raise ReducibleModulus("modulus must be monic of degree >= 1")
    if not _modpoly.is_irreducible(mod, p):
        raise ReducibleModulus(f"modulus {poly_to_str(mod)} factors over F_{p}")
    return FqField(p, mod)


def quadratic_character(u):
    """Euler's criterion: u^((q-1)/2), read as 0 / +1 / -1."""
    if not u:
        return 0
    v = u ** ((u.field.q - 1) // 2)
    return 1 if v == u.field.one else -1
