"""FqElem reference oracles for the integer-coded kernels of rankforge.

Each works element by element through FqElem and Poly arithmetic, with
chi from FqField.chi (the squares table), so it shares no arithmetic with
FqField.tables(), FqTables.t_sums or the A_p methods it checks: roots
found by scanning every element, point counts of a fiber over every x,
and quadratic character sums over every t, beside their closed form.
sweep_counts applies the Legendre sweep's rule triple by triple, finding
the degenerate triples by b^2 = 4ac in FqElem arithmetic; it reads chi(a)
from FqTables.chi, as the sweep does, so a broken chi bites both alike.
randrange_triples draws the random sweep's triples with rng.randrange.
"""

from rankforge.errors import BadPrime, ZeroLeadingCoefficient, ZeroPolynomial
from rankforge.family import reduce_family
from rankforge.number_field import reduce_elem
from rankforge.poly import Poly


def roots_in_fq(f, field):
    """Roots of f in the given field, with multiplicities.

    Exhaustive scan; multiplicities via repeated synthetic division.
    """
    if f.is_zero:
        raise ZeroPolynomial("every element is a root of the zero polynomial")
    out = {}
    for u in field.elements():
        if not f(u):
            mult = 0
            g = f
            lin = Poly([-u, field.one])
            while True:
                q, r = divmod(g, lin)
                if not r.is_zero:
                    break
                mult += 1
                g = q
            out[u] = mult
    return out


def fiber_polynomial(fam, P, t):
    """The cubic in x of the fiber at T = t over the residue field:
    t^2 x^3 + 2 g(x) t - h(x), with the coefficients of g and h reduced one
    at a time by reduce_elem, not in the direct method's batch."""
    fld = P.residue_field
    if t.field != fld:
        raise BadPrime("t must live in the residue field of P")
    reduced = reduce_family(fam, P)
    if reduced.roots is None:
        raise BadPrime(reduced.reason)
    x3 = Poly([fld.zero] * 3 + [t * t])
    g, h = (Poly([reduce_elem(c, P) for c in f.coeffs]) for f in (fam.g, fam.h))
    return x3 + g * (t + t) - h


def curve_trace(cubic, fld):
    """q + 1 - #E for y^2 = cubic(x): the negated affine character sum.

    Defined uniformly for singular cubics too (affine points plus one at
    infinity), so the direct and analytic routes stay consistent.
    """
    chi = fld.chi
    return -sum(chi(cubic(x)) for x in fld.elements())


def trace_a_t(fam, P, t):
    """a_t(P) for a single fiber; a bad P raises BadPrime."""
    reason = reduce_family(fam, P).reason
    if reason is not None:
        raise BadPrime(reason)
    return curve_trace(fiber_polynomial(fam, P, t), P.residue_field)


def quad_sum_closed(a, b, c):
    """Closed form of the sum over t of chi(a t^2 + b t + c), valid only
    for a != 0 in odd characteristic."""
    if not a:
        raise ZeroLeadingCoefficient("closed form requires a != 0")
    fld = a.field
    disc = b * b - 4 * a * c
    chi_a = fld.chi(a)
    if not disc:
        return (fld.q - 1) * chi_a
    return -chi_a


def quad_sum_brute(a, b, c):
    """Direct enumeration of sum over t of chi(a t^2 + b t + c)."""
    fld = a.field
    chi = fld.chi
    return sum(chi(a * t * t + b * t + c) for t in fld.elements())


def sweep_counts(fld, tables):
    """(checked, mismatches, conic_violations) of every (a, b, c) with
    a != 0 over fld, on the t-sums of tables.row_sums, triple by triple:
    a mismatch where the sum is not its closed form, a violation where a
    nondegenerate conic has a sum outside [-1, 1]."""
    elems, code, log = fld.elements(), tables.code, tables.log
    chi = tables.chi()
    pairs = [(a, b) for a in elems[1:] for b in elems]
    rows = [(log[code(a.coeffs)], log[code(b.coeffs)]) for a, b in pairs]
    checked = mism = viol = 0
    for (a, b), sums in zip(pairs, tables.row_sums(rows), strict=True):
        chi_a, b2, a4 = chi[code(a.coeffs)], b * b, 4 * a
        for c, s in zip(elems, sums, strict=True):
            degenerate = b2 == a4 * c
            checked += 1
            if s != ((fld.q - 1) * chi_a if degenerate else -chi_a):
                mism += 1
            if not degenerate and not -1 <= s <= 1:
                viol += 1
    return checked, mism, viol


def randrange_triples(tables, rng, count):
    """count (log a, log b, code c) triples over the field of tables, with
    a, b and c indexed by rng.randrange(1, q), rng.randrange(q) and
    rng.randrange(q) in turn: the draws the random Legendre sweep makes."""
    codes, log = tables.codes, tables.log
    q = len(codes)
    return [(log[codes[rng.randrange(1, q)]], log[codes[rng.randrange(q)]],
             codes[rng.randrange(q)]) for _ in range(count)]
