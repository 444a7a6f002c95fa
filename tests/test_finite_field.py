import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankforge import make_field, quadratic_character
from rankforge.errors import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldMismatch,
    InvalidArgument,
    ReducibleModulus,
)
from rankforge.legendre import odd_prime_powers, standard_field
from oracles import quad_sum_brute, quad_sum_closed

X = [0, 1]


def test_make_prime_field():
    fld = make_field(7, X)
    assert fld.q == 7 and fld.r == 1


def test_make_extension_field():
    fld = make_field(3, [1, 0, 1])  # x^2 + 1 has no root mod 3
    assert fld.q == 9 and fld.r == 2


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(5, [-1, 0, 1])  # (x-1)(x+1)


@pytest.mark.parametrize("modulus", [[Fraction(3, 2), 1], [2.5, 0, 1]])
def test_non_integer_modulus_rejected(modulus):
    with pytest.raises(InvalidArgument, match="^modulus .* has a non-integer coefficient$"):
        make_field(5, modulus)


@pytest.mark.parametrize("p", [2, 1, 15, 91])
def test_bad_characteristic_rejected(p):
    with pytest.raises(CompositeCharacteristic):
        make_field(p, X)


def test_defining_relation_f9():
    F9 = make_field(3, [1, 0, 1])
    theta = F9.generator()
    assert theta * theta == F9.elem(2)


def test_fermat_f7():
    F7 = make_field(7, X)
    assert F7.elem(3) ** 6 == F7.one


def test_pow_f9():
    F9 = make_field(3, [1, 0, 1])
    u = F9.one + F9.generator()
    assert u ** 4 == F9.elem(2)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        make_field(7, X).elem(1) + make_field(5, X).elem(1)


def test_chi_takes_elements_of_an_equal_field():
    # the same rule as arithmetic: fields compare by (p, modulus)
    F7, again = make_field(7, X), make_field(7, X)
    assert F7.chi(again.elem(2)) == 1 == F7.chi(F7.elem(2))
    with pytest.raises(FieldMismatch):
        F7.chi(make_field(5, X).elem(1))


def test_division_by_zero():
    F7 = make_field(7, X)
    with pytest.raises(DivisionByZero):
        F7.elem(3) / F7.zero


def test_division_inverts():
    F9 = make_field(3, [1, 0, 1])
    for u in F9.elements():
        if u:
            assert (F9.one / u) * u == F9.one


def test_chi_examples():
    F7 = make_field(7, X)
    assert quadratic_character(F7.elem(2)) == 1  # squares mod 7: {1,2,4}
    assert quadratic_character(F7.zero) == 0
    F9 = make_field(3, [1, 0, 1])
    assert quadratic_character(F9.one + F9.generator()) == -1


def test_enumeration_order_f3():
    F3 = make_field(3, X)
    assert [u.coeffs[0] for u in F3.elements()] == [0, 1, 2]


def test_enumeration_f9():
    F9 = make_field(3, [1, 0, 1])
    elems = F9.elements()
    assert len(elems) == 9
    assert not elems[0]
    assert len(set(e.coeffs for e in elems)) == 9


def test_chi_sum_vanishes_f7():
    F7 = make_field(7, X)
    assert sum(quadratic_character(u) for u in F7.elements()) == 0


@pytest.mark.parametrize("q,p,r", odd_prime_powers(49))
def test_chi_table_matches_euler_exhaustively(q, p, r):
    fld = standard_field(p, r)
    for u in fld.elements():
        assert fld.chi(u) == quadratic_character(u)


@pytest.mark.parametrize("q,p,r", odd_prime_powers(49))
def test_chi_multiplicative_exhaustively(q, p, r):
    fld = standard_field(p, r)
    elems = [u for u in fld.elements() if u]
    chi = fld.chi
    for u in elems:
        cu = chi(u)
        for v in elems:
            assert chi(u * v) == cu * chi(v)


@pytest.mark.parametrize("q,p,r", [(121, 11, 2), (125, 5, 3), (343, 7, 3)])
def test_chi_multiplicative_random_large(q, p, r):
    import random

    fld = standard_field(p, r)
    rng = random.Random(q)
    chi = fld.chi
    for _ in range(1000):
        u = fld.decode(rng.randrange(1, q))
        v = fld.decode(rng.randrange(1, q))
        assert chi(u * v) == chi(u) * chi(v)
        assert chi(u) == quadratic_character(u)


@pytest.mark.parametrize("q,p,r", odd_prime_powers(49))
def test_square_counts(q, p, r):
    fld = standard_field(p, r)
    chi = fld.chi
    values = [chi(u) for u in fld.elements() if u]
    assert values.count(1) == (q - 1) // 2
    assert values.count(-1) == (q - 1) // 2
    for u in fld.elements():
        if u:
            assert chi(u * u) == 1


@pytest.mark.parametrize("q,p,r", odd_prime_powers(49))
def test_frobenius_fixed_points(q, p, r):
    fld = standard_field(p, r)
    for u in fld.elements():
        assert u ** q == u


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.data())
def test_field_axioms_random(p, data):
    fld = standard_field(p, 2)
    a = fld.decode(data.draw(st.integers(0, fld.q - 1)))
    b = fld.decode(data.draw(st.integers(0, fld.q - 1)))
    c = fld.decode(data.draw(st.integers(0, fld.q - 1)))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


def _code(fld, u):
    """The documented code of u: its coefficients as base-(2p-1) digits."""
    return sum(c * (2 * fld.p - 1) ** i for i, c in enumerate(u.coeffs))


@pytest.mark.parametrize("q,p,r", odd_prime_powers(125))
def test_tables_match_reference_exhaustively(q, p, r):
    fld = standard_field(p, r)
    t = fld.tables()
    chi = t.chi()
    elems = fld.elements()
    codes = [_code(fld, u) for u in elems]
    assert t.codes == codes == [t.code(u.coeffs) for u in elems]
    elem_of = dict(zip(codes, elems))
    assert len(elem_of) == q
    minus_one = t.log[p - 1]
    assert minus_one == (q - 1) // 2
    for a, u in zip(codes, elems):
        assert t.red[a] == a
        assert chi[a] == quadratic_character(u)
        minus_a = t.exp[t.log[a] + minus_one]
        assert elem_of[minus_a] == -u
        for b, v in zip(codes, elems):
            s = a + b  # carry-free: every digit stays below 2p - 1
            assert elem_of[t.red[s]] == u + v
            assert t.log[s] == t.log[t.red[s]] and chi[s] == chi[t.red[s]]
            minus_b = t.exp[t.log[b] + minus_one]
            assert elem_of[t.red[a + minus_b]] == u - v
            assert elem_of[t.exp[t.log[a] + t.log[b]]] == u * v


def test_tables_are_built_per_call():
    fld = standard_field(3, 2)
    kept = dict(vars(fld))
    assert fld.tables() is not fld.tables()
    assert vars(fld) == kept


def _check_t_sums(fld, triples):
    """t_sums of one batch of (a, b, c) element indices against the FqElem
    oracle quad_sum_brute, triple by triple."""
    t = fld.tables()
    elems = fld.elements()
    sums = t.t_sums((t.log[t.codes[a]], t.log[t.codes[b]], t.codes[c])
                    for a, b, c in triples)
    assert isinstance(sums, list)
    for (a, b, c), s in zip(triples, sums, strict=True):
        assert s == quad_sum_brute(elems[a], elems[b], elems[c]), (a, b, c)


@pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (5, 2), (3, 3)],
                         ids=["3", "9", "25", "27"])
def test_t_sums_match_the_fqelem_oracle_on_every_triple(p, r):
    # a = 0 never reaches the Legendre sweep, but the direct A_p method
    # passes it at x = 0, so zero coefficients are covered here too
    fld = standard_field(p, r)
    _check_t_sums(fld, list(itertools.product(range(fld.q), repeat=3)))


@pytest.mark.parametrize("p, r", [(257, 1), (17, 2), (7, 3)],
                         ids=["257", "289", "343"])
def test_t_sums_match_the_fqelem_oracle_on_seeded_triples(p, r):
    # indices above 255 take two translate tables, selected by the high
    # byte of the index; the first triples put a zero in each place
    fld = standard_field(p, r)
    rng = random.Random(p)
    triples = [(0, 1, 2), (3, 0, 4), (5, 6, 0), (0, 0, 7), (0, 0, 0)]
    triples += [tuple(rng.randrange(fld.q) for _ in range(3))
                for _ in range(200)]
    _check_t_sums(fld, triples)


def test_t_sums_of_no_triples_and_of_one():
    t = standard_field(3, 2).tables()
    assert t.t_sums([]) == [] and t.t_sums(iter(())) == []
    # a = 1, b = 2, c = 1: (t + 1)^2 is a nonzero square at all but one t
    assert t.t_sums([(t.log[1], t.log[2], 1)]) == [8]


@pytest.mark.parametrize("p", [127, 131])
def test_t_sums_at_the_slot_width_edge(p):
    # q = 127 is the largest q in 8-bit slots, 131 the smallest in 16-bit
    # ones: every c of a square a = 1 and of a nonsquare a, b = 2, which
    # hold the extreme sums q - 1 and -(q - 1)
    fld = standard_field(p, 1)
    nonsquare = next(a for a in range(2, p) if fld.chi(fld.elem(a)) < 0)
    _check_t_sums(fld, [(a, 2, c) for a in (1, nonsquare) for c in range(p)])


def test_t_sums_in_64_bit_slots():
    # q >= 2^15 no longer fits 16-bit slots; closed form as the oracle
    p = 32771
    fld = standard_field(p, 1)
    t = fld.tables()
    coeffs = [(1, 2, 1), (3, 0, p - 1), (p - 1, 7, 12345)]
    sums = t.t_sums((t.log[a], t.log[b], c) for a, b, c in coeffs)
    assert sums == [quad_sum_closed(*map(fld.elem, abc)) for abc in coeffs]
    assert sums[0] == p - 1


@pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (5, 2), (3, 3)],
                         ids=["3", "9", "25", "27"])
def test_row_sums_match_t_sums_on_every_triple(p, r):
    # t_sums is pinned to the FqElem oracle above; a = 0 and b = 0 are the
    # log 0 sentinel, read from exp like every other log
    t = standard_field(p, r).tables()
    rows = [(t.log[a], t.log[b]) for a in t.codes for b in t.codes]
    got = list(t.row_sums(rows))
    assert all(len(sums) == p ** r for sums in got)
    triples = [(la, lb, c) for la, lb in rows for c in t.codes]
    assert [s for sums in got for s in sums] == list(t.t_sums(triples))


@pytest.mark.parametrize("p", [127, 131])
def test_row_sums_match_t_sums_at_the_slot_width_edge(p):
    # a = 1 is a square, so its row holds the degenerate c = b^2/4, whose
    # slot reads (q - 1) + q: 253 fits the 8-bit slots of q = 127, while
    # 261 needs the 16-bit slots of q = 131; a = g (log 1) is a nonsquare
    t = standard_field(p, 1).tables()
    rows = [(t.log[t.codes[1]], t.log[t.codes[2]]), (1, t.log[0])]
    got = list(t.row_sums(rows))
    assert max(got[0]) == p - 1
    for (la, lb), sums in zip(rows, got, strict=True):
        assert sums == list(t.t_sums((la, lb, c) for c in t.codes))
