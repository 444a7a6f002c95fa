import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankforge import (
    NumberField,
    Poly,
    expand_from_roots,
    factor_mod_p,
    make_field,
)
from rankforge._modpoly import is_irreducible
from rankforge.errors import (
    InvalidArgument,
    ZeroLeadingCoefficient,
    ZeroPolynomial,
)
from rankforge.number_field import prime_ideals_above
from rankforge.poly import (
    discriminant,
    fraction_from_str,
    poly_from_str,
    poly_to_str,
    resultant,
)
from rankforge.primes import sieve
from oracles import roots_in_fq

F = Fraction


def qpoly(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_eval_mod_5():
    F5 = make_field(5, [0, 1])
    f = Poly([F5.zero, F5.one, F5.zero, F5.one])  # x^3 + x
    assert f(F5.elem(2)) == F5.zero  # 8 + 2 = 10


def test_divmod_over_q():
    q, r = divmod(qpoly(0, 0, 0, 1), qpoly(-1, 1))
    assert q == qpoly(1, 1, 1) and r == qpoly(1)


# coefficient domains of the divisions in the package: Q and F_q
DOMAINS = {"Q": None, "F_9": make_field(3, [1, 0, 1]),
           "F_25": make_field(5, [2, 0, 1])}


def _coeff(domain, n):
    fld = DOMAINS[domain]
    return F(n, 1 + abs(n) % 4) if fld is None else fld.decode(n % fld.q)


def _long_division(f, g):
    """Schoolbook division on coefficient lists, written out independently."""
    f, g = list(f.coeffs), list(g.coeffs)
    quo = [g[-1] * 0] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        shift = len(f) - len(g)
        c = quo[shift] = f[-1] / g[-1]
        for i, b in enumerate(g):
            f[shift + i] = f[shift + i] - c * b
        while f and not f[-1]:
            f.pop()
    return Poly(quo), Poly(f)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)),
       st.lists(st.integers(-30, 30), max_size=10),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_divmod_matches_long_division(domain, f_ints, g_ints):
    f = Poly([_coeff(domain, n) for n in f_ints])
    g = Poly([_coeff(domain, n) for n in g_ints])
    assume(not g.is_zero)
    q, r = divmod(f, g)
    assert (q, r) == _long_division(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
    for part in (q, r):  # canonical: no zero leading coefficient
        assert not part.coeffs or part.coeffs[-1]
    if f.degree < g.degree:
        assert q.is_zero and r == f


def test_derivative():
    assert qpoly(5, 0, 3, 1).derivative() == qpoly(0, 6, 3)


def test_factor_split():
    facs = factor_mod_p([1, 0, 1], 5)  # 2^2 = 3^2 = -1 mod 5
    assert [(f.coeffs, e) for f, e in facs] == [((2, 1), 1), ((3, 1), 1)]


def test_factor_inert():
    facs = factor_mod_p([1, 0, 1], 3)
    assert [(f.coeffs, e) for f, e in facs] == [((1, 0, 1), 1)]


def test_factor_ramified():
    facs = factor_mod_p([-1, -1, 1], 5)  # (x - 3)^2
    assert [(f.coeffs, e) for f, e in facs] == [((2, 1), 2)]


@pytest.mark.parametrize("p", [9, 15, 1, 0, -3])
def test_factor_rejects_non_prime_p(p):
    with pytest.raises(InvalidArgument, match=f"got {p}$"):
        factor_mod_p([-2, 0, 0, 1], p)
    with pytest.raises(InvalidArgument, match=f"got {p}$"):
        prime_ideals_above(NumberField([-1, -1, 1]), p)


def test_factor_builds_a_generator_only_to_split(monkeypatch):
    import rankforge.poly

    built = []
    real = random.Random

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(rankforge.poly.random, "Random", counting)
    # x^3 - 2 mod 5: one root and a degree-2 factor by distinct degree
    facs = factor_mod_p([-2, 0, 0, 1], 5)
    assert [(f.coeffs, e) for f, e in facs] == [((2, 1), 1), ((4, 3, 1), 1)]
    assert built == []
    # (x - 1)(x - 2)(x - 3) mod 101 goes through Cantor-Zassenhaus
    facs = factor_mod_p([-6, 11, -6, 1], 101)
    assert [f.coeffs for f, _ in facs] == [(98, 1), (99, 1), (100, 1)]
    assert built


def test_factor_round_trip_random():
    rng = random.Random(1729)
    primes = [p for p in sieve(997) if p > 2]
    for _ in range(1000):
        p = rng.choice(primes)
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        facs = factor_mod_p(coeffs, p)
        assert sum(f.degree * e for f, e in facs) == deg
        prod = [1]
        from rankforge import _modpoly

        for f, e in facs:
            assert is_irreducible(list(f.coeffs), p)
            for _ in range(e):
                prod = _modpoly.mul(prod, list(f.coeffs), p)
        assert prod == _modpoly.trim([c % p for c in coeffs])


def test_roots_examples():
    F7 = make_field(7, [0, 1])
    f = Poly([F7.elem(-1), F7.zero, F7.one])
    assert roots_in_fq(f, F7) == {F7.elem(1): 1, F7.elem(6): 1}

    F3 = make_field(3, [0, 1])
    assert roots_in_fq(Poly([F3.one, F3.zero, F3.one]), F3) == {}

    F5 = make_field(5, [0, 1])
    sq = Poly([F5.elem(4), F5.elem(-4), F5.one])  # (x - 2)^2
    assert roots_in_fq(sq, F5) == {F5.elem(2): 2}


def test_roots_of_zero_poly():
    F5 = make_field(5, [0, 1])
    with pytest.raises(ZeroPolynomial):
        roots_in_fq(Poly(), F5)


def test_roots_agree_with_exhaustive_scan():
    for p, r in [(7, 2), (3, 3), (11, 1)]:
        fld = make_field(p, [0, 1]) if r == 1 else None
        if fld is None:
            from rankforge.legendre import standard_field

            fld = standard_field(p, r)
        rng = random.Random(p * r)
        for _ in range(20):
            coeffs = [fld.decode(rng.randrange(fld.q)) for _ in range(4)]
            f = Poly(coeffs)
            if f.is_zero:
                continue
            found = roots_in_fq(f, fld)
            naive = {u for u in fld.elements() if not f(u)}
            assert set(found) == naive


def test_expand_from_roots_quadratic():
    f = expand_from_roots([F(1), F(4)], F(1))
    assert f == qpoly(4, -5, 1)


def test_expand_from_roots_degree6():
    f = expand_from_roots([F(i * i) for i in range(1, 7)], F(1))
    assert f.degree == 6
    assert f.coeffs[0] == 518400  # (6!)^2
    assert f.coeffs[5] == -91  # -(1+4+9+16+25+36)


def test_expand_no_roots():
    assert expand_from_roots([], F(3)) == qpoly(3)


def test_expand_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        expand_from_roots([F(1)], F(0))


def test_expand_then_roots_round_trip():
    F7 = make_field(7, [0, 1])
    roots = [F7.elem(2), F7.elem(2), F7.elem(5)]
    f = expand_from_roots(roots, F7.elem(3))
    assert roots_in_fq(f, F7) == {F7.elem(2): 2, F7.elem(5): 1}


def test_resultant_and_discriminant():
    assert discriminant(qpoly(1, 0, 1)) == -4
    assert discriminant(qpoly(-1, -1, 1)) == 5
    # common root makes the resultant vanish
    assert resultant(qpoly(-1, 1) * qpoly(1, 1), qpoly(-1, 1) * qpoly(2, 1)) == 0


def test_poly_text_round_trip():
    f = qpoly(F(-1, 2), 0, 3)
    s = poly_to_str(f)
    assert s == "-1/2,0,3"
    assert poly_from_str(s) == f
    assert fraction_from_str("−3/4") == F(-3, 4)  # unicode minus tolerated


@pytest.mark.parametrize("text, coeffs", [
    ("0", ()), ("1, 2", (1, 2)), (" -1/2 ,0,3", (F(-1, 2), 0, 3)),
    ("4,0,0", (4,))])
def test_poly_from_str_parses_every_part(text, coeffs):
    assert poly_from_str(text).coeffs == coeffs


@pytest.mark.parametrize("text", [
    "", " ", "1,,2", "1,2,", ",1", "1, ,2", "abc", "1/0", "1;2", 5, None,
    ["1", "2"], b"1,2"])
def test_poly_from_str_refuses_malformed_text(text):
    # an empty part used to be dropped, so "-2,,0,1" parsed as x^2 - 2
    with pytest.raises(InvalidArgument, match=r"^cannot parse "):
        poly_from_str(text)
