"""The batched integer reduction of the family data against the per-element
formula: every coordinate num/den maps to num * den^-1 mod p, and the
residue field's own remainder by P.factor takes it from there. The same
reference checks is_good_prime, which skips the reduction where p does not
divide bad_divisor."""

import math
from fractions import Fraction

import pytest

from rankforge import (
    FamilySpec,
    NumberField,
    PrimeIdeal,
    construct_family,
    enumerate_prime_ideals,
)
from rankforge import _modpoly
from rankforge.family import ReducedFamily, is_good_prime, reduce_family
from rankforge.nagao import average_A_p_analytic
from rankforge.number_field import _theta_images, reduce_coords, reduce_elem

X = 2000
REASONS = ("even residue characteristic", "denominator not invertible",
           "alpha vanishes", "a root vanishes", "repeated roots")


def _family(min_poly, rho, alpha):
    K = NumberField(min_poly)
    return construct_family(FamilySpec(
        K=K, rho=tuple(K.elem(c) for c in rho), alpha=K.elem(alpha)))


FAMILIES = {
    # denominators in rho and in the coefficients
    "sqrt5 with denominators": lambda: _family(
        [-1, -1, 1], [[Fraction(1, 2)], [2], [3, 1], [4], [5], [0, 1]], [2, 1]),
    # residue degrees 1, 2 and 3; alpha = 7 vanishes at the inert 7
    "cbrt2": lambda: _family(
        [-2, 0, 0, 1], [[1], [2], [0, 1], [1, 1], [0, 0, 1], [2, 1]], [7]),
    "Q": lambda: _family([0, 1], [[i] for i in range(1, 7)], [1]),
    # residue degrees 1, 2 and 4: x^4 - 2 is irreducible mod 5 (norm 625)
    "x^4 - 2": lambda: _family(
        [-2, 0, 0, 0, 1], [[1], [2], [0, 1], [1, 1], [0, 0, 1], [2, 1]], [1]),
    # 13 divides a denominator and nothing else in bad_divisor: 1/13 is the
    # only rho of nonzero valuation at 13, and 1, 4, 9, 16, 25 stay
    # distinct mod 13
    "Q with 1/13": lambda: _family(
        [0, 1], [[Fraction(1, 13)], [1], [2], [3], [4], [5]], [1]),
    # 2 is inert (F_16) and no factor of bad_divisor but 2 itself is even:
    # the rho are distinct mod 2, and e_5 of the roots is 0 mod 2, so that
    # b = -A s_5 / (2c) and the other coefficients keep odd denominators
    "x^4 + x + 1": lambda: _family(
        [1, 1, 0, 0, 1],
        [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1]], [1]),
}


def _reference(fam, P):
    """ReducedFamily by the per-element formula and the checks on rho_i.
    The denominator reason reads alpha, rho_i and a..D one element at a
    time, not the common denominator of the rows of fam.coords."""
    p = P.p
    if P.norm % 2 == 0:
        return ReducedFamily(f"even residue characteristic {p}")

    def red(x):
        return P.residue_field.elem(
            [c.numerator * pow(c.denominator, -1, p) for c in x.coeffs])

    data = (fam.spec.alpha, *fam.spec.rho,
            fam.a, fam.b, fam.c, fam.A, fam.B, fam.C, fam.D)
    if any(c.denominator % p == 0 for x in data for c in x.coeffs):
        return ReducedFamily(f"denominator not invertible mod {p}")
    alpha, *rho = map(red, data[:7])
    roots = [r * r for r in rho]
    if not alpha:
        reason = f"alpha vanishes mod {p}"
    elif not all(rho):
        reason = f"a root vanishes mod {p}"
    elif len(set(roots)) < 6:
        reason = f"repeated roots mod {p}"
    else:
        reason = None
    return ReducedFamily(reason, roots=tuple(r.coeffs for r in roots))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_reduce_matches_per_element_formula(name):
    # tuples compare exactly: f coordinates per coefficient, each in [0, p)
    fam = FAMILIES[name]()
    ideals = enumerate_prime_ideals(fam.K, X)
    for P in ideals:
        ref = _reference(fam, P)
        assert reduce_family(fam, P) == ref, P.label()
        # the reference shares nothing with the bad_divisor shortcut
        assert is_good_prime(fam, P) == (ref.reason is None, ref.reason), P.label()
    if name == "cbrt2":
        assert {P.f for P in ideals} == {1, 2, 3}
    if name == "x^4 - 2":
        assert {P.f for P in ideals} == {1, 2, 4}
        assert (625, 5, 4) in {(P.norm, P.p, P.f) for P in ideals}


def test_every_bad_reason_occurs():
    reasons = {reduce_family(fam, P).reason
               for fam in (make() for make in FAMILIES.values())
               for P in enumerate_prime_ideals(fam.K, X)}
    for prefix in REASONS:
        assert any(r and r.startswith(prefix) for r in reasons), prefix


def _bad_factors(fam):
    """The factors of bad_divisor, each on its own: 2, the numerator norms
    of alpha and rho_i, those of the root differences, the denominators."""
    def norms(elems):
        return math.prod(abs(x.norm().numerator) for x in elems)
    spec, r = fam.spec, fam.roots
    return {
        "2": 2,
        "norms": norms((spec.alpha, *spec.rho)),
        "root differences": norms(
            r[i] - r[j] for i in range(6) for j in range(i + 1, 6)),
        "denominators": math.prod(
            c.denominator for x in (spec.alpha, *spec.rho, fam.a, fam.b, fam.c,
                                    fam.A, fam.B, fam.C, fam.D)
            for c in x.coeffs),
    }


def test_each_bad_divisor_factor_is_needed():
    # every factor is the lone witness of some bad ideal, so is_good_prime
    # without it would call that ideal good; and some good ideals lie above
    # a p | bad_divisor, so the shortcut's reducing side runs too
    lone, good_above_bad = set(), 0
    for fam in (make() for make in FAMILIES.values()):
        factors = _bad_factors(fam)
        for P in enumerate_prime_ideals(fam.K, X):
            if is_good_prime(fam, P)[0]:
                good_above_bad += fam.bad_divisor % P.p == 0
                continue
            witnesses = [k for k, d in factors.items() if d % P.p == 0]
            if len(witnesses) == 1:
                lone.update(witnesses)
    assert lone == set(factors)
    assert good_above_bad


@pytest.mark.parametrize("name", list(FAMILIES))
def test_reduce_coords_matches_reduce_elem(name):
    # every row of fam.coords (alpha, the r_i, then the coefficients of g
    # and of h) over one common denominator, one inverse per ideal, against
    # reduce_elem one element at a time
    fam = FAMILIES[name]()
    elems = (fam.spec.alpha, *fam.roots, *fam.g.coeffs, *fam.h.coeffs)
    assert len(elems) == len(fam.coords[0]) == 11 + len(fam.h.coeffs)
    checked = 0
    for P in enumerate_prime_ideals(fam.K, 400):
        if P.p == 2 or fam.coords[1] % P.p == 0:
            continue
        got = reduce_coords(fam.coords, P)
        assert got == [reduce_elem(x, P).coeffs for x in elems], P.label()
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("name", list(FAMILIES))
def test_theta_images_are_reduced_residues(name):
    # 3 theta^i mod P.factor, coefficient by coefficient in [0, p), against
    # the remainder of 3 x^i by the division in _modpoly
    K = FAMILIES[name]().K
    for P in enumerate_prime_ideals(K, X):
        p, g = P.p, list(P.factor.coeffs)
        images = _theta_images(K.n, P.factor.coeffs, p, 3)
        assert len(images) == K.n
        for i, u in enumerate(images):
            want = _modpoly.mod([0] * i + [3 % p], g, p)
            assert u == want + [0] * (P.f - len(want)), (P.label(), i)


def test_reduction_builds_no_multiply_kernel():
    # the images of theta^i come from companion steps, not from mulmod, so
    # no ideal builds a packed kernel for its modulus
    for name in ("sqrt5 with denominators", "cbrt2"):
        fam = FAMILIES[name]()
        ideals = list(enumerate_prime_ideals(fam.K, X))
        misses = _modpoly._kernel.cache_info().misses
        for P in ideals:
            reduce_family(fam, P)
        assert _modpoly._kernel.cache_info().misses == misses, name


def test_per_ideal_records_are_immutable_and_hashable():
    fam = FAMILIES["cbrt2"]()
    P = next(P for P in enumerate_prime_ideals(fam.K, X)
             if P.f == 2 and is_good_prime(fam, P)[0])
    for record in (P, reduce_family(fam, P), average_A_p_analytic(fam, P)):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        copy = record._replace()
        assert copy is not record and copy == record
        assert hash(copy) == hash(record)
    # one residue field per (p, factor), however often or from whichever
    # equal ideal it is asked for
    assert P.residue_field is P.residue_field
    assert PrimeIdeal(*P).residue_field is P.residue_field
