import random
from fractions import Fraction

import pytest

from rankforge import (
    FamilySpec,
    NumberField,
    Poly,
    construct_family,
    expand_from_roots,
    is_good_prime,
    reduce_elem,
)
from rankforge.errors import InvalidArgument, RepeatedRoot, ZeroAlpha, ZeroRoot
from conftest import ideal_above
from oracles import fiber_polynomial


def test_reference_family_coefficients(fam_rat):
    K = fam_rat.K
    assert fam_rat.c == K.elem(720)
    assert fam_rat.A == K.one
    assert fam_rat.b == K.elem(Fraction(-5369, 10))


def test_reference_family_dt(fam_rat):
    K = fam_rat.K
    target = expand_from_roots([K.elem(i * i) for i in range(1, 7)], K.one)
    assert fam_rat.D_T == target
    assert fam_rat.D_T.degree == 6


def test_identity_holds(fam_rat, fam_sqrt5):
    for fam in (fam_rat, fam_sqrt5):
        K = fam.K
        x3 = Poly([K.zero, K.zero, K.zero, K.one])
        lhs = fam.g * fam.g + x3 * fam.h
        assert (lhs - expand_from_roots(fam.roots, fam.A)).is_zero


def test_repeated_root_rejected(K_rat):
    rho = tuple(K_rat.elem(v) for v in (1, -1, 2, 3, 4, 5))
    with pytest.raises(RepeatedRoot):
        construct_family(FamilySpec(K=K_rat, rho=rho, alpha=K_rat.one))


def test_zero_root_rejected(K_rat):
    rho = tuple(K_rat.elem(v) for v in (0, 1, 2, 3, 4, 5))
    with pytest.raises(ZeroRoot):
        construct_family(FamilySpec(K=K_rat, rho=rho, alpha=K_rat.one))


def test_zero_alpha_rejected(K_rat):
    rho = tuple(K_rat.elem(v) for v in (1, 2, 3, 4, 5, 6))
    with pytest.raises(ZeroAlpha):
        construct_family(FamilySpec(K=K_rat, rho=rho, alpha=K_rat.zero))


def test_five_rho_refused(K_rat):
    rho = tuple(K_rat.elem(v) for v in (1, 2, 3, 4, 5))
    with pytest.raises(InvalidArgument, match="^a family needs six rho, got 5$"):
        construct_family(FamilySpec(K=K_rat, rho=rho, alpha=K_rat.one))


def test_sqrt5_family_with_theta_root(K_sqrt5):
    theta = K_sqrt5.theta()
    rho = tuple(K_sqrt5.elem(v) for v in (1, 2, 3, 4, 5)) + (theta,)
    fam = construct_family(FamilySpec(K=K_sqrt5, rho=rho, alpha=K_sqrt5.one))
    assert fam.roots[5] == theta + 1  # theta^2 = theta + 1
    assert len(set(fam.roots)) == 6


def test_good_and_bad_primes(fam_rat):
    K = fam_rat.K
    assert is_good_prime(fam_rat, ideal_above(K, 37))[0]
    good, reason = is_good_prime(fam_rat, ideal_above(K, 3))
    assert not good and "3" in reason
    good, reason = is_good_prime(fam_rat, ideal_above(K, 2))
    assert not good and "even" in reason


def test_bad_prime_set_reference_family(fam_rat):
    K = fam_rat.K
    bad = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
           if not is_good_prime(fam_rat, ideal_above(K, p))[0]]
    assert bad == [2, 3, 5, 7, 11]
    for p in bad:
        assert fam_rat.bad_divisor % p == 0


def test_good_primes_have_distinct_square_roots(fam_rat):
    P = ideal_above(fam_rat.K, 37)
    fld = P.residue_field
    bars = [reduce_elem(r, P) for r in fam_rat.roots]
    assert len(set(bars)) == 6
    assert all(bars)
    assert all(fld.chi(v) == 1 for v in bars)


def test_fiber_at_t_zero(fam_rat):
    P = ideal_above(fam_rat.K, 37)
    fld = P.residue_field
    f = fiber_polynomial(fam_rat, P, fld.zero)
    hbar = [reduce_elem(c, P) for c in fam_rat.h.coeffs]
    hbar += [fld.zero] * (4 - len(hbar))
    assert list(f.coeffs) + [fld.zero] * (4 - len(f.coeffs)) == \
        [-c for c in hbar]


def test_fiber_leading_coefficient_contract(fam_rat):
    # x^3 coefficient is t^2 + 2t - (A - 1)
    P = ideal_above(fam_rat.K, 37)
    fld = P.residue_field
    Abar = reduce_elem(fam_rat.A, P)
    for tv in (1, 5, 20, 36):
        t = fld.elem(tv)
        f = fiber_polynomial(fam_rat, P, t)
        coeffs = list(f.coeffs) + [fld.zero] * (4 - len(f.coeffs))
        assert coeffs[3] == t * t + t + t - (Abar - fld.one)


def test_fiber_commutes_with_reduction(fam_rat):
    K = fam_rat.K
    P = ideal_above(K, 41)
    fld = P.residue_field
    rng = random.Random(41)
    for _ in range(10):
        t0, x0 = rng.randrange(100), rng.randrange(100)
        # evaluate f(x0, t0) exactly in K, then reduce
        kt, kx = K.elem(t0), K.elem(x0)
        exact = (kx ** 3) * kt * kt + \
            (fam_rat.g(kx) * kt + fam_rat.g(kx) * kt) - fam_rat.h(kx)
        f = fiber_polynomial(fam_rat, P, fld.elem(t0))
        assert f(fld.elem(x0)) == reduce_elem(exact, P)


def _fiber_by_padded_loop(fam, P, t):
    """t^2 x^3 + 2 g(x) t - h(x), coefficient by coefficient, with h padded
    to four terms."""
    fld = P.residue_field
    g = [reduce_elem(c, P) for c in fam.g.coeffs]
    h = [reduce_elem(c, P) for c in fam.h.coeffs]
    h += [fld.zero] * (4 - len(h))
    coeffs = [g[i] * t + g[i] * t - h[i] for i in range(4)]
    coeffs[3] = coeffs[3] + t * t
    return Poly(coeffs)


@pytest.mark.parametrize("p, r", [(19, 1), (13, 2)])
def test_fiber_matches_padded_loop_at_every_t(fam_sqrt5, p, r):
    P = ideal_above(fam_sqrt5.K, p)
    assert P.f == r
    for t in P.residue_field.elements():
        assert fiber_polynomial(fam_sqrt5, P, t) == \
            _fiber_by_padded_loop(fam_sqrt5, P, t)


def _random_kelem(K, rng, max_num=50, max_den=6):
    while True:
        x = K.elem([Fraction(rng.randrange(-max_num, max_num + 1),
                             rng.randrange(1, max_den + 1))
                    for _ in range(K.n)])
        if x:
            return x


@pytest.mark.parametrize("field_coeffs,count,seed", [
    ([0, 1], 20, 7),
    ([-1, -1, 1], 8, 11),
])
def test_random_constructions_satisfy_identity(field_coeffs, count, seed):
    K = NumberField(field_coeffs)
    rng = random.Random(seed)
    built = 0
    while built < count:
        rho = tuple(_random_kelem(K, rng) for _ in range(6))
        alpha = _random_kelem(K, rng)
        try:
            fam = construct_family(FamilySpec(K=K, rho=rho, alpha=alpha))
        except RepeatedRoot:
            continue
        x3 = Poly([K.zero, K.zero, K.zero, K.one])
        lhs = fam.g * fam.g + x3 * fam.h
        assert (lhs - expand_from_roots(fam.roots, fam.A)).is_zero
        built += 1
