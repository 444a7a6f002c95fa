import math
import random
import types
from fractions import Fraction

import pytest

from rankforge import (
    FamilySpec,
    NumberField,
    Poly,
    average_A_p_analytic,
    average_A_p_direct,
    construct_family,
    enumerate_prime_ideals,
    is_good_prime,
    make_field,
    nagao_partial_sum,
    rank_estimate,
)
from rankforge.errors import BadPrime, InvalidArgument, RankforgeError
from rankforge.family import ReducedFamily
from rankforge.finite_field import FqElem, FqField
from rankforge.nagao import default_checkpoints
from rankforge.number_field import PrimeIdeal, prime_ideals_above, reduce_elem
from conftest import ideal_above
from oracles import curve_trace, fiber_polynomial, roots_in_fq, trace_a_t


def test_curve_trace_oracle_f5():
    # y^2 = x^3 + x over F_5 has 4 points including infinity
    F5 = make_field(5, [0, 1])
    cubic = Poly([F5.zero, F5.one, F5.zero, F5.one])
    assert curve_trace(cubic, F5) == 2
    points = 1 + sum(1 + F5.chi(cubic(x)) for x in F5.elements())
    assert points == 5 + 1 - 2


@pytest.mark.parametrize("fam_name, p, norm", [
    ("fam_rat", 37, 37), ("fam_sqrt5", 13, 169), ("fam_cbrt2", 11, 121)],
    ids=["Q-37", "sqrt5-169", "cbrt2-121"])
def test_trace_sums_to_direct_total(request, fam_name, p, norm):
    # the FqElem fiber traces are the reference for the brute-force t-sums
    # of FqTables.t_sums, which the direct method adds up; 5 is bad for the
    # cbrt 2 family, so its r = 2 case is the degree-2 ideal above 11
    fam = request.getfixturevalue(fam_name)
    P, = [P for P in enumerate_prime_ideals(fam.K, norm)
          if (P.p, P.norm) == (p, norm)]
    fld = P.residue_field
    total = sum(trace_a_t(fam, P, t) for t in fld.elements())
    res = average_A_p_direct(fam, P)
    assert total == res.sum_a_t == -6 * norm


def test_ap_examples(fam_rat):
    for p in (37, 41):
        P = ideal_above(fam_rat.K, p)
        direct = average_A_p_direct(fam_rat, P)
        analytic = average_A_p_analytic(fam_rat, P)
        assert direct.A_p == analytic.A_p == Fraction(-6)
        assert direct.sum_a_t == analytic.sum_a_t == -6 * p


def test_bad_prime_raises(fam_rat):
    P = ideal_above(fam_rat.K, 3)
    for kernel in (average_A_p_direct, average_A_p_analytic):
        with pytest.raises(BadPrime):
            kernel(fam_rat, P)


def test_method_agreement_small_norms(fam_rat, fam_sqrt5, fam_cbrt2):
    for fam, bound in ((fam_rat, 200), (fam_sqrt5, 200)):
        for P in enumerate_prime_ideals(fam.K, bound):
            if not is_good_prime(fam, P)[0]:
                continue
            d = average_A_p_direct(fam, P)
            a = average_A_p_analytic(fam, P)
            assert d.sum_a_t == a.sum_a_t
            assert d.A_p == a.A_p == -6
    # the six prescribed roots against an O(q) root scan of D_T mod P,
    # reduced here element by element: inert ideals of Q(sqrt 5), f = 1, 2,
    # 3 over Q(cbrt 2)
    degrees = set()
    for fam in (fam_rat, fam_sqrt5, fam_cbrt2):
        for P in enumerate_prime_ideals(fam.K, 400):
            if not is_good_prime(fam, P)[0]:
                continue
            fld = P.residue_field
            D_T = Poly(reduce_elem(c, P) for c in fam.D_T.coeffs)
            roots = roots_in_fq(D_T, fld)
            expected = -fld.q * sum(fld.chi(r) for r in roots)
            assert average_A_p_analytic(fam, P).sum_a_t == expected, P.label()
            degrees.add((fam.K.n, P.f))
    assert {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)} <= degrees


@pytest.mark.parametrize("p, modulus", [
    (3, [0, 1]), (7, [0, 1]), (13, [0, 1]), (3, [1, 0, 1]), (5, [2, 0, 1]),
    (3, [1, 2, 0, 1]), (3, [2, 1, 0, 0, 1]), (3, [1, 2, 0, 0, 0, 1])],
    ids=["3", "7", "13", "9", "25", "27", "81", "243"])
def test_root_character_sum_counts_squares_and_non_squares(
        p, modulus, monkeypatch):
    # the analytic kernel on random sets of six distinct nonzero roots, up
    # to residue degree 5, against chi over the roots that an O(q) scan
    # finds in c (x - r_1)...(x - r_6)
    from rankforge import nagao

    fld = make_field(p, modulus)
    P = PrimeIdeal(p=p, factor=Poly(modulus), f=len(modulus) - 1, e=1,
                   norm=fld.q)
    rng = random.Random(p ** len(modulus))
    nonzero = fld.elements()[1:]
    signs = set()
    for _ in range(60):
        roots = rng.sample(nonzero, 6) if len(nonzero) >= 6 else nonzero
        f = Poly([rng.choice(nonzero)])
        for r in roots:
            f = f * Poly([-r, fld.one])
        reduced = ReducedFamily(None, roots=tuple(r.coeffs for r in roots))
        monkeypatch.setattr(nagao, "_reduced", lambda fam, P: reduced)
        chi_sum = sum(fld.chi(r) for r in roots_in_fq(f, fld))
        assert average_A_p_analytic(None, P).sum_a_t == -fld.q * chi_sum, f
        signs |= {fld.chi(r) for r in roots}
    assert signs == {1, -1}


def test_sqrt5_inert_prime(fam_sqrt5):
    P = ideal_above(fam_sqrt5.K, 13, 169)
    assert P.norm == 169
    assert average_A_p_analytic(fam_sqrt5, P).A_p == -6
    assert average_A_p_direct(fam_sqrt5, P).A_p == -6


def test_residue_degree_three(fam_cbrt2):
    inert = ideal_above(fam_cbrt2.K, 7)
    assert (inert.f, inert.norm) == (3, 343)
    good = [P for P in enumerate_prime_ideals(fam_cbrt2.K, 200)
            if is_good_prime(fam_cbrt2, P)[0]]
    assert any(P.label() == "(11, 5,7,1)" for P in good)  # r = 2
    for P in [inert, *good]:
        d = average_A_p_direct(fam_cbrt2, P)
        a = average_A_p_analytic(fam_cbrt2, P)
        assert d.sum_a_t == a.sum_a_t == -6 * P.norm
        assert d.A_p == a.A_p == -6


def test_residue_degree_four():
    # x^4 - 2 with rho = (1, 2, theta, 1 + theta, theta^2, 2 + theta), alpha
    # = 1: 5 is inert (f = 4, norm 625), beside the eight f = 2 ideals of
    # norm <= 1000 and the f = 1 ideals of norm <= 31
    K = NumberField([-2, 0, 0, 0, 1])
    rho = [K.elem(c) for c in ([1], [2], [0, 1], [1, 1], [0, 0, 1], [2, 1])]
    fam = construct_family(FamilySpec(K=K, rho=tuple(rho), alpha=K.one))
    ideals = [P for P in enumerate_prime_ideals(K, 1000)
              if is_good_prime(fam, P)[0] and (P.f > 1 or P.norm <= 31)]
    assert [P.f for P in ideals].count(2) == 8
    assert [P.f for P in ideals].count(1) == 3
    inert, = [P for P in ideals if P.f == 4]
    assert (inert.p, inert.norm) == (5, 625)
    for P in ideals:
        d = average_A_p_direct(fam, P)
        a = average_A_p_analytic(fam, P)
        assert d.sum_a_t == a.sum_a_t == -6 * P.norm, P.label()


def test_six_euler_powmods_per_ideal(fam_cbrt2, monkeypatch):
    # every residue degree takes chi of the six reduced roots by Euler's
    # criterion: one powmod each, modulo P.factor, none of them of x
    from rankforge import _modpoly, nagao

    calls = []

    def powmod_counted(f, e, m, p):
        calls.append((f, e, tuple(m)))
        return _modpoly.powmod(f, e, m, p)

    monkeypatch.setattr(nagao, "_modpoly", types.SimpleNamespace(
        **{**vars(_modpoly), "powmod": powmod_counted}))
    degrees = set()
    for P in enumerate_prime_ideals(fam_cbrt2.K, 400):
        if not is_good_prime(fam_cbrt2, P)[0]:
            continue
        calls.clear()
        assert average_A_p_analytic(fam_cbrt2, P).A_p == -6
        assert len(calls) == 6, P.label()
        for f, e, m in calls:
            assert (e, m) == ((P.norm - 1) // 2, P.factor.coeffs), P.label()
            assert f != [0, 1] and len(f) <= P.f, P.label()
        degrees.add(P.f)
    assert degrees == {1, 2, 3}


def test_hasse_bound_nonsingular_fibers(fam_rat):
    P = ideal_above(fam_rat.K, 37)
    fld = P.residue_field
    bound = 2 * math.sqrt(fld.q)
    for t in fld.elements():
        f = fiber_polynomial(fam_rat, P, t)
        if f.degree != 3 or not _cubic_disc(f, fld):
            continue
        assert abs(trace_a_t(fam_rat, P, t)) <= bound


def _cubic_disc(f, fld):
    d, c, b, a = (list(f.coeffs) + [fld.zero] * 4)[:4]
    return (18 * a * b * c * d - 4 * (b ** 3) * d + (b * c) ** 2
            - 4 * a * (c ** 3) - 27 * (a * d) ** 2)


def test_partial_sum_is_theta_like(fam_rat):
    # every good A_p is -6, so the sum is 6 * sum(log p) / X over good p
    X = 43
    rows = nagao_partial_sum(fam_rat, X, checkpoints=[X])
    good = [P.norm for P in enumerate_prime_ideals(fam_rat.K, X)
            if is_good_prime(fam_rat, P)[0]]
    assert good == [13, 17, 19, 23, 29, 31, 37, 41, 43]
    expected = 6 * sum(math.log(p) for p in good) / X
    assert abs(rows[-1].partial_sum - expected) < 1e-12
    assert rows[-1].ideals_used == len(good)
    assert rows[-1].ideals_skipped_bad == 5  # 2, 3, 5, 7, 11


def test_partial_sum_below_least_good_prime(fam_rat):
    rows = nagao_partial_sum(fam_rat, 11, checkpoints=[11])
    assert rows[-1].partial_sum == 0.0
    assert rows[-1].ideals_used == 0
    est = rank_estimate(fam_rat, 11)
    assert est.nearest_integer == 0 and est.low_confidence


def test_checkpoint_grid():
    assert default_checkpoints(10000) == [1000, 2000, 4000, 8000, 10000]
    assert default_checkpoints(500) == [500]
    assert default_checkpoints(1000) == [1000]


def test_series_rows_monotone_checkpoints(fam_rat):
    rows = nagao_partial_sum(fam_rat, 2000)
    assert [r.X for r in rows] == [1000, 2000]
    assert rows[1].ideals_used >= rows[0].ideals_used


def test_direct_cap_enforced(fam_rat):
    with pytest.raises(RankforgeError):
        nagao_partial_sum(fam_rat, 5000, method="direct", checkpoints=[5000])


def test_direct_kernel_refuses_norms_above_its_cap(fam_rat, monkeypatch):
    # the library itself refuses, before any reduction or field tables
    from rankforge import nagao

    def fail(*args):
        raise AssertionError("work started above the direct cap")

    P = ideal_above(fam_rat.K, 1009)
    monkeypatch.setattr(FqField, "tables", fail)
    monkeypatch.setattr(nagao, "reduce_family", fail)
    with pytest.raises(InvalidArgument, match="capped at norm 1000"):
        average_A_p_direct(fam_rat, P)


@pytest.mark.parametrize("X, checkpoints, method", [
    (100, [50, 100000], "analytic"), (100, [0, 50], "analytic"),
    (100, [], "analytic"), (0, None, "analytic"), (-5, None, "analytic"),
    (11, None, "bogus")])
def test_series_arguments_rejected_before_any_work(fam_rat, X, checkpoints,
                                                   method):
    with pytest.raises(InvalidArgument):
        nagao_partial_sum(fam_rat, X, method=method, checkpoints=checkpoints)


def test_theta_good_matches_independent_sum(fam_sqrt5):
    X = 700
    rows = nagao_partial_sum(fam_sqrt5, X, checkpoints=[300, X])
    for row in rows:
        theta = 0.0
        for P in enumerate_prime_ideals(fam_sqrt5.K, row.X):
            if is_good_prime(fam_sqrt5, P)[0]:
                theta += math.log(P.norm)
        assert row.theta_good == theta
    assert rank_estimate(fam_sqrt5, X).theta_good == rows[-1].theta_good


def test_rank_estimate_enumerates_and_reduces_once(fam_sqrt5, monkeypatch):
    from rankforge import family, nagao, number_field

    calls = {"enumerate": 0, "reduce": []}
    ideals = []

    def enumerate_counted(K, X):
        calls["enumerate"] += 1
        ideals.extend(number_field.enumerate_prime_ideals(K, X))
        return list(ideals)

    def reduce_counted(coords, P):
        calls["reduce"].append(P)
        return number_field.reduce_coords(coords, P)

    monkeypatch.setattr(nagao, "enumerate_prime_ideals", enumerate_counted)
    monkeypatch.setattr(family, "reduce_coords", reduce_counted)
    assert rank_estimate(fam_sqrt5, 500).nearest_integer == 6
    assert calls["enumerate"] == 1
    # one batched reduction per ideal past the parity and denominator
    # checks: below 500 no good ideal lies above a p | bad_divisor, the
    # only ideals reduced twice (test_series_reduces_each_ideal_once)
    data = (fam_sqrt5.spec.alpha, *fam_sqrt5.spec.rho, fam_sqrt5.a,
            fam_sqrt5.b, fam_sqrt5.c, fam_sqrt5.A, fam_sqrt5.B, fam_sqrt5.C,
            fam_sqrt5.D)
    reducible = [P for P in ideals if P.p != 2 and all(
        coord.denominator % P.p for x in data for coord in x.coeffs)]
    assert len(reducible) < len(ideals)
    assert calls["reduce"] == reducible


def test_rank_path_reduces_alpha_and_the_roots_alone(fam_sqrt5, monkeypatch):
    # classification and chi read alpha and the six roots: the rows of g
    # and h are left to the direct method
    from rankforge import family, number_field

    rows = []

    def reduce_counted(coords, P):
        rows.append(len(coords[0]))
        return number_field.reduce_coords(coords, P)

    monkeypatch.setattr(family, "reduce_coords", reduce_counted)
    assert rank_estimate(fam_sqrt5, 500).nearest_integer == 6
    assert len(fam_sqrt5.coords[0]) == 14
    assert rows and set(rows) == {7}


def test_series_reduces_each_ideal_once(fam_sqrt5, monkeypatch):
    # the kernel reduces each good ideal; is_good_prime reduces only where
    # p divides bad_divisor, so only good ideals there are reduced twice
    from rankforge import family, nagao

    reduced = []
    real = family.reduce_family

    def reduce_counted(fam, P):
        reduced.append(P)
        return real(fam, P)

    monkeypatch.setattr(family, "reduce_family", reduce_counted)
    monkeypatch.setattr(nagao, "reduce_family", reduce_counted)
    row = nagao_partial_sum(fam_sqrt5, 2000, checkpoints=[2000])[-1]
    above_bad = [P for P in enumerate_prime_ideals(fam_sqrt5.K, 2000)
                 if fam_sqrt5.bad_divisor % P.p == 0]
    assert 0 < row.ideals_skipped_bad <= len(above_bad) < row.ideals_used
    assert len(reduced) == row.ideals_used + len(above_bad)


def test_rank_path_builds_no_tables(fam_sqrt5, monkeypatch):
    def refuse(self):
        raise AssertionError("the analytic rank path must not build tables")

    monkeypatch.setattr(FqField, "tables", refuse)
    assert rank_estimate(fam_sqrt5, 2000).nearest_integer == 6


def test_rank_path_builds_no_fractions(fam_sqrt5, monkeypatch):
    # -sum_a_t / N(P) is the correctly rounded A_p, as float(A_p) was
    from rankforge import nagao

    expected = 0.0
    for P in enumerate_prime_ideals(fam_sqrt5.K, 2000):
        if is_good_prime(fam_sqrt5, P)[0]:
            A_p = average_A_p_analytic(fam_sqrt5, P).A_p
            assert A_p == -6
            expected += -float(A_p) * math.log(P.norm)

    def refuse(*args):
        raise AssertionError("the rank path must not build a Fraction")

    monkeypatch.setattr(nagao, "Fraction", refuse)
    est = rank_estimate(fam_sqrt5, 2000)
    assert est.partial_sum == expected / 2000
    assert est.nearest_integer == 6


def test_rank_path_over_q_builds_no_fq_elements(fam_rat, fam_sqrt5, fam_cbrt2,
                                                monkeypatch):
    # every residue degree reduces and counts on plain ints from start to
    # end, over Q and over the quadratic and cubic fields alike
    built = []
    real_elem, real_field = FqElem.__init__, FqField.__init__

    def elem_counted(self, field, coeffs):
        built.append(coeffs)
        real_elem(self, field, coeffs)

    def field_counted(self, *args, **kwargs):
        built.append(args)
        real_field(self, *args, **kwargs)

    monkeypatch.setattr(FqElem, "__init__", elem_counted)
    monkeypatch.setattr(FqField, "__init__", field_counted)
    for fam in (fam_rat, fam_sqrt5, fam_cbrt2):
        assert rank_estimate(fam, 2000).nearest_integer == 6
    assert len(built) == 0
    FqField(5, (0, 1)).one  # the counters do count
    assert len(built) == 2


def test_normalization_identity(fam_rat):
    # sum over t of a_t equals -q * (root character sum) at good primes
    P = ideal_above(fam_rat.K, 53)
    from rankforge import reduce_elem

    fld = P.residue_field
    root_sum = sum(fld.chi(reduce_elem(r, P)) for r in fam_rat.roots)
    res = average_A_p_analytic(fam_rat, P)
    assert res.sum_a_t == -P.norm * root_sum


def test_rank_estimate_small_window(fam_rat):
    est = rank_estimate(fam_rat, 600)
    assert est.nearest_integer == 6
    assert not est.low_confidence


@pytest.fixture(scope="module")
def fam_x4_minus_2():
    """rho = (1, 2, theta, 1 + theta, theta^2, 2 + theta), alpha = 1 over
    Q(2^(1/4))."""
    K = NumberField([-2, 0, 0, 0, 1])
    rho = [K.elem(c) for c in ([1], [2], [0, 1], [1, 1], [0, 0, 1], [2, 1])]
    return construct_family(FamilySpec(K=K, rho=tuple(rho), alpha=K.one))


def test_direct_series_matches_analytic(fam_x4_minus_2):
    # the direct method through the series, at every good ideal up to its
    # cap: residue degrees 1, 2 and 4, the inert 5 of norm 625 among them
    fam = fam_x4_minus_2
    norms = {(P.norm, P.f) for P in enumerate_prime_ideals(fam.K, 1000)
             if is_good_prime(fam, P)[0]}
    assert {f for _, f in norms} == {1, 2, 4} and (625, 4) in norms
    direct = nagao_partial_sum(fam, 1000, method="direct")
    assert direct == nagao_partial_sum(fam, 1000)
    assert direct[-1].ideals_used > 100


def test_direct_method_reads_only_the_tables(fam_x4_minus_2, monkeypatch):
    # x^3, g(x) and -h(x) come from the integer tables: no Poly is built or
    # evaluated and no FqElem list is walked, at residue degrees 1, 2 and 4
    ideals = [P for p in (23, 5)
              for P in prime_ideals_above(fam_x4_minus_2.K, p)
              if is_good_prime(fam_x4_minus_2, P)[0]]
    assert sorted(P.f for P in ideals) == [1, 1, 2, 4]
    expected = [average_A_p_analytic(fam_x4_minus_2, P) for P in ideals]

    def refuse(*args):
        raise AssertionError("the direct method left the integer tables")

    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(Poly, "__call__", refuse)
    monkeypatch.setattr(FqField, "elements", refuse)
    for P, analytic in zip(ideals, expected):
        assert average_A_p_direct(fam_x4_minus_2, P).sum_a_t == \
            analytic.sum_a_t == -6 * P.norm, P.label()
    assert expected[-1].sum_a_t == -3750

