import random

import pytest

from rankforge import legendre, make_field
from rankforge.errors import FieldMismatch, InvalidArgument
from rankforge.errors import ZeroLeadingCoefficient
from rankforge.legendre import (
    odd_prime_powers, standard_field, verify_quad_sums)
from oracles import (
    quad_sum_brute, quad_sum_closed, randrange_triples, sweep_counts)


def triple(fld, a, b, c):
    return fld.elem(a), fld.elem(b), fld.elem(c)


def conic_count(inp):
    """#{(s, t) : s^2 = a t^2 + b t + c}, every pair enumerated."""
    a, b, c = inp
    elems = a.field.elements()
    return sum(s * s == a * t * t + b * t + c for s in elems for t in elems)


def test_closed_perfect_square_case():
    for p, r in [(7, 1), (3, 2), (5, 2)]:
        fld = standard_field(p, r)
        assert quad_sum_closed(*triple(fld, 1, 0, 0)) == fld.q - 1


def test_closed_generic_case_f5():
    F5 = make_field(5, [0, 1])
    assert quad_sum_closed(*triple(F5, 1, 0, -1)) == -1


def test_closed_nonsquare_leading_f7():
    F7 = make_field(7, [0, 1])
    assert quad_sum_closed(*triple(F7, 3, 0, 0)) == -6


def test_closed_rejects_zero_leading():
    F7 = make_field(7, [0, 1])
    with pytest.raises(ZeroLeadingCoefficient):
        quad_sum_closed(*triple(F7, 0, 1, 0))


def test_brute_examples():
    F9 = make_field(3, [1, 0, 1])
    assert quad_sum_brute(*triple(F9, 1, 0, 0)) == 8
    F7 = make_field(7, [0, 1])
    assert quad_sum_brute(*triple(F7, 0, 1, 0)) == 0
    F5 = make_field(5, [0, 1])
    assert quad_sum_brute(*triple(F5, 1, 0, -1)) == -1


def test_conic_examples():
    F5 = make_field(5, [0, 1])
    assert conic_count(triple(F5, 1, 0, -1)) == 4
    F7 = make_field(7, [0, 1])
    assert conic_count(triple(F7, 1, 0, 0)) == 13  # s^2 = t^2: 2q - 1 points
    F3 = make_field(3, [0, 1])
    assert conic_count(triple(F3, 0, 0, 1)) == 6


def test_conic_equals_q_plus_brute():
    fld = standard_field(3, 2)
    rng = random.Random(9)
    for _ in range(50):
        inp = triple(fld, rng.randrange(9), rng.randrange(9), rng.randrange(9))
        assert conic_count(inp) == fld.q + quad_sum_brute(*inp)


def test_degenerate_linear_sum_vanishes():
    for p, r in [(5, 1), (7, 1), (3, 2)]:
        fld = standard_field(p, r)
        rng = random.Random(p + r)
        for _ in range(20):
            b = fld.decode(rng.randrange(1, fld.q))
            c = fld.decode(rng.randrange(fld.q))
            assert quad_sum_brute(fld.zero, b, c) == 0


def test_mismatched_fields_rejected():
    F5 = make_field(5, [0, 1])
    F7 = make_field(7, [0, 1])
    with pytest.raises(FieldMismatch):
        quad_sum_brute(F5.one, F7.one, F5.one)


def test_closed_matches_brute_via_public_api():
    for p, r in [(13, 1), (3, 2), (5, 2)]:
        fld = standard_field(p, r)
        rng = random.Random(fld.q)
        for _ in range(60):
            inp = (fld.decode(rng.randrange(1, fld.q)),
                   fld.decode(rng.randrange(fld.q)),
                   fld.decode(rng.randrange(fld.q)))
            assert quad_sum_closed(*inp) == quad_sum_brute(*inp)


def test_sweep_small_exhaustive():
    results = verify_quad_sums(max_q=27, exhaustive_max_q=27)
    assert [r.q for r in results] == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]
    for r in results:
        assert r.mode == "exhaustive"
        assert r.checked == (r.q - 1) * r.q * r.q
        assert r.ok


@pytest.mark.parametrize("chi", ["true", "broken"])
@pytest.mark.parametrize("q,p,r", odd_prime_powers(27))
def test_row_check_counts_as_the_per_triple_rule(q, p, r, chi, request):
    if chi == "broken":
        request.getfixturevalue("broken_chi")
    fld = standard_field(p, r)
    tables = fld.tables()
    counts = legendre._row_check(tables)
    assert counts == sweep_counts(fld, tables)
    if chi == "true":
        assert counts == ((q - 1) * q * q, 0, 0)
    else:
        assert counts[1] > 0 and counts[2] > 0


def test_benchmark_sweep_checks_every_row():
    # the legendre_sweep workload: exhaustive up to 31, random above
    results = verify_quad_sums(max_q=169, exhaustive_max_q=31)
    assert len(results) == 46
    for r in results:
        assert r.checked == ((r.q - 1) * r.q * r.q if r.q <= 31 else 1000)
        assert r.mode == ("exhaustive" if r.q <= 31 else "random")
        assert r.ok
    assert sum(r.checked for r in results) == 146390


@pytest.mark.parametrize("seed", [0, 7])
def test_random_draws_are_those_of_randrange(seed):
    # the sweep draws by randrange's own rejection loop on getrandbits, so
    # every seed keeps its triples; q = 3 and 5 draw a from 2 and 4 values,
    # where q - 1 is a power of two
    for q, p, r in odd_prime_powers(169):
        tables = standard_field(p, r).tables()
        rng = random.Random(seed * 1000003 + q)
        drawn = [t for t, _ in legendre._random_sums(tables, rng)]
        want = randrange_triples(
            tables, random.Random(seed * 1000003 + q), legendre.RANDOM_TRIPLES)
        assert drawn == want, q


def test_sweep_random_mode_counts():
    results = verify_quad_sums(max_q=61, exhaustive_max_q=9, seed=1)
    random_rows = [r for r in results if r.mode == "random"]
    assert random_rows and all(r.checked == 1000 for r in random_rows)
    assert all(r.ok for r in results)


def test_sweep_reports_a_broken_character(broken_chi):
    results = verify_quad_sums(max_q=9, exhaustive_max_q=9)
    assert [r.q for r in results] == [3, 5, 7, 9]
    for r in results:
        assert r.mismatches > 0 and r.conic_violations > 0 and not r.ok


def test_random_mode_reports_a_broken_character(broken_chi):
    # random rows take their sums from FqTables.t_sums, exhaustive rows
    # from FqTables.row_sums: both read the broken chi
    results = verify_quad_sums(max_q=61, exhaustive_max_q=9, seed=1)
    random_rows = [r for r in results if r.mode == "random"]
    assert [r.q for r in random_rows] == [
        11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53, 59, 61]
    for r in results:
        assert r.mismatches > 0 and r.conic_violations > 0 and not r.ok


@pytest.mark.parametrize("bounds, message", [
    ({"max_q": 4097}, "capped at q = 4096, got max_q 4097"),
    ({"exhaustive_max_q": 128}, "capped at q = 127, got exhaustive_max_q 128"),
], ids=["max-q", "exhaustive-max-q"])
def test_sweep_bounds_refused_before_any_field(bounds, message, monkeypatch):
    def fail(*args):
        raise AssertionError("a field was built above a sweep bound")

    monkeypatch.setattr(legendre, "standard_field", fail)
    monkeypatch.setattr(legendre, "odd_prime_powers", fail)
    with pytest.raises(InvalidArgument, match=message):
        verify_quad_sums(**bounds)


def test_sweep_bounds_are_inclusive(monkeypatch):
    asked = []
    monkeypatch.setattr(legendre, "odd_prime_powers",
                        lambda limit: asked.append(limit) or [])
    assert verify_quad_sums(max_q=4096, exhaustive_max_q=127) == []
    assert asked == [4096]
