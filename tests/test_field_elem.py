"""The element protocol KElem and FqElem share (poly.FieldElem): one element
of K = Q(sqrt 5) and one of F_9, each against an element of another field
of its kind (Q(i), F_25)."""

from fractions import Fraction

import pytest

from rankforge import NumberField, make_field
from rankforge.errors import DivisionByZero, FieldMismatch

FIELDS = {
    "K": (NumberField([-1, -1, 1]), NumberField([1, 0, 1])),
    "Fq": (make_field(3, [1, 0, 1]), make_field(5, [2, 0, 1])),
}


@pytest.fixture(params=sorted(FIELDS))
def x(request):
    """1 + theta: neither a scalar nor a root of unity of small order."""
    return FIELDS[request.param][0].elem([1, 1])


@pytest.fixture
def foreign(x):
    """1 + theta in the other field of the same kind."""
    return dict(FIELDS.values())[x.field].elem([1, 1])


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_mixed_fields_raise_field_mismatch(x, foreign, op):
    for a, b in ((x, foreign), (foreign, x)):
        with pytest.raises(FieldMismatch):
            eval(f"a {op} b")
    assert x != foreign


def test_k_and_fq_elements_do_not_mix():
    k, fq = (FIELDS[name][0].one for name in ("K", "Fq"))
    with pytest.raises(FieldMismatch):
        k + fq
    with pytest.raises(FieldMismatch):
        fq * k


def test_inverse_of_zero_raises_division_by_zero(x):
    zero = x.field.zero
    assert issubclass(DivisionByZero, ZeroDivisionError)
    for divide in (zero.inverse, lambda: x / 0, lambda: 1 / zero,
                   lambda: zero ** -1):
        with pytest.raises(DivisionByZero):
            divide()


def test_scalars_coerce_on_both_sides(x):
    fld = x.field
    assert 2 + x == x + 2 == fld.elem([3, 1])
    assert 1 - x == -(x - 1) == fld.elem([0, -1])
    assert (1 / x) * x == x / x == 1
    assert 3 * x == x * 3 == x + x + x
    assert fld.elem(3) == 3 and x != 3 and x == fld.elem([1, 1])


def test_negative_powers_go_through_the_inverse(x):
    assert x ** -2 == 1 / (x * x) == x.inverse() ** 2
    assert x ** 0 == 1 and x ** 1 == x


def test_equal_elements_hash_equal(x):
    assert hash(x * x) == hash(x ** 2) == hash(x * x * x / x)
    assert len({x * x, x ** 2, (1 / x) ** -2}) == 1


@pytest.mark.parametrize("other", ["a", 1.5, None])
def test_foreign_operands_raise_type_error(x, other):
    for op in ("+", "-", "*", "/"):
        with pytest.raises(TypeError):
            eval(f"x {op} other")
        with pytest.raises(TypeError):
            eval(f"other {op} x")


def test_constants_hash_as_the_scalars_they_equal(x):
    fld = x.field
    two = fld.elem(2)
    assert len({two, 2}) == 1 and 2 in {two: 1} and two in {2}
    assert hash(fld.one) == hash(1) and hash(fld.zero) == hash(0)
    assert x not in {0, 1, 2}
    if isinstance(fld, NumberField):  # a constant Fraction too
        half = fld.elem(Fraction(1, 2))
        assert len({half, Fraction(1, 2)}) == 1 and 2 not in {half}
    else:  # p + 2 equals 2 in F_q, but cannot hash as it
        assert two == fld.p + 2 and fld.p + 2 not in {two}
