"""Families of rank-6 elliptic curves over number fields, certified
numerically through averaged traces of Frobenius and closed-form quadratic
character sums."""

from .family import CurveFamily, FamilySpec, construct_family, is_good_prime
from .finite_field import FqElem, FqField, make_field, quadratic_character
from .nagao import (
    average_A_p_analytic,
    average_A_p_direct,
    nagao_partial_sum,
    rank_estimate,
)
from .number_field import (
    KElem,
    NumberField,
    PrimeIdeal,
    enumerate_prime_ideals,
    landau_sum,
    reduce_elem,
)
from .poly import Poly, expand_from_roots, factor_mod_p

__all__ = [
    "CurveFamily", "FamilySpec", "construct_family", "is_good_prime",
    "FqElem", "FqField", "make_field", "quadratic_character",
    "average_A_p_analytic", "average_A_p_direct", "nagao_partial_sum",
    "rank_estimate", "KElem", "NumberField", "PrimeIdeal",
    "enumerate_prime_ideals", "landau_sum", "reduce_elem", "Poly",
    "expand_from_roots", "factor_mod_p",
]

__version__ = "0.1.0"
