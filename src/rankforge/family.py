"""The rank-6 curve family y^2 = x^3 T^2 + 2 g(x) T - h(x) over K.

Roots of the degree-6 polynomial D_T(x) = g(x)^2 + x^3 h(x) are prescribed
as r_i = rho_i^2 with the leading coefficient A = alpha^2, so squareness
survives reduction at every good prime simultaneously. The coefficients of
g and h are solved degree by degree from the elementary symmetric functions
of the r_i and the identity is re-verified by exact expansion.
"""

from typing import NamedTuple

from .errors import (
    InternalIdentityFailure,
    InvalidArgument,
    RepeatedRoot,
    ZeroAlpha,
    ZeroRoot,
)
from .number_field import KElem, NumberField
from .number_field import integer_coords, reduce_coords
from .poly import Poly, expand_from_roots


class FamilySpec(NamedTuple):
    K: NumberField
    rho: tuple  # six nonzero KElem whose squares are pairwise distinct
    alpha: KElem


def elementary_symmetric(values, one):
    """s_0..s_k of the given values (s_0 = 1)."""
    s = [one]
    for v in values:
        s.append(s[-1] * 0)
        for k in range(len(s) - 1, 0, -1):
            s[k] = s[k] + s[k - 1] * v
    return s


class CurveFamily(NamedTuple):
    spec: FamilySpec
    a: KElem
    b: KElem
    c: KElem
    A: KElem
    B: KElem
    C: KElem
    D: KElem
    g: Poly
    h: Poly
    D_T: Poly
    roots: tuple  # r_i = rho_i^2
    bad_divisor: int
    # integer_coords of the rows alpha, r_1..r_6, g.coeffs (c, b, a, 1) and
    # h.coeffs (D, C, B, A - 1, as far as h reaches) over one common
    # denominator coords[1]. The family data reduces at P exactly when p
    # does not divide coords[1]: Z[theta] is p-maximal at every p that is
    # reduced, so p divides a denominator of rho_i exactly when it divides
    # one of r_i = rho_i^2, and a..D are rows (A through A - 1)
    coords: tuple

    @property
    def K(self):
        return self.spec.K


def construct_family(spec):
    """Solve for (a, b, c, A, B, C, D) so that D_T = A * prod(x - rho_i^2)."""
    K = spec.K
    alpha = spec.alpha
    if len(spec.rho) != 6:
        raise InvalidArgument(f"a family needs six rho, got {len(spec.rho)}")
    if not alpha:
        raise ZeroAlpha("alpha must be nonzero")
    for i, rho in enumerate(spec.rho):
        if not rho:
            raise ZeroRoot(f"rho_{i + 1} is zero")
    roots = tuple(rho * rho for rho in spec.rho)
    for i in range(6):
        for j in range(i + 1, 6):
            if roots[i] == roots[j]:
                raise RepeatedRoot(
                    f"rho_{i + 1}^2 = rho_{j + 1}^2")

    A = alpha * alpha
    s = elementary_symmetric(roots, K.one)
    prod_rho = K.one
    for rho in spec.rho:
        prod_rho = prod_rho * rho

    c = alpha * prod_rho
    two_c = c + c
    b = -(A * s[5]) / two_c
    a = (A * s[4] - b * b) / two_c
    B = -(A * s[1]) - a - a
    C = A * s[2] - b - b - a * a
    D = -(A * s[3]) - two_c - (a * b + a * b)

    g = Poly([c, b, a, K.one])
    h = Poly([D, C, B, A - K.one])
    x3 = Poly([K.zero, K.zero, K.zero, K.one])
    D_T = g * g + x3 * h

    target = expand_from_roots(roots, A)
    if not (D_T - target).is_zero:
        raise InternalIdentityFailure("expansion does not match A*prod(x - r_i)")

    return CurveFamily(
        spec=spec, a=a, b=b, c=c, A=A, B=B, C=C, D=D,
        g=g, h=h, D_T=D_T, roots=roots,
        bad_divisor=_bad_divisor(spec, roots, (a, b, c, A, B, C, D)),
        coords=integer_coords(alpha, *roots, *g.coeffs, *h.coeffs))


def _bad_divisor(spec, roots, coefficients):
    """A nonzero rational integer divisible by every bad residue
    characteristic: 2, numerator-norms of alpha, rho_i and all pairwise
    root differences, and every coefficient denominator."""
    d = 2
    for elem in (spec.alpha, *spec.rho):
        d *= abs(elem.norm().numerator)
    for i in range(6):
        for j in range(i + 1, 6):
            d *= abs((roots[i] - roots[j]).norm().numerator)
    for elem in (*coefficients, spec.alpha, *spec.rho):
        for coord in elem.coeffs:
            d *= coord.denominator
    return d


class ReducedFamily(NamedTuple):
    """The family reduced at one prime ideal as far as its classification
    reads it. reason is None at a good prime; roots is None where the data
    does not reduce at all, and otherwise holds the six r_i mod P, each the
    tuple of its f coordinates over F_p (FqElem.coeffs). At a good prime
    they are the distinct nonzero roots of D_T mod P, which reduces to
    A (x - r_1)...(x - r_6). Each caller reduces for itself; nothing keeps
    a ReducedFamily."""
    reason: object  # str or None
    roots: tuple = None


def reduce_family(fam, P):
    """Reduce alpha and the six roots, the first seven rows of fam.coords,
    at P in one batch, past the parity and denominator checks. The g and h
    rows are left to the direct method, their only reader. is_good_prime
    needs this only where p divides bad_divisor; the A_p kernels reduce at
    every ideal."""
    if P.norm % 2 == 0:
        return ReducedFamily(f"even residue characteristic {P.p}")
    rows, d = fam.coords
    if d % P.p == 0:
        return ReducedFamily(f"denominator not invertible mod {P.p}")
    alpha_bar, *r_bars = reduce_coords((rows[:7], d), P)
    # reduction is a ring map into a field: r_i = rho_i^2 vanishes mod P
    # exactly when rho_i does
    if not any(alpha_bar):
        reason = f"alpha vanishes mod {P.p}"
    elif not all(map(any, r_bars)):
        reason = f"a root vanishes mod {P.p}"
    elif len(set(r_bars)) < 6:
        reason = f"repeated roots mod {P.p}"
    else:
        reason = None
    return ReducedFamily(reason, roots=tuple(r_bars))


def is_good_prime(fam, P):
    """(good, reason). Good means: odd norm, all family data reduces, and
    the six reduced roots stay distinct and nonzero (with alpha a unit).

    P is good without any reduction where p does not divide bad_divisor:
    each bad reason forces p | bad_divisor. p = 2 and the denominators are
    its factors, and alpha, rho_i or r_i - r_j in P puts n in P for
    x = n/d, n in Z[theta], p prime to d, so p divides N(n) and the
    numerator of N(x), another factor. The A_p kernels reduce again and
    raise BadPrime, so a wrong answer here fails loudly.
    """
    if fam.bad_divisor % P.p:
        return True, None
    reason = reduce_family(fam, P).reason
    return reason is None, reason
