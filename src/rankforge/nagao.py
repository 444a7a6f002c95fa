"""Traces of Frobenius for the family fibers, their prime averages, and the
partial sums whose limit is the generic rank.

The direct method, O(q^2), is minus the sum over x of the brute-force
t-sums of chi(x^3 t^2 + 2 g(x) t - h(x)), all q of them (the x = 0 one with
a = 0) from one batched FqTables.t_sums, which the random Legendre sweep
checks (the exhaustive sweep checks FqTables.row_sums, pinned to t_sums).
Its q triples come from the same tables: log x^3 is 3 log x, and g(x) and
-h(x) follow by Horner on the codes of the reduced coefficients.
The analytic method collapses each t-sum in closed form to minus q times
the sum of chi over the roots of D_T mod P, which at a good P are the six
prescribed r_i = rho_i^2 reduced: six Euler criteria, each one powmod
modulo P.factor (the builtin pow at residue degree 1). Both methods classify
P by their own reduce_family call, which reduces alpha and the six roots
alone; the direct one then reduces the g and h rows of fam.coords itself,
and the analytic one builds no residue field. The series asks is_good_prime
first, which reduces only where p divides bad_divisor, so most ideals are
reduced once.
At good primes both give the average -6 exactly, and
`nagao ap --method both` fails where their sums differ.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from . import _modpoly
from .errors import BadPrime, InvalidArgument
from .family import is_good_prime, reduce_family
from .number_field import enumerate_prime_ideals, reduce_coords

DIRECT_NORM_CAP = 1000  # O(q^2) work; analytic is the default beyond this


class ApResult(NamedTuple):
    prime: object  # PrimeIdeal
    sum_a_t: int
    method: str
    good: bool

    @property
    def A_p(self):
        """The average of a_t over the N(P) fibers, exactly."""
        return Fraction(self.sum_a_t, self.prime.norm)


def _reduced(fam, P):
    """The family reduced at P; a bad P raises BadPrime."""
    reduced = reduce_family(fam, P)
    if reduced.reason is not None:
        raise BadPrime(reduced.reason)
    return reduced


def average_A_p_direct(fam, P):
    """Average of a_t over all fibers: minus the sum over x of the t-sums
    of chi(x^3 t^2 + 2 g(x) t - h(x)), each by brute force, all q in one
    FqTables.t_sums, with x^3, g(x) and -h(x) read from the same tables.
    O(q^2), so refused above DIRECT_NORM_CAP before any reduction or
    tables."""
    check_direct_cap(P.norm)
    _reduced(fam, P)  # a bad P raises BadPrime before any tables
    rows, d = fam.coords
    g_h = reduce_coords((rows[7:], d), P)
    tables = P.residue_field.tables()
    codes, red, log, exp = tables.codes, tables.red, tables.log, tables.exp
    order, zero_log, log_two = len(codes) - 1, log[0], log[2]

    def horner(coeffs, lx):  # code of the polynomial at the x of log lx
        acc = 0
        for c in reversed(coeffs):
            acc = red[exp[log[acc] + lx] + c]
        return acc

    g = [tables.code(c) for c in g_h[:4]]  # g = x^3 + a x^2 + b x + c
    minus_h = [tables.code([-u % P.p for u in c]) for c in g_h[4:]]
    total = -sum(tables.t_sums(  # x = 0 keeps the log 0 sentinel for x^3
        (zero_log if lx == zero_log else 3 * lx % order,
         log[exp[log_two + log[horner(g, lx)]]], horner(minus_h, lx))
        for lx in map(log.__getitem__, codes)))
    return ApResult(prime=P, sum_a_t=total, method="direct", good=True)


def average_A_p_analytic(fam, P):
    """Average of a_t via the closed-form collapse of the t-sum: one powmod
    per root, O(log q) products.

    For fixed x != 0 the t-sum is quadratic with leading coefficient x^3
    and discriminant 4 D_T(x), so it contributes (q-1)chi(x) at roots of
    D_T and -chi(x) elsewhere; the x = 0 column vanishes at good primes.
    chi sums to 0 over F_q^*, so sum_a_t = -q * (sum of chi over the roots).
    At a good P those are the six reduced r_i, distinct and nonzero, and
    chi(r) is Euler's criterion r^((q-1)/2) mod P.factor: 1 or -1.
    """
    reduced = _reduced(fam, P)
    q, p, m = P.norm, P.p, P.factor.coeffs
    euler = [_modpoly.powmod(_modpoly.trim(list(r)), (q - 1) // 2, m, p)
             for r in reduced.roots]
    total = -q * sum(1 if u == [1] else -1 for u in euler)
    return ApResult(prime=P, sum_a_t=total, method="analytic", good=True)


def check_direct_cap(norm):
    """Refuse the O(q^2) direct method above DIRECT_NORM_CAP, before any
    work starts."""
    if norm > DIRECT_NORM_CAP:
        raise InvalidArgument(
            f"direct method capped at norm {DIRECT_NORM_CAP}; "
            "use the analytic method for large primes")


def average_A_p(fam, P, method="analytic"):
    if method == "direct":
        return average_A_p_direct(fam, P)
    if method == "analytic":
        return average_A_p_analytic(fam, P)
    raise InvalidArgument(f"unknown method {method!r}")


class RankSeriesRow(NamedTuple):
    X: int
    partial_sum: float
    ideals_used: int
    ideals_skipped_bad: int
    theta_good: float  # sum of log N(P) over the good primes used


def default_checkpoints(X):
    """1000, 2000, 4000, ... capped by and always including X."""
    grid = []
    c = 1000
    while c < X:
        grid.append(c)
        c *= 2
    grid.append(X)
    return grid


def nagao_partial_sum(fam, X, method="analytic", checkpoints=None):
    """Rows of (1/X') sum of -A_p log N(P) over good primes of norm <= X'.

    One pass over the stream of ideals in norm order classifies each once,
    skips and counts the bad ones and sums theta_good beside the partial
    sum; no ideal is held past its turn.
    """
    if method not in ("direct", "analytic"):
        raise InvalidArgument(f"unknown method {method!r}")
    if method == "direct":
        check_direct_cap(X)
    checkpoints = sorted(set(
        default_checkpoints(X) if checkpoints is None else checkpoints))
    if not checkpoints or not 1 <= checkpoints[0] <= checkpoints[-1] <= X:
        raise InvalidArgument(f"checkpoints must lie in [1, {X}], got {checkpoints}")
    rows = []
    total = theta = 0.0
    used = skipped = 0

    def emit(cutoff):
        rows.append(RankSeriesRow(cutoff, total / cutoff, used, skipped, theta))

    for P in enumerate_prime_ideals(fam.K, X):
        while len(rows) < len(checkpoints) and P.norm > checkpoints[len(rows)]:
            emit(checkpoints[len(rows)])
        if not is_good_prime(fam, P)[0]:
            skipped += 1
            continue
        res = average_A_p(fam, P, method=method)
        total += -res.sum_a_t / P.norm * math.log(P.norm)
        theta += math.log(P.norm)
        used += 1
    for cutoff in checkpoints[len(rows):]:
        emit(cutoff)
    return rows


class RankEstimate(NamedTuple):
    X: int
    partial_sum: float
    theta_good: float
    nearest_integer: int
    residual: float
    low_confidence: bool


def rank_estimate(fam, X, method="analytic"):
    """Nagao partial sum at X, normalized by the good-prime theta sum.

    nearest_integer = round(partial_sum * X / theta_good) corrects for the
    finite-X deficit of sum(log N)/X against the Landau asymptotic.
    """
    last = nagao_partial_sum(fam, X, method=method, checkpoints=[X])[-1]
    partial, theta = last.partial_sum, last.theta_good
    # theta_good is 0.0 exactly when no good prime is used: no verdict then
    normalized = partial * X / theta if theta else 0.0
    nearest = round(normalized)
    return RankEstimate(X=X, partial_sum=partial, theta_good=theta,
                        nearest_integer=nearest,
                        residual=normalized - nearest,
                        low_confidence=not theta)

