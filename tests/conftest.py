import pytest

from rankforge import FamilySpec, NumberField, construct_family
from rankforge.finite_field import FqTables


@pytest.fixture
def broken_chi(monkeypatch):
    """FqTables.chi with its first +1 read as -1: the closed form of the
    Legendre sweep and the conic bound then fail at every q."""
    real = FqTables.chi

    def flipped(self):
        chi = real(self)
        chi[chi.index(1)] = -1
        return chi

    monkeypatch.setattr(FqTables, "chi", flipped)


@pytest.fixture(scope="session")
def K_rat():
    """K = Q as the degree-1 number field."""
    return NumberField([0, 1])


@pytest.fixture(scope="session")
def K_gauss():
    return NumberField([1, 0, 1])


@pytest.fixture(scope="session")
def K_sqrt5():
    return NumberField([-1, -1, 1])


@pytest.fixture(scope="session")
def fam_rat(K_rat):
    """The reference family: rho = (1..6), alpha = 1 over Q."""
    spec = FamilySpec(K=K_rat, rho=tuple(K_rat.elem(i) for i in range(1, 7)),
                      alpha=K_rat.one)
    return construct_family(spec)


@pytest.fixture(scope="session")
def fam_sqrt5(K_sqrt5):
    spec = FamilySpec(K=K_sqrt5,
                      rho=tuple(K_sqrt5.elem(i) for i in range(1, 7)),
                      alpha=K_sqrt5.one)
    return construct_family(spec)


@pytest.fixture(scope="session")
def fam_cbrt2():
    """rho = (1, 2, theta, 1 + theta, theta^2, 2 + theta), alpha = 1 over
    Q(2^(1/3)): 7 is inert there, so it reaches residue degree 3."""
    K = NumberField([-2, 0, 0, 1])
    rho = [K.elem(c) for c in ([1], [2], [0, 1], [1, 1], [0, 0, 1], [2, 1])]
    return construct_family(FamilySpec(K=K, rho=tuple(rho), alpha=K.one))


# n = 1 .. 5; with empty exclusions every p | disc(m) takes the ramified
# paths: 2 (Q(i), x^3 - 2, x^4 - 2 = x^4 mod 2), 3 (x^3 - 2), 5 (Q(sqrt 5)),
# 23 (x^3 - x + 1) and 19 and 151 (x^5 - x - 1)
BOUNDED_FIELDS = [[0, 1], [1, 0, 1], [-1, -1, 1], [-2, 0, 0, 1], [1, -1, 0, 1],
                  [-2, 0, 0, 0, 1], [-1, -1, 0, 0, 0, 1]]
# p^2 - 1 and p^2 at p = 2, 3, 5, 11, 19 and 23; p^3 at p = 2, 3, 5 and 11
BOUNDARY_NORMS = [1, 2, 3, 4, 8, 9, 24, 25, 27, 120, 121, 125, 360, 361, 528,
                  529, 1331]


def bounded_fields():
    """Each of BOUNDED_FIELDS with its default exclusions and with none."""
    for m in BOUNDED_FIELDS:
        yield NumberField(m)
        yield NumberField(m, excluded_primes=[])


def ideal_above(K, p, X=None):
    """First prime ideal above p with norm <= X (or any norm)."""
    from rankforge import enumerate_prime_ideals

    bound = X if X is not None else p ** K.n
    for P in enumerate_prime_ideals(K, bound):
        if P.p == p:
            return P
    raise LookupError(f"no ideal above {p}")
