"""Property tests of Cyc.inverse, Cyc.reduce_conductor, the JSON form and
the residue map against oracles that do not use the code under test:
sympy's arithmetic modulo Phi_n, the Galois description of the subfields of
Q(zeta_n), and Cyc arithmetic for the residue map."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings
from hypothesis import strategies as st

from mdtk.cyclo import Cyc, ResidueMap, divisors, euler_phi, rational, units_mod

CONDUCTORS = (1, 2, 6, 8, 9, 10, 12, 27, 30, 45, 72, 105, 360)
X = sympy.Symbol("x")

# derandomized, so that every run draws the same examples
examples = settings(derandomize=True, max_examples=8, deadline=None)


@st.composite
def elements(draw, n, dens=st.integers(1, 12)):
    """A value at conductor n with coefficients in -9..9 over a common
    denominator drawn from dens; about half the coefficients are 0."""
    den = draw(dens)
    coeff = st.one_of(st.just(0), st.integers(-9, 9))
    nums = draw(st.lists(coeff, min_size=euler_phi(n), max_size=euler_phi(n)))
    return Cyc.from_json({"n": n, "c": [[v, den] for v in nums]})


def poly(nums) -> "sympy.Poly":
    return sympy.Poly(list(nums)[::-1], X, domain="QQ")


@pytest.mark.parametrize("n", CONDUCTORS)
@examples
@given(data=st.data())
def test_inverse_matches_sympy(n, data):
    x = data.draw(elements(n))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            x.inverse()
        return
    phi_n = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")
    f = poly(x.num)
    inv = poly(x.inverse().lift(n).coeffs)
    # x = f / den, so 1 / x is den times the inverse of f mod Phi_n, the one
    # polynomial h of degree < phi(n) with f h = den mod Phi_n
    assert (f * inv).rem(phi_n) == sympy.Poly(x.den, X, domain="QQ")
    if euler_phi(n) <= 48:
        # beyond, sympy's Euclid over QQ takes seconds per element
        assert sympy.invert(f, phi_n) * x.den == inv
    assert x * x.inverse() == rational(1)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_of_zero_raises(n):
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        Cyc.from_json({"n": n, "c": [[0, 1]] * euler_phi(n)}).inverse()


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(examples, max_examples=25)
@given(data=st.data())
def test_reduce_conductor_is_the_galois_conductor(n, data):
    # a value of Q(zeta_d) for some d | n, sometimes plus a Galois image
    d = data.draw(st.sampled_from(divisors(n)))
    x = data.draw(elements(d)).lift(n)
    if data.draw(st.booleans()):
        x = x + x.galois(data.draw(st.sampled_from(units_mod(n))))
    # Q(zeta_d) is the field fixed by the units k = 1 mod d
    least = next(
        d for d in divisors(n)
        if all(x.galois(k) == x for k in units_mod(n) if k % d == 1 % d)
    )
    low = x.reduce_conductor()
    assert low.conductor == least
    up = low.lift(n)
    assert (up.den, up.num) == (x.den, x.num)


@pytest.mark.parametrize("n", CONDUCTORS)
@examples
@given(data=st.data())
def test_json_round_trip(n, data):
    x = data.draw(elements(n))
    again = Cyc.from_json(x.to_json())
    assert (again.n, again.den, again.num) == (x.n, x.den, x.num)
    assert again.coeffs == tuple(Fraction(v, x.den) for v in x.num)


def norm1(x: Cyc) -> int:
    return sum(map(abs, x.num))


@pytest.mark.parametrize("n", CONDUCTORS)
@settings(examples, max_examples=15)
@given(data=st.data())
def test_residue_map_respects_the_ring_operations(n, data):
    # integral x and y at conductors dividing n, and a ring chosen by the
    # bound rule for x y, x + y and each of them alone
    x = data.draw(elements(data.draw(st.sampled_from(divisors(n))), st.just(1)))
    y = data.draw(elements(data.draw(st.sampled_from(divisors(n))), st.just(1)))
    ring = ResidueMap(n, norm1(x) * norm1(y) + norm1(x) + norm1(y))
    m = ring.modulus
    assert ring(x + y) == (ring(x) + ring(y)) % m
    assert ring(x - y) == (ring(x) - ring(y)) % m
    assert ring(x * y) == ring(x) * ring(y) % m
    assert ring(x.conj()) == ring(x, k=-1)
    k = data.draw(st.sampled_from(units_mod(n)))
    assert ring(x.galois(k)) == ring(x, k=k)
    assert ring(x.lift(n)) == ring(x)
    assert ring(x * 7, 1) == ring(x / 3, 21)
    # exact: a value bounded by the ring's bound maps to 0 only if it is 0
    for v in (x, y, x * y, x + y):
        assert (ring(v) == 0) == v.is_zero()
