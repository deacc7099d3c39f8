"""Exact cyclotomic arithmetic: field operations, Galois action, traces,
embeddings, and the root-of-unity helper type."""

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import mdtk
from mdtk.catalog_cli import from_dict, to_dict
from mdtk.construct import MetricGroup, pointed
from mdtk.cyclo import (
    Cyc,
    ResidueMap,
    RootOfUnity,
    _as_root_of_unity,
    _is_prime,
    _power_basis,
    cyclotomic_poly,
    divisors,
    euler_phi,
    rational,
    real_subfield_degree,
    root_of_unity,
    unit_group_generators,
    units_mod,
)
from mdtk.modular import DataFormatError


def zeta(n, k=1):
    return root_of_unity(n, k)


def sqrt2():
    return zeta(8) + zeta(8, 7)


def golden():
    # (1 + sqrt 5)/2 as 1 + z5 + z5^4
    return rational(1) + zeta(5) + zeta(5, 4)


# ---------------------------------------------------------------- basics


def test_rational_arithmetic():
    a = rational(Fraction(2, 3))
    b = rational(Fraction(1, 6))
    assert a + b == rational(Fraction(5, 6))
    assert a * b == rational(Fraction(1, 9))
    assert a - a == rational(0)
    assert (a / b) == rational(4)
    assert a.is_rational()
    assert a.as_fraction() == Fraction(2, 3)


def test_as_fraction_rejects_irrational():
    with pytest.raises(ValueError):
        sqrt2().as_fraction()


def test_root_of_unity_reduces_order():
    assert zeta(6, 2) == zeta(3, 1)
    assert zeta(8, 2) == zeta(4, 1)
    assert zeta(8, 2).conductor == 4
    assert zeta(5, 0) == rational(1)


def test_sqrt2_squares_to_two():
    s = sqrt2()
    assert s * s == rational(2)
    assert s.conductor == 8


def test_golden_ratio_satisfies_its_equation():
    g = golden()
    assert g * g == g + rational(1)


def test_powers_and_negation():
    s = sqrt2()
    assert s ** 4 == rational(4)
    assert (-s) + s == rational(0)
    assert s ** 0 == rational(1)


def test_inverse_golden():
    g = golden()
    assert g * g.inverse() == rational(1)
    # 1/golden = golden - 1
    assert g.inverse() == g - rational(1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rational(0).inverse()


def test_division():
    assert (rational(2) / sqrt2()) == sqrt2()


def test_equality_across_conductors():
    # the same number presented at conductors 3 and 12
    a = zeta(3) + zeta(3, 2)
    b = (zeta(12, 4) + zeta(12, 8)).reduce_conductor()
    assert a == rational(-1)
    assert b == rational(-1)
    assert zeta(12, 4) == zeta(3)
    assert a == (zeta(12, 4) + zeta(12, 8))


def test_cyc_is_unhashable():
    with pytest.raises(TypeError):
        hash(sqrt2())


def test_lift_requires_divisibility():
    with pytest.raises(ValueError):
        zeta(8).lift(12)
    assert zeta(8).lift(40).conductor == 40
    assert zeta(8).lift(40) == zeta(8)


# ------------------------------------------------------- Galois action


def test_galois_flips_sqrt2_sign():
    s = sqrt2()
    assert s.galois(3) == -s
    assert s.galois(7) == s
    assert s.galois(5) == -s


def test_galois_requires_unit():
    with pytest.raises(ValueError):
        zeta(5).galois(5)
    with pytest.raises(ValueError):
        zeta(8).galois(2)


def test_galois_is_multiplicative_on_exponents():
    a = zeta(20, 3)
    assert a.galois(7) == zeta(20, 21 % 20)
    assert a.galois(3).galois(7) == a.galois(21)


def test_conj_is_galois_minus_one():
    a = zeta(7) + rational(2) * zeta(7, 3)
    assert a.conj() == a.galois(-1)
    assert sqrt2().conj() == sqrt2()


def test_conjugates_and_degree():
    assert sqrt2().degree() == 2
    assert zeta(5).degree() == 4
    assert golden().degree() == 2
    assert zeta(16).degree() == 8
    assert rational(3).degree() == 1
    conj5 = zeta(5).conjugates()
    assert len(conj5) == 4
    total = conj5[0]
    for c in conj5[1:]:
        total = total + c
    assert total == rational(-1)


def test_trace_norm_oracles():
    assert zeta(5).trace_norm() == (Fraction(-1), Fraction(1))
    assert golden().trace_norm() == (Fraction(1), Fraction(-1))
    assert sqrt2().trace_norm() == (Fraction(0), Fraction(-2))
    assert rational(Fraction(3, 2)).trace_norm() == (Fraction(3, 2), Fraction(3, 2))


def test_m_measure_oracles():
    assert sqrt2().m_measure() == Fraction(2)
    assert golden().m_measure() == Fraction(3, 2)
    assert rational(1).m_measure() == Fraction(1)
    assert rational(2).m_measure() == Fraction(4)


def test_m_measure_rejects_non_real():
    with pytest.raises(ValueError):
        zeta(5).m_measure()


def test_total_reality():
    assert sqrt2().is_totally_real()
    assert golden().is_totally_real()
    assert not zeta(5).is_totally_real()
    assert rational(-7).is_totally_real()


def test_total_positivity():
    assert (rational(2) + sqrt2()).is_totally_positive()
    assert not sqrt2().is_totally_positive()
    assert not golden().is_totally_positive()
    assert rational(1).is_totally_positive()
    assert not rational(0).is_totally_positive()
    with pytest.raises(ValueError):
        zeta(5).is_totally_positive()


# ------------------------------------------------ integrality, minpoly


def test_is_algebraic_integer():
    assert sqrt2().is_algebraic_integer()
    assert golden().is_algebraic_integer()
    assert zeta(7).is_algebraic_integer()
    assert not rational(Fraction(1, 2)).is_algebraic_integer()
    assert not (sqrt2() / rational(2)).is_algebraic_integer()


def test_minimal_polynomial_oracles():
    assert sqrt2().minimal_polynomial() == (Fraction(-2), Fraction(0), Fraction(1))
    assert golden().minimal_polynomial() == (Fraction(-1), Fraction(-1), Fraction(1))
    assert zeta(5).minimal_polynomial() == tuple(Fraction(1) for _ in range(5))
    assert rational(Fraction(2, 3)).minimal_polynomial() == (
        Fraction(-2, 3),
        Fraction(1),
    )


def test_minimal_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = [
        (zeta(12) + zeta(12, 11), sympy.sqrt(3)),
        (zeta(8) + zeta(8, 7), sympy.sqrt(2)),
        (zeta(7), sympy.exp(2 * sympy.pi * sympy.I / 7)),
        (zeta(5) + zeta(5, 4) + rational(2), 2 + 2 * sympy.cos(2 * sympy.pi / 5)),
    ]
    for ours, theirs in cases:
        got = ours.minimal_polynomial()
        want = sympy.minimal_polynomial(theirs, x)
        want_coeffs = tuple(
            Fraction(int(want.coeff(x, i))) for i in range(sympy.degree(want, x) + 1)
        )
        lead = want_coeffs[-1]
        want_monic = tuple(c / lead for c in want_coeffs)
        assert got == want_monic


def test_is_root_of_unity():
    assert zeta(12, 5).is_root_of_unity() == 12
    assert rational(1).is_root_of_unity() == 1
    assert rational(-1).is_root_of_unity() == 2
    assert zeta(9, 3).is_root_of_unity() == 3
    assert sqrt2().is_root_of_unity() is None
    assert (rational(1) + zeta(5)).is_root_of_unity() is None
    assert rational(2).is_root_of_unity() is None


def test_root_of_unity_read_off_negated_rows():
    # -zeta_9^2 = zeta_18^13 is the negation of a row at odd conductor 9
    assert (-zeta(9, 2)).is_root_of_unity() == 18
    assert _as_root_of_unity(-zeta(9, 2)) == RootOfUnity.make(18, 13)
    assert (-zeta(8)).is_root_of_unity() == 8
    assert _as_root_of_unity(-zeta(8)) == RootOfUnity.make(8, 5)
    assert (rational(2) * zeta(5)).is_root_of_unity() is None
    assert _as_root_of_unity(rational(2) * zeta(5)) is None


# --------------------------------------------------- embedding and sign


def test_embed_sqrt2():
    box = sqrt2().embed()
    assert abs(box.re - 1.4142135623730951) <= float(box.radius) + 1e-15
    assert abs(box.im) <= float(box.radius) + 1e-15


def test_embed_precision_scales():
    box = sqrt2().embed(precision=200)
    assert float(box.radius) <= 2.0 ** -200


def test_embed_zeta8():
    box = zeta(8).embed()
    assert abs(box.re - 0.7071067811865476) <= float(box.radius) + 1e-15
    assert abs(box.im - 0.7071067811865476) <= float(box.radius) + 1e-15


def test_sign_certification():
    assert sqrt2().sign() == 1
    assert (sqrt2() - rational(2)).sign() == -1
    assert (sqrt2() * sqrt2() - rational(2)).sign() == 0
    # golden is about 1.6180339887
    g = golden()
    assert g.compare_real(rational(Fraction(1618, 1000))) == 1
    assert g.compare_real(rational(Fraction(1619, 1000))) == -1
    assert g.compare_real(g) == 0


def test_sign_rejects_non_real():
    with pytest.raises(ValueError):
        zeta(5).sign()


# ------------------------------------------------ conductor reduction


def test_reduce_conductor():
    a = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    r = a.reduce_conductor()
    assert r.conductor == 1
    assert r == rational(-1)
    assert (sqrt2() * sqrt2()).reduce_conductor().conductor == 1
    assert zeta(12, 3).reduce_conductor().conductor == 4
    assert zeta(7).reduce_conductor().conductor == 7


# ------------------------------------------------------------- helpers


def test_euler_phi():
    table = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 6, 12: 4, 16: 8, 36: 12}
    for n, v in table.items():
        assert euler_phi(n) == v


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(49) == (1, 7, 49)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    rng = random.Random(17)
    # with Carmichael numbers prime to 2, 3, 5 and 7, which pass every
    # Fermat test
    carmichael = [29341, 46657, 75361, 115921, 162401]
    sample = list(range(3000)) + carmichael + [rng.randrange(2**29, 2**30) for _ in range(300)]
    for n in sample:
        assert _is_prime(n) == trial(n), n
    # the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5 and
    # 2, 3, 5, 7: the four bases are exact below the last one
    assert not any(map(_is_prime, (2047, 1373653, 25326001)))
    assert _is_prime(3215031751) and not trial(3215031751)


def test_units_mod():
    assert units_mod(8) == (1, 3, 5, 7)
    assert units_mod(1) == (1,)
    assert units_mod(2) == (1,)
    assert len(units_mod(35)) == euler_phi(35)


def test_unit_group_generators():
    for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 36, 40):
        gens = unit_group_generators(n)
        seen = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = v * g % n
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == set(units_mod(n)), n


def test_cyclotomic_poly():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in (*range(1, 301), 8640, 9990):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in want), n


def test_cyclotomic_poly_8640_is_fast_in_a_fresh_interpreter():
    # rules out dividing x^8640 - 1 by every Phi_d, d | 8640: about a second
    code = (
        "import time; from mdtk.cyclo import cyclotomic_poly; "
        "t = time.perf_counter(); cyclotomic_poly(8640); "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mdtk.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert float(proc.stdout) < 0.1, proc.stdout


def test_real_subfield_degree():
    assert real_subfield_degree(1) == 1
    assert real_subfield_degree(2) == 1
    assert real_subfield_degree(4) == 1
    assert real_subfield_degree(5) == 2
    assert real_subfield_degree(7) == 3
    assert real_subfield_degree(8) == 2
    assert real_subfield_degree(12) == 2
    assert real_subfield_degree(16) == 4


def test_real_subfield_degree_counts_plus_minus_pairs():
    # the degree is the number of {k, -k} classes of units
    for n in range(3, 40):
        pairs = {frozenset((k, (-k) % n)) for k in units_mod(n)}
        assert real_subfield_degree(n) == len(pairs), n


# --------------------------------------------------------- RootOfUnity


def test_root_of_unity_type_normalizes():
    r = RootOfUnity.make(6, 4)
    assert (r.order, r.exponent) == (3, 2)
    assert RootOfUnity.make(5, 0) == RootOfUnity.one()
    assert RootOfUnity.make(10, 5) == RootOfUnity.make(2, 1)


def test_root_of_unity_rejects_bad_input():
    with pytest.raises(ValueError):
        RootOfUnity.make(0, 1)
    with pytest.raises(ValueError):
        RootOfUnity(4, 2)


def test_root_of_unity_group_law():
    a = RootOfUnity.make(3, 1)
    b = RootOfUnity.make(4, 1)
    assert a * b == RootOfUnity.make(12, 7)
    assert (a * a.inverse()) == RootOfUnity.one()
    assert a ** 3 == RootOfUnity.one()
    assert b ** -1 == b.inverse()


def test_root_of_unity_to_cyc():
    assert RootOfUnity.make(8, 3).to_cyc() == zeta(8, 3)
    assert RootOfUnity.one().to_cyc() == rational(1)
    assert RootOfUnity.make(2, 1).to_cyc() == rational(-1)


def test_root_of_unity_str():
    assert str(RootOfUnity.one()) == "1"
    assert str(RootOfUnity.make(2, 1)) == "-1"
    assert str(RootOfUnity.make(8, 3)) == "z8^3"


def test_root_of_unity_json_round_trip():
    for m, k in ((1, 0), (2, 1), (8, 3), (48, 7)):
        r = RootOfUnity.make(m, k)
        assert RootOfUnity.from_json(r.to_json()) == r


# ---------------------------------------------------------------- JSON


def test_cyc_json_round_trip():
    cases = [
        rational(Fraction(22, 7)),
        sqrt2(),
        golden() / rational(3),
        zeta(36, 5) - zeta(36, 17) / rational(2),
    ]
    for a in cases:
        again = Cyc.from_json(a.to_json())
        assert again == a
        assert again.conductor == a.conductor
        assert again.coeffs == a.coeffs


def test_cyc_from_json_validates():
    with pytest.raises(ValueError):
        Cyc.from_json({"n": 8})
    with pytest.raises(ValueError):
        Cyc.from_json({"n": 0, "c": []})
    with pytest.raises(ValueError):
        Cyc.from_json({"n": 8, "c": [["1", "1"]]})  # wrong length


def test_cyc_to_json_writes_reduced_fractions():
    # pins the written form: the reduced common denominator as a string,
    # then the nonzero numerators at strictly increasing indices
    rng = random.Random(4471)
    zeros = 0
    for n in (1, 5, 12, 27):
        for _ in range(5):
            den = rng.choice((1, 2, 6, 35))
            num = [rng.choice((0, rng.randrange(-40, 41))) for _ in range(euler_phi(n))]
            zeros += num.count(0)
            a = Cyc.from_json({"n": n, "c": [[str(v), str(den)] for v in num]})
            want = [Fraction(v, den) for v in num]
            common = math.lcm(*(f.denominator for f in want))
            assert a.to_json() == {
                "n": n,
                "den": str(common),
                "terms": [[i, str(f.numerator * (common // f.denominator))]
                          for i, f in enumerate(want) if f],
            }
    assert zeros > 50
    assert rational(0).to_json() == {"n": 1, "den": "1", "terms": []}
    assert (zeta(12, 5) - zeta(12, 5)).to_json() == {"n": 12, "den": "1", "terms": []}


def test_cyc_from_json_reduces_the_sparse_form():
    a = Cyc.from_json({"n": 5, "den": "4", "terms": [[0, "2"], [1, 0], [3, -6]]})
    assert (a.den, a.num) == (2, (1, 0, 0, -3))
    assert Cyc.from_json({"n": 8, "den": 3, "terms": []}) == rational(0)
    assert Cyc.from_json({"n": 8, "den": "1", "terms": []}).num == (0, 0, 0, 0)


def test_cyc_from_json_reduces_unnormalized_pairs():
    pairs = [["2", "4"], ["3", "-6"], ["-3", "-6"], [2, 4]]
    a = Cyc.from_json({"n": 5, "c": pairs})
    assert a.coeffs == tuple(Fraction(int(p), int(q)) for p, q in pairs)
    assert (a.den, a.num) == (2, (1, -1, 1, 1))


@pytest.mark.parametrize(
    "pair, message",
    [
        (["1", "2", "3"], "too many values to unpack (expected 2)"),
        (["1.5", "1"], "invalid literal for int() with base 10: '1.5'"),
        (["1", "0"], "zero denominator in a coefficient"),
    ],
)
def test_from_dict_rejects_bad_coefficient_pairs(pair, message):
    obj = {"labels": ["1"], "S": [[{"n": 1, "c": [pair]}]], "T": [{"m": 1, "k": 0}]}
    with pytest.raises(DataFormatError) as err:
        from_dict(obj)
    assert str(err.value) == f"bad matrix entry: {message}"


@pytest.mark.parametrize(
    "entry, t, message",
    [
        ({"n": 1, "c": [[1.5, 1]]}, {"m": 1, "k": 0}, "coefficient 1.5 is not an integer"),
        ({"n": 1, "c": [[True, 2.9]]}, {"m": 1, "k": 0}, "coefficient 2.9 is not an integer"),
        ({"n": 1, "c": [[1, False]]}, {"m": 1, "k": 0}, "coefficient False is not an integer"),
        ({"n": True, "c": [["1", "1"]]}, {"m": 1, "k": 0}, "bad conductor True"),
        ({"n": 1, "c": [["1", "1"]]}, {"m": True, "k": False},
         "root of unity fields must be integers"),
    ],
)
def test_from_dict_rejects_non_integer_json_numbers(entry, t, message):
    obj = {"labels": ["1"], "S": [[entry]], "T": [t]}
    with pytest.raises(DataFormatError) as err:
        from_dict(obj)
    assert str(err.value) == f"bad matrix entry: {message}"


@pytest.mark.parametrize(
    "pair, message",
    [
        ("12", "coefficient '12' is not a [num, den] list"),
        ({"3": 0, "4": 0}, "coefficient {'3': 0, '4': 0} is not a [num, den] list"),
        (["1"], "not enough values to unpack (expected 2, got 1)"),
    ],
)
def test_cyc_from_json_reads_only_two_item_lists(pair, message):
    # a string or a dict of two items once unpacked as a coefficient:
    # "12" loaded as 1/2 and {"3": 0, "4": 0} as 3/4
    entry = {"n": 1, "c": [pair]}
    with pytest.raises(ValueError) as err:
        Cyc.from_json(entry)
    assert str(err.value) == message
    obj = {"labels": ["1"], "S": [[entry]], "T": [{"m": 1, "k": 0}]}
    with pytest.raises(DataFormatError) as err:
        from_dict(obj)
    assert str(err.value) == f"bad matrix entry: {message}"


SPARSE_FORM_ERRORS = [
    ({"n": 4, "terms": []}, "field element has no 'den'"),
    ({"n": 4, "den": "1"}, "field element has no 'terms'"),
    ({"den": "1", "terms": []}, "field element has no 'n'"),
    ({"n": 4, "den": "0", "terms": []}, "denominator 0 is not positive"),
    ({"n": 4, "den": "-3", "terms": []}, "denominator -3 is not positive"),
    ({"n": 4, "den": True, "terms": []}, "denominator True is not an integer"),
    ({"n": 4, "den": 1.5, "terms": []}, "denominator 1.5 is not an integer"),
    ({"n": 4, "den": "1", "terms": {"0": "1"}}, "terms must be a list, not dict"),
    ({"n": 4, "den": "1", "terms": "0,1"}, "terms must be a list, not str"),
    ({"n": 4, "den": "1", "terms": [[1]]}, "term [1] is not an [index, numerator] pair"),
    ({"n": 4, "den": "1", "terms": [[0, "1", "2"]]},
     "term [0, '1', '2'] is not an [index, numerator] pair"),
    ({"n": 4, "den": "1", "terms": ["01"]}, "term '01' is not an [index, numerator] pair"),
    ({"n": 4, "den": "1", "terms": [[True, "1"]]}, "term index True is not an integer"),
    ({"n": 4, "den": "1", "terms": [[1.0, "1"]]}, "term index 1.0 is not an integer"),
    ({"n": 4, "den": "1", "terms": [["1", "1"]]}, "term index '1' is not an integer"),
    ({"n": 4, "den": "1", "terms": [[-1, "1"]]}, "term index -1 is outside 0 <= i < phi(4) = 2"),
    ({"n": 4, "den": "1", "terms": [[2, "1"]]}, "term index 2 is outside 0 <= i < phi(4) = 2"),
    ({"n": 4, "den": "1", "terms": [[0, "1"], [0, "1"]]},
     "term index 0 follows 0: indices must increase"),
    ({"n": 4, "den": "1", "terms": [[1, "1"], [0, "1"]]},
     "term index 0 follows 1: indices must increase"),
    ({"n": 4, "den": "1", "terms": [[0, 1.5]]}, "coefficient 1.5 is not an integer"),
    ({"n": 4, "den": "1", "terms": [[0, True]]}, "coefficient True is not an integer"),
    ({"n": 4, "den": "1", "terms": [[0, "1.5"]]},
     "invalid literal for int() with base 10: '1.5'"),
    ({"n": 1, "den": "1", "terms": [[0, "1"]], "c": [["1", "1"]]},
     "field element mixes the dense 'c' form with 'den' and 'terms'"),
    ({"n": 1, "terms": [[0, "1"]], "c": [["1", "1"]]},
     "field element mixes the dense 'c' form with 'den' and 'terms'"),
    ({"n": 1.0, "den": "1", "terms": []}, "bad conductor 1.0"),
    ({"n": 0, "den": "1", "terms": []}, "bad conductor 0"),
]


@pytest.mark.parametrize("entry, message", SPARSE_FORM_ERRORS)
def test_from_dict_rejects_malformed_sparse_entries(entry, message):
    with pytest.raises(ValueError) as err:
        Cyc.from_json(entry)
    assert str(err.value) == message
    obj = {"labels": ["1"], "S": [[entry]], "T": [{"m": 1, "k": 0}]}
    with pytest.raises(DataFormatError) as err:
        from_dict(obj)
    assert str(err.value) == f"bad matrix entry: {message}"


def test_to_json_shares_zero_coefficients():
    md = pointed(MetricGroup.generator_form((81,), (1,)))
    tracemalloc.start()
    try:
        to_dict(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # rules out one list and two strings per zero coefficient: about 38 MB;
    # the sparse form writes no zero coefficient at all
    assert peak < 10_000_000, peak


# ------------------------------------------------------- random sweeps


def random_cyc(rng, n):
    coeffs = [rng.randrange(-4, 5) for _ in range(euler_phi(n))]
    out = rational(0)
    for j, c in enumerate(coeffs):
        if c:
            out = out + rational(c) * zeta(n, j + 1)
    return out


def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(40):
        n = rng.choice((5, 8, 9, 12, 15, 16, 20, 24))
        a = random_cyc(rng, n)
        b = random_cyc(rng, n)
        c = random_cyc(rng, n)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a * b) / b == a


def test_galois_is_a_ring_map_random():
    rng = random.Random(991)
    for _ in range(25):
        n = rng.choice((7, 8, 12, 15, 20))
        k = rng.choice([u for u in units_mod(n) if u != 1])
        a = random_cyc(rng, n)
        b = random_cyc(rng, n)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_trace_of_integer_combination_is_integral():
    rng = random.Random(7321)
    for _ in range(20):
        n = rng.choice((5, 7, 9, 16))
        a = random_cyc(rng, n)
        tr, nm = a.trace_norm()
        assert tr.denominator == 1
        assert nm.denominator == 1


def test_inverse_random():
    rng = random.Random(5150)
    done = 0
    while done < 15:
        n = rng.choice((5, 8, 12, 13))
        a = random_cyc(rng, n)
        if a.is_zero():
            continue
        assert a * a.inverse() == rational(1)
        done += 1


def test_inverse_of_dense_element_at_720_is_fast():
    rng = random.Random(720)
    a = Cyc(720, 1, tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(euler_phi(720))))
    start = time.perf_counter()
    inv = a.inverse()
    assert time.perf_counter() - start < 1.0
    assert a * inv == rational(1)


# ------------------------------------- reduction against long division


def reference_reduce(n, terms):
    """The coefficients of sum v * zeta_n^e over the power basis, by
    folding exponents mod n and long division by Phi_n."""
    poly = [0] * n
    for e, v in terms:
        poly[e % n] += v
    phi_poly = cyclotomic_poly(n)
    deg = len(phi_poly) - 1
    for i in range(n - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j, p in enumerate(phi_poly):
                poly[i - deg + j] -= c * p
    return tuple(poly[:deg])


REDUCTION_CONDUCTORS = (1, 2, 5, 8, 9, 12, 27, 45, 72, 105, 360)


def dense_cyc(rng, n):
    return Cyc(n, 1, tuple(rng.randrange(-9, 10) for _ in range(euler_phi(n))))


@pytest.mark.parametrize("n", REDUCTION_CONDUCTORS)
def test_reduction_matches_long_division(n):
    rng = random.Random(31000 + n)
    for _ in range(3):
        a, b = dense_cyc(rng, n), dense_cyc(rng, n)
        terms = [(i + j, v * w) for i, v in enumerate(a.num) for j, w in enumerate(b.num)]
        prod = a * b
        assert (prod.conductor, prod.coeffs) == (n, reference_reduce(n, terms))

        m = n * rng.choice((2, 3, 4))
        lifted = a.lift(m)
        terms = [(i * (m // n), v) for i, v in enumerate(a.num)]
        assert (lifted.conductor, lifted.coeffs) == (m, reference_reduce(m, terms))

        k = rng.choice(units_mod(n))
        image = a.galois(k)
        terms = [(i * k, v) for i, v in enumerate(a.num)]
        assert (image.conductor, image.coeffs) == (n, reference_reduce(n, terms))
    for e in range(0, n, max(1, n // 40)):
        r = RootOfUnity.make(n, e)
        z = root_of_unity(n, e)
        assert (z.conductor, z.coeffs) == (
            r.order,
            reference_reduce(r.order, [(r.exponent, 1)]),
        )


def test_power_basis_table_stays_small():
    # a dense table at n = 2880 holds 2880 * 768 integers, about 17 MB
    n = 2880
    cyclotomic_poly(n)
    tracemalloc.start()
    try:
        _power_basis.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


# ---------------------------------------------------------- residue map


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 100, 2**20 - 1, 2**40 + 5])
def test_residue_modulus_exceeds_bound_power(bound):
    # m > B^phi(N) is what makes the map exact on values bounded by B
    for n in (*range(1, 301), 720, 8640):
        ring = ResidueMap(n, bound)
        assert ring.modulus > bound ** euler_phi(n), (n, bound)
        assert 1 << ring.bits >= bound + 2


@pytest.mark.parametrize("n", [1, 2, 3, 12, 105, 720])
@pytest.mark.parametrize("bound", [1, 5, 1000])
def test_residue_kernel_element_needs_a_larger_bound(n, bound):
    # zeta_N - w is nonzero and lies in the kernel; its ||.||_1 is w + 1,
    # beyond the bound the ring was chosen for
    ring = ResidueMap(n, bound)
    w = 1 << ring.bits
    planted = root_of_unity(n) - w
    assert not planted.is_zero()
    assert ring(planted) == 0
    wider = ResidueMap(n, w + 1)
    assert wider(planted) != 0


def test_residue_of_roots_and_scaled_values():
    ring = ResidueMap(36, 10)
    m = ring.modulus
    z = root_of_unity(36)
    for e in range(36):
        t = RootOfUnity.make(36, e)
        assert ring.root(t) == ring(t.to_cyc()) == pow(1 << ring.bits, e, m)
    # zeta_9^2 / 3 scaled by 3 is zeta_36^8
    assert ring(root_of_unity(9, 2) / 3, 3) == ring(z**8)
    assert pow(1 << ring.bits, 36, m) == 1
    with pytest.raises(ValueError):
        ring(root_of_unity(9, 2) / 3)
    with pytest.raises(ValueError):
        ring(root_of_unity(5))
    with pytest.raises(ValueError):
        ring.root(RootOfUnity.make(5, 1))


def test_residue_separates_bounded_values():
    # every nonzero x = sum of at most `bound` roots of unity maps to nonzero
    rng = random.Random(11)
    zeros = 0
    for n in (5, 8, 12, 15, 16, 21, 30):
        bound = 6
        ring = ResidueMap(n, bound)
        for _ in range(200):
            terms = [rng.randrange(n) for _ in range(rng.randrange(1, bound + 1))]
            signs = [rng.choice((-1, 1)) for _ in terms]
            x = rational(0)
            for e, sgn in zip(terms, signs):
                x = x + sgn * root_of_unity(n, e)
            assert (ring(x) == 0) == x.is_zero(), (n, x)
            zeros += x.is_zero()
    assert zeros >= 10, zeros
