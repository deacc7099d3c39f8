"""Exponent bound verdicts, the orbit trace bound, Siegel's bound, and
extremal classification."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from mdtk.cyclo import rational, root_of_unity
from mdtk.construct import (
    MetricGroup,
    deligne_product,
    double_abelian,
    fibonacci,
    ising,
    pointed,
    so5_level9,
)
from mdtk.bounds import (
    bound_check,
    extremal_classify,
    key_object,
    lemma_orbit_bound,
    prime_power,
    siegel_check,
)
from mdtk.catalog_cli import builtin, builtin_names
from mdtk.modular import (
    FusionTensor,
    MdtkError,
    ModularDatum,
    NotModularError,
    fpdim_pseudounitary,
    invertibles,
    verlinde_fusion,
)


def cyclic_pointed(n, name=None):
    return pointed(MetricGroup.generator_form((n,), (1,)), name=name)


def sqrt2():
    return root_of_unity(8) + root_of_unity(8, 7)


def golden():
    return rational(1) + root_of_unity(5) + root_of_unity(5, 4)


def relabelled(md, seed):
    """md with its non-unit objects in a random order."""
    p = [0] + random.Random(seed).sample(range(1, md.rank), md.rank - 1)
    return ModularDatum(
        [md.labels[i] for i in p], [[md.S[i][j] for j in p] for i in p], [md.T[i] for i in p],
    )


def swapped(md):
    """md with S[1][1] and S[1][r-1] exchanged, kept symmetric."""
    S = [list(row) for row in md.S]
    S[1][1], S[1][-1] = S[1][-1], S[1][1]
    S[-1][1] = S[1][-1]
    return ModularDatum(md.labels, S, md.T, name=f"{md.name}~swapped")


# ---------------------------------------------------------- prime_power


def test_prime_power():
    assert prime_power(16) == 2
    assert prime_power(27) == 3
    assert prime_power(7) == 7
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(2) == 2


# ----------------------------------------------------------- bound_check


def test_bound_check_ising():
    v = bound_check(ising(1, 1), classify=True)
    assert (v.fsexp, v.ndim, v.prime) == (16, 4, 2)
    assert v.bound_holds
    assert v.extremal
    assert v.tier == 4
    assert v.extremal_class == "ising-x-pointed(1)"
    assert "16 <= 16" in str(v)


def test_bound_check_fibonacci():
    v = bound_check(fibonacci(1), classify=True)
    assert (v.fsexp, v.ndim, v.prime) == (5, 5, 5)
    assert v.bound_holds and v.extremal and v.tier == 1
    assert v.extremal_class == "fibonacci"


def test_bound_check_so5():
    v = bound_check(so5_level9(1), classify=True)
    assert (v.fsexp, v.ndim, v.prime) == (9, 9, 3)
    assert v.bound_holds and v.extremal and v.tier == 1
    assert v.extremal_class == "unclassified"


def test_bound_check_pointed():
    v = bound_check(cyclic_pointed(5, "pointed-c5"), classify=True)
    assert (v.fsexp, v.ndim, v.prime) == (5, 5, 5)
    assert v.extremal and v.tier == 1
    assert v.extremal_class == "pointed-cyclic"


def test_bound_check_non_extremal():
    v = bound_check(double_abelian((2,)), classify=True)
    assert (v.fsexp, v.ndim, v.prime) == (2, 4, 2)
    assert v.bound_holds
    assert not v.extremal
    assert v.tier is None
    assert "2 <= 16" in str(v)


def test_bound_check_product():
    v = bound_check(deligne_product(ising(1, 1), ising(1, 1)), classify=True)
    assert (v.fsexp, v.ndim) == (16, 16)
    assert v.bound_holds and v.extremal and v.tier == 1
    assert v.extremal_class == "ising-x-ising"


def test_bound_check_vacuous_off_prime_powers():
    p = deligne_product(ising(1, 1), fibonacci(1))  # T order 80
    v = bound_check(p)
    assert v.prime is None
    assert v.bound_holds
    assert "bound vacuous" in str(v)


# ----------------------------------------------------- lemma_orbit_bound


def test_lemma_skips_irrational_dim():
    v = lemma_orbit_bound(fibonacci(1), "tau")
    assert not v.applicable
    assert "rational integer" in v.note


def test_lemma_ising_sigma():
    v = lemma_orbit_bound(ising(1, 1), "sigma")
    assert v.applicable
    assert v.degree == 1
    assert v.m_value == Fraction(2)
    assert v.orbit_labels == ("sigma",)
    assert v.holds


def test_lemma_ising_unit_fails():
    # the twist of the unit has order 16 and the squared Galois orbit is
    # a fixed point, so the stated bound does not hold there; the sweep
    # only quantifies over data with all dimensions integral, which the
    # sqrt 2 object rules out here
    v = lemma_orbit_bound(ising(1, 1), "1")
    assert v.applicable
    assert v.degree == 2
    assert v.m_value == Fraction(1)
    assert not v.holds


def test_lemma_pointed_entries():
    c3 = cyclic_pointed(3, "pointed-c3")
    for lab in c3.labels:
        v = lemma_orbit_bound(c3, lab)
        assert v.applicable and v.holds, (lab, v)
    v = lemma_orbit_bound(c3, "g1")
    assert v.degree == 1 and v.orbit_labels == ("g1",)
    c7 = cyclic_pointed(7, "pointed-c7")
    v = lemma_orbit_bound(c7, "g1")
    assert v.applicable and v.holds
    assert v.degree == 3
    assert v.orbit_labels == ("g1", "g2", "g4")
    c5 = cyclic_pointed(5, "pointed-c5")
    v = lemma_orbit_bound(c5, "g1")
    assert v.degree == 2 and v.holds
    assert v.orbit_labels == ("g1", "g4")


def test_lemma_so5_degree_follows_normalized_t():
    # every entry of t = T * gamma has order 9, and 9 has 3 distinct
    # squares among its units
    md = so5_level9(1)
    for lab in md.labels:
        v = lemma_orbit_bound(md, lab)
        assert v.degree == 3 and v.holds, (lab, v)


def test_lemma_doubles():
    for orders in ((2,), (3,)):
        md = double_abelian(orders)
        for lab in md.labels:
            v = lemma_orbit_bound(md, lab)
            assert v.applicable and v.holds, (md.name, lab)


# ------------------------------------------------------------ key_object


def test_key_object():
    assert key_object(ising(1, 1)) == "1"
    assert key_object(fibonacci(1)) == "1"
    assert key_object(so5_level9(1)) == "1"
    assert key_object(cyclic_pointed(5)) == "g1"
    assert key_object(double_abelian((2,))) == "g(1,1)"


def test_key_object_on_prime_power_products():
    assert key_object(deligne_product(ising(1, 1), ising(3, -1))) == "(1,sigma)"
    assert key_object(deligne_product(so5_level9(1), cyclic_pointed(9))) == "(1,1)"


def test_key_object_needs_prime_power():
    with pytest.raises(NotModularError):
        key_object(deligne_product(ising(1, 1), fibonacci(1)))


# ---------------------------------------------------------- siegel_check


def test_siegel_check():
    assert siegel_check(rational(1))
    assert siegel_check(rational(2))
    assert siegel_check(rational(2) + sqrt2())
    g = golden()
    assert siegel_check(g * g)  # trace 3 at degree 2, equality


def test_siegel_check_rejections():
    with pytest.raises(ValueError):
        siegel_check(sqrt2())  # not totally positive
    with pytest.raises(ValueError):
        siegel_check(golden())  # conjugate is negative
    with pytest.raises(ValueError):
        siegel_check(rational(Fraction(1, 2)))  # not an algebraic integer
    with pytest.raises(ValueError):
        siegel_check(root_of_unity(5))  # not totally real


# ------------------------------------------------------------- classify
#
# The reference names a ring by comparing it with the Verlinde fusion
# rings of template data, found by a backtracking isomorphism search, and
# decides whether a pointed ring is cyclic from its full product table.


@lru_cache(maxsize=None)
def _templates(rank: int) -> tuple[tuple[str, FusionTensor], ...]:
    """The Verlinde fusion rings of the template data of this rank; data of
    other ranks are not built."""
    def ising_x_pointed(*orders: int) -> ModularDatum:
        return deligne_product(
            ising(1, 1), pointed(MetricGroup.generator_form(orders, (1,) * len(orders)))
        )

    # the non-pointed extremal fusion rings, by rank: a class name and a
    # datum of the library that has the ring
    data = {
        2: (("fibonacci", lambda: fibonacci(1)),),
        3: (("ising-x-pointed(1)", lambda: ising(1, 1)),),
        6: (("ising-x-pointed(2)", lambda: ising_x_pointed(2)),),
        9: (("ising-x-ising", lambda: deligne_product(ising(1, 1), ising(1, 1))),),
        12: (
            ("ising-x-pointed(4)", lambda: ising_x_pointed(4)),
            ("ising-x-pointed(4)", lambda: ising_x_pointed(2, 2)),
        ),
    }
    return tuple((name, verlinde_fusion(build())) for name, build in data.get(rank, ()))


def _signature(ft: FusionTensor, x: int) -> tuple:
    flat = tuple(sorted(v for row in ft.N[x] for v in row))
    return (flat, ft.N[x][x][x], ft.N[x][x][0], ft.dual(x) == x)


def _fusion_isomorphic(a: FusionTensor, b: FusionTensor) -> bool:
    r = a.rank
    if b.rank != r:
        return False
    siga = [_signature(a, x) for x in range(r)]
    sigb = [_signature(b, x) for x in range(r)]
    if sorted(siga) != sorted(sigb):
        return False

    assign = [-1] * r
    used = [False] * r

    def consistent(x: int) -> bool:
        for y in range(r):
            if assign[y] < 0:
                continue
            for z in range(r):
                if assign[z] < 0:
                    continue
                if a.N[x][y][z] != b.N[assign[x]][assign[y]][assign[z]]:
                    return False
                if a.N[y][z][x] != b.N[assign[y]][assign[z]][assign[x]]:
                    return False
        return True

    def place(x: int) -> bool:
        if x == r:
            return True
        for cand in range(r):
            if used[cand] or sigb[cand] != siga[x]:
                continue
            if x == 0 and cand != 0:
                continue
            assign[x] = cand
            used[cand] = True
            if consistent(x) and place(x + 1):
                return True
            assign[x] = -1
            used[cand] = False
        return False

    return place(0)


def _cyclic_by_table(ft: FusionTensor) -> bool:
    r = ft.rank
    prod = {}
    for x in range(r):
        for y in range(r):
            zs = [z for z in range(r) if ft.N[x][y][z]]
            prod[(x, y)] = zs[0]
    for x in range(r):
        order = 1
        y = x
        while y != 0:
            y = prod[(x, y)]
            order += 1
        if order == r:
            return True
    return False


def reference_extremal_class(md):
    ft = verlinde_fusion(md)
    r = md.rank
    if len(invertibles(ft)) == r:
        return "pointed-cyclic" if _cyclic_by_table(ft) else "pointed-other"
    for name, tmpl in _templates(r):
        if _fusion_isomorphic(ft, tmpl):
            return name
    return "unclassified"


def outcome(classify, md):
    """classify(md), or the type and text of the error it raises."""
    try:
        return classify(md)
    except MdtkError as e:
        return f"{type(e).__name__}: {e}"


def reference_verdict_class(md):
    return reference_extremal_class(md) if bound_check(md).extremal else None


def classify_corpus():
    """The builtins, their pairwise products up to rank 36, three
    relabellings and one swapped-S mutant of each of rank 3 to 12, and
    products that reach every shape."""
    names = builtin_names()
    data = [builtin(name) for name in names]
    data += [
        deligne_product(builtin(a), builtin(b))
        for a, b in itertools.combinations_with_replacement(names, 2)
        if builtin(a).rank * builtin(b).rank <= 36
    ]
    data += [
        variant
        for md in data if 3 <= md.rank <= 12
        for variant in (*(relabelled(md, seed) for seed in range(3)), swapped(md))
    ]
    ising1 = ising(1, 1)
    return data + [
        deligne_product(ising1, double_abelian((2,))),
        deligne_product(deligne_product(ising1, cyclic_pointed(2)), cyclic_pointed(2)),
        deligne_product(ising1, cyclic_pointed(2)),
        deligne_product(ising1, cyclic_pointed(3)),
        deligne_product(fibonacci(1), fibonacci(2)),
        cyclic_pointed(81),
        pointed(MetricGroup.generator_form((9, 27), (1, 1))),
    ]


def test_extremal_classify_names_as_the_template_search():
    # direct calls name non-extremal data too: ising x pointed-c3 stays
    # unclassified
    for md in classify_corpus():
        want = outcome(reference_extremal_class, md)
        assert outcome(extremal_classify, md) == want, md.name
        got = outcome(lambda md: bound_check(md, classify=True).extremal_class, md)
        assert got == outcome(reference_verdict_class, md), md.name


def test_extremal_classify_direct():
    assert extremal_classify(cyclic_pointed(7)) == "pointed-cyclic"
    assert extremal_classify(fibonacci(3)) == "fibonacci"
    assert extremal_classify(ising(7, -1)) == "ising-x-pointed(1)"
    prod = deligne_product(ising(1, 1), ising(3, 1))
    assert extremal_classify(prod) == "ising-x-ising"
    # q(g) = zeta_4^(g1^2 + g2^2) on (Z/2)^2: extremal, and the group is
    # not cyclic
    v = bound_check(pointed(MetricGroup.generator_form((2, 2), (1, 1))), classify=True)
    assert (v.fsexp, v.ndim, v.extremal, v.extremal_class) == (4, 4, True, "pointed-other")
    assert extremal_classify(cyclic_pointed(81)) == "pointed-cyclic"
    c9_c27 = pointed(MetricGroup.generator_form((9, 27), (1, 1)))
    assert extremal_classify(c9_c27) == "pointed-other"


def test_extremal_classify_ising_with_pointed():
    md = deligne_product(ising(1, 1), cyclic_pointed(2))
    got = extremal_classify(md)
    assert got.startswith("ising-x-pointed")


def test_extremal_classify_ising_with_groups_of_order_four():
    # the toric code double-c2 is a leaf of the split tree that does not
    # split further, and its ring is pointed all the same
    for group in (pointed(MetricGroup.generator_form((4,), (1,))),
                  pointed(MetricGroup.generator_form((2, 2), (1, 1))),
                  double_abelian((2,))):
        md = deligne_product(ising(1, 1), group)
        assert md.rank == 12
        assert extremal_classify(md) == "ising-x-pointed(4)"
        v = bound_check(md, classify=True)
        assert (v.fsexp, v.ndim, v.tier) == (16, 16, 1)
        assert v.extremal_class == "ising-x-pointed(4)"
        # relabellings keep the class
        for seed in (1, 3):
            assert extremal_classify(relabelled(md, seed)) == "ising-x-pointed(4)"


def test_extremal_classify_unclassified():
    # extremal (FSexp 5 = Ndim 5) and not pointed, with two fibonacci
    # leaves, which no listed shape has
    md = deligne_product(fibonacci(1), fibonacci(2))
    v = bound_check(md, classify=True)
    assert (v.fsexp, v.ndim, v.extremal) == (5, 5, True)
    assert v.extremal_class == "unclassified"
    assert str(v).endswith("extremal (tier 1) class unclassified")


def test_unclassified_extremal_builtins_are_not_pseudo_unitary():
    # the shapes follow the paper's description of the pseudo-unitary
    # extremal data, so a pseudo-unitary extremal datum always has a class
    unclassified = set()
    for name in builtin_names():
        md = builtin(name)
        v = bound_check(md, classify=True)
        if not v.extremal:
            continue
        assert v.extremal_class is not None
        pseudo_unitary = fpdim_pseudounitary(md)[1]
        assert not (pseudo_unitary and v.extremal_class == "unclassified"), name
        if v.extremal_class == "unclassified":
            unclassified.add(name)
    assert unclassified == {n for n in builtin_names() if n.startswith("so5level9-")}


def test_lemma_verdict_str():
    assert str(lemma_orbit_bound(fibonacci(1), "tau")) == (
        "[skip] tau: global dimension is not a rational integer"
    )
    assert str(lemma_orbit_bound(ising(1, 1), "sigma")) == "[ok] sigma: orbit sum 2 vs 1 * 2"
    assert str(lemma_orbit_bound(ising(1, 1), "1")) == "[FAIL] 1: orbit sum 1 vs 2 * 1"


def test_lemma_orbit_bound_checks_the_label_on_every_datum():
    for md in (fibonacci(1), ising(1, 1)):
        with pytest.raises(KeyError, match="nope"):
            lemma_orbit_bound(md, "nope")
