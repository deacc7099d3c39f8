"""Builders: pointed data from metric groups, the named small families,
abelian doubles, Deligne products, and the graded vector space exponent."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from mdtk.catalog_cli import builtin, builtin_names, to_dict
from mdtk.cyclo import Cyc, RootOfUnity, rational, root_of_unity
from mdtk.construct import (
    _element_label,
    CocycleSpec,
    DataFormatError,
    MetricGroup,
    deligne_product,
    double_abelian,
    fibonacci,
    fsexp_vec_g_omega,
    ising,
    pointed,
    so5_level9,
)
from mdtk.modular import ModularDatum, _entries, data_equal, dims, fs_exponent, ndim, verify


def quad_metric(orders, mod, f):
    elements = []
    import itertools
    for g in itertools.product(*(range(n) for n in orders)):
        elements.append(RootOfUnity.make(mod, f(g) % mod))
    return MetricGroup(tuple(orders), tuple(elements))


def c5_metric():
    return quad_metric((5,), 5, lambda g: g[0] * g[0])


# ---------------------------------------------------------- MetricGroup


def test_metric_group_basics():
    mg = c5_metric()
    assert mg.size == 5
    assert mg.elements()[0] == (0,)
    assert mg.add((2,), (4,)) == (1,)
    assert mg.neg((2,)) == (3,)
    assert mg.index((3,)) == 3
    assert mg.q_at((2,)) == RootOfUnity.make(5, 4)


def test_metric_group_rejects_non_quadratic():
    # q(-g) must equal q(g)
    q = (RootOfUnity.one(), RootOfUnity.make(5, 1), RootOfUnity.make(5, 2),
         RootOfUnity.make(5, 2), RootOfUnity.make(5, 2))
    with pytest.raises(DataFormatError):
        pointed(MetricGroup((5,), q))


def test_metric_group_rejects_degenerate():
    # q(g) = (-1)^g on Z/2 has trivial associated pairing
    q = (RootOfUnity.one(), RootOfUnity.make(2, 1))
    with pytest.raises(DataFormatError):
        pointed(MetricGroup((2,), q))


def test_generator_form():
    # odd order: the root has the group order itself
    mg = MetricGroup.generator_form((5,), (1,))
    assert mg.q_at((1,)) == RootOfUnity.make(5, 1)
    assert mg.q_at((2,)) == RootOfUnity.make(5, 4)
    for g in mg.elements():
        assert c5_metric().q_at(g) == mg.q_at(g)
    # even order: the root order doubles
    semion = MetricGroup.generator_form((2,), (1,))
    assert semion.q_at((1,)) == RootOfUnity.make(4, 1)
    assert verify(pointed(semion)).ok


# -------------------------------------------------------------- pointed


def test_pointed_c5_structure():
    md = pointed(c5_metric(), name="pointed-c5")
    assert md.labels[0] == "1"
    assert md.rank == 5
    assert verify(md).ok
    assert all(d == rational(1) for d in dims(md))
    # S[g][h] = q(g+h)/(q(g) q(h)) for the cyclic quadratic form
    assert md.S[1][1] == root_of_unity(5, 2)
    assert md.S[1][2] == root_of_unity(5, 4)
    # twists are the inverted form values
    assert md.T[1] == RootOfUnity.make(5, 4)
    assert md.T[0] == RootOfUnity.one()


def test_pointed_semion():
    md = pointed(quad_metric((2,), 4, lambda g: g[0] * g[0]))
    assert md.rank == 2
    assert verify(md).ok
    assert fs_exponent(md) == 4
    assert md.S[1][1] == rational(-1)


def test_pointed_product_group():
    # hyperbolic pairing on the Klein four group
    md = pointed(quad_metric((2, 2), 2, lambda g: g[0] * g[1]))
    assert md.rank == 4
    assert verify(md).ok


# ------------------------------------- pointed against the table check


def _table_pointed(mg, name=None):
    """pointed through the full table b(g, h) = q(g + h) / (q(g) q(h)),
    checked for bimultiplicativity on every pair: the reference for the
    check on the generators."""
    elems = mg.elements()
    size = mg.size
    for g in elems:
        if mg.q_at(mg.neg(g)) != mg.q_at(g):
            raise DataFormatError(f"q({g}) differs from q(-{g}); not a quadratic form")
    b = [[mg.q_at(mg.add(g, h)) * mg.q_at(g).inverse() * mg.q_at(h).inverse()
          for h in elems] for g in elems]
    k = len(mg.orders)
    for axis in range(k):
        e = mg.index(tuple(1 if t == axis else 0 for t in range(k)))
        for i, g in enumerate(elems):
            shifted = mg.index(mg.add(g, elems[e]))
            if any(b[shifted][j] != b[i][j] * b[e][j] for j in range(size)):
                raise DataFormatError(
                    "q is not a quadratic form: the associated b is not bimultiplicative"
                )
    for i in range(1, size):
        if all(b[i][j].order == 1 for j in range(size)):
            raise DataFormatError(
                f"the form is degenerate: {elems[i]} pairs trivially with everything"
            )
    S = [[r.to_cyc() for r in row] for row in b]
    T = [mg.q_at(g).inverse() for g in elems]
    labels = [_element_label(g, len(mg.orders) == 1) for g in elems]
    if name is None:
        name = "pointed-" + "x".join(f"c{n}" for n in mg.orders)
    return ModularDatum(labels, S, T, name=name)


def _outcome(build):
    try:
        return to_dict(build())
    except DataFormatError as e:
        return str(e)


def _group_orders(limit):
    """Every tuple of cyclic orders n_1 <= n_2 <= ..., each at least 2, with
    product at most limit."""
    out = []

    def extend(prefix, low, size):
        for n in range(low, limit // size + 1):
            out.append(prefix + (n,))
            extend(prefix + (n,), n, size * n)

    extend((), 2, 1)
    return out


def test_pointed_matches_the_table_check():
    forms = []
    for orders in _group_orders(16):
        moduli = [n if n % 2 else 2 * n for n in orders]
        for exps in itertools.product(*(range(m) for m in moduli)):
            mg = MetricGroup.generator_form(orders, exps)
            for g in mg.elements():
                want = RootOfUnity.one()
                for gi, a, m in zip(g, exps, moduli):
                    want = want * RootOfUnity.make(m, a * gi * gi)
                assert mg.q_at(g) == want, (orders, exps, g)
            forms.append(mg)
    rng = random.Random(20261019)
    for orders in _group_orders(16):
        for _ in range(6):
            M = rng.choice([2, 3, 4, 6, 8, 12, 16])
            raw = MetricGroup(orders, tuple(RootOfUnity.make(M, rng.randrange(M))
                                            for _ in range(math.prod(orders))))
            even = MetricGroup(orders, tuple(RootOfUnity.one() if not any(g) else
                                             raw.q_at(max(g, raw.neg(g)))
                                             for g in raw.elements()))
            forms += [raw, even]
    # every table on Z/2 and Z/3, q(0) != 1 included
    for n, M in ((2, 12), (3, 6)):
        for vals in itertools.product(range(M), repeat=n):
            forms.append(MetricGroup((n,), tuple(RootOfUnity.make(M, v) for v in vals)))
    seen = []
    for mg in forms:
        seen.append(_outcome(lambda: pointed(mg)))
        assert seen[-1] == _outcome(lambda: _table_pointed(mg)), mg
    for orders in ((2,), (3,), (4,), (2, 2)):
        k = len(orders)
        q = []
        for gh in itertools.product(*(range(n) for n in orders + orders)):
            acc = RootOfUnity.one()
            for i in range(k):
                acc = acc * RootOfUnity.make(orders[i], gh[i] * gh[k + i])
            q.append(acc)
        name = "double-" + "x".join(f"c{n}" for n in orders)
        want = _table_pointed(MetricGroup(orders + orders, tuple(q)), name=name)
        assert to_dict(double_abelian(orders)) == to_dict(want)
    messages = [m for m in seen if isinstance(m, str)]
    for pattern in ("differs from q(-", "is not bimultiplicative", "the form is degenerate"):
        assert any(pattern in m for m in messages), pattern
    assert len(messages) < len(seen)


def test_construct_forms_no_root_of_unity_product(monkeypatch):
    calls = []
    product = RootOfUnity.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(RootOfUnity, "__mul__", counted)
    assert pointed(MetricGroup.generator_form((3,) * 5, (1,) * 5)).rank == 243
    assert double_abelian((4, 2)).rank == 64
    assert not calls


# ------------------------------------------------------- named families


def test_ising_family():
    seen = []
    for j in (1, 3, 5, 7, 9, 11, 13, 15):
        for eps in (1, -1):
            md = ising(j, eps)
            assert md.rank == 3
            assert fs_exponent(md) == 16
            assert ndim(md) == 4
            d = dims(md)
            assert d[2] * d[2] == rational(2)
            seen.append(md)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not data_equal(seen[i], seen[j])


def test_ising_names():
    assert ising(1, 1).name == "ising-1-p"
    assert ising(3, -1).name == "ising-3-m"


def test_ising_rejects_bad_j():
    with pytest.raises(ValueError):
        ising(2, 1)
    with pytest.raises(ValueError):
        ising(1, 0)


def test_fibonacci_family():
    md = fibonacci(1)
    assert md.rank == 2
    assert fs_exponent(md) == 5
    assert ndim(md) == 5
    d = dims(md)[1]
    assert d * d == d + rational(1)
    assert fibonacci(6).name == "fibonacci-1"
    assert data_equal(fibonacci(1), fibonacci(6))
    with pytest.raises(ValueError):
        fibonacci(5)


def test_so5_level9_family():
    md = so5_level9(1)
    assert md.rank == 6
    assert fs_exponent(md) == 9
    assert ndim(md) == 9
    assert md.labels == ("1", "a", "b", "u0", "u1", "u2")
    exps = tuple(t.exponent * t.order // t.order for t in md.T)
    assert md.T[0] == RootOfUnity.one()
    # frozen twist pattern for j = 1
    want = (0, 6, 3, 5, 8, 2)
    got = tuple((t.exponent * (9 // t.order)) % 9 for t in md.T)
    assert got == want
    with pytest.raises(ValueError):
        so5_level9(3)


def test_so5_level9_twists_scale_with_j():
    md2 = so5_level9(2)
    want = tuple((2 * e) % 9 for e in (0, 6, 3, 5, 8, 2))
    got = tuple((t.exponent * (9 // t.order)) % 9 for t in md2.T)
    assert got == want


# -------------------------------------------------------------- doubles


def test_double_abelian():
    md = double_abelian((2,))
    assert md.rank == 4
    assert md.name == "double-c2"
    assert verify(md).ok
    assert fs_exponent(md) == 2
    assert ndim(md) == 4
    md3 = double_abelian((3,))
    assert md3.rank == 9
    assert fs_exponent(md3) == 3
    assert ndim(md3) == 9


# ------------------------------------------------------ Deligne product


def test_deligne_product():
    a = ising(1, 1)
    b = fibonacci(1)
    p = deligne_product(a, b)
    assert p.rank == 6
    assert fs_exponent(p) == 80
    # dim = 4 * (5 + sqrt 5)/2, whose field norm is 16 * 5
    assert ndim(p) == 80
    assert verify(p).ok
    assert p.labels[0] == "(1,1)"
    assert p.name == "(ising-1-p)x(fibonacci-1)"


def test_deligne_product_dims_multiply():
    a = ising(1, 1)
    b = ising(1, 1)
    p = deligne_product(a, b)
    da, dp = dims(a), dims(p)
    assert dp[p.index("(sigma,sigma)")] == da[2] * da[2]


def _kronecker(a, b):
    """The Kronecker product of the S matrices, one product per entry."""
    return [[x * y for x in ra for y in rb] for ra in a.S for rb in b.S]


def test_deligne_product_is_the_kronecker_product():
    # the stored form (conductor, denominator, numerators) is compared, so
    # a product computed once per value must come out exactly as before
    form = operator.attrgetter("n", "den", "num")
    for na, nb in itertools.combinations_with_replacement(builtin_names(), 2):
        a, b = builtin(na), builtin(nb)
        got = deligne_product(a, b).S
        want = _kronecker(a, b)
        assert [list(map(form, row)) for row in got] == [list(map(form, row)) for row in want], (na, nb)


def test_deligne_product_multiplies_each_pair_of_values_once(monkeypatch):
    a, b = so5_level9(1), so5_level9(2)
    real = Cyc.__mul__
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return real(x, y)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    p = deligne_product(a, b)
    monkeypatch.undo()
    assert calls <= 2 * len(_entries(a)[0]) * len(_entries(b)[0]) < p.rank ** 2, calls
    # equal mirrors come out as one object, which ModularDatum meets by `is`
    assert all(p.S[x][y] is p.S[y][x] for x in range(p.rank) for y in range(x))


# ---------------------------------------------- graded vector space exp


def test_fsexp_vec_g_omega_generator_cocycle():
    for n in range(2, 17):
        assert fsexp_vec_g_omega(CocycleSpec((n,), (1,))) == n * n


def test_fsexp_vec_g_omega_trivial_cocycle():
    assert fsexp_vec_g_omega(CocycleSpec((6,), (0,))) == 6
    assert fsexp_vec_g_omega(CocycleSpec((2, 3), (0, 0))) == 6
    assert fsexp_vec_g_omega(CocycleSpec((4, 2), (0, 0))) == 4


def test_fsexp_vec_g_omega_non_generator():
    # a = 2 on Z/4: elements of order 4 restrict to order 2
    assert fsexp_vec_g_omega(CocycleSpec((4,), (2,))) == 8


def _cocycle_exponent(spec):
    """omega(g, h, k) = exp(2 pi i e(g, h, k)), the product over the factors
    Z/n of the type-I cocycles a x (y + z - [y + z]_n) / n^2, with e taken
    mod 1."""

    def e(g, h, k):
        total = sum(
            Fraction(a * x * (y + z - (y + z) % n), n * n)
            for a, n, x, y, z in zip(spec.exps, spec.orders, g, h, k)
        )
        return total % 1

    return e


def _fsexp_oracle(spec):
    """lcm over g of |g| times the order of the root of unity
    prod_{k < |g|} omega(g, kg, g), the class of omega restricted to <g>."""
    e = _cocycle_exponent(spec)
    acc = 1
    for g in itertools.product(*(range(n) for n in spec.orders)):
        powers = [tuple(0 for _ in g)]
        while True:
            nxt = tuple((p + x) % n for p, x, n in zip(powers[-1], g, spec.orders))
            if not any(nxt):
                break
            powers.append(nxt)
        d = len(powers)
        invariant = sum(e(g, kg, g) for kg in powers) % 1
        acc = math.lcm(acc, d * invariant.denominator)
    return acc


def _type_one_specs():
    for n in range(1, 17):
        for a in range(n):
            yield CocycleSpec((n,), (a,))
    shapes = [(n1, n2) for n1 in range(2, 7) for n2 in range(n1, 7)]
    shapes += [(2, 2, 2), (2, 2, 4)]
    for orders in shapes:
        for exps in itertools.product(*(range(n) for n in orders)):
            yield CocycleSpec(orders, exps)


def test_type_one_cocycle_oracle_is_a_cocycle():
    # the coboundary is additive over the factors, so cyclic groups and one
    # product cover it
    for orders in ((2,), (3,), (4,), (5,), (6,), (2, 2)):
        for exps in itertools.product(*(range(n) for n in orders)):
            spec = CocycleSpec(orders, exps)
            e = _cocycle_exponent(spec)

            def add(g, h):
                return tuple((x + y) % n for x, y, n in zip(g, h, orders))

            elems = list(itertools.product(*(range(n) for n in orders)))
            for g, h, k, l in itertools.product(elems, repeat=4):
                coboundary = (
                    e(h, k, l) - e(add(g, h), k, l) + e(g, add(h, k), l)
                    - e(g, h, add(k, l)) + e(g, h, k)
                )
                assert coboundary % 1 == 0, (spec, g, h, k, l)


def test_fsexp_vec_g_omega_matches_cocycle_oracle():
    specs = list(_type_one_specs())
    assert len(specs) > 350
    for spec in specs:
        assert fsexp_vec_g_omega(spec) == _fsexp_oracle(spec), spec
    # a on Z/2 x Z/2 with the second exponent trivial: (1, 0) and (1, 1)
    # restrict to order 2
    assert fsexp_vec_g_omega(CocycleSpec((2, 2), (1, 0))) == 4


def test_cocycle_spec_validation():
    with pytest.raises(DataFormatError):
        CocycleSpec((4,), (5,))
    with pytest.raises(DataFormatError):
        CocycleSpec((4, 2), (1,))
