"""Modular data container, verification checks, Verlinde fusion, and the
scalar invariants built from S and T."""

import itertools
import operator
from fractions import Fraction

import pytest

from mdtk import modular
from mdtk.catalog_cli import builtin, builtin_names
from mdtk.cyclo import Cyc, RootOfUnity, rational, root_of_unity
from mdtk.construct import (
    MetricGroup,
    deligne_product,
    double_abelian,
    fibonacci,
    ising,
    pointed,
    so5_level9,
)
from mdtk.modular import (
    _verlinde_certified,
    _verlinde_exact,
    _verlinde_float,
    DataFormatError,
    FusionTensor,
    ModularDatum,
    NotModularError,
    anomaly,
    centralizes,
    data_equal,
    dims,
    fpdim_pseudounitary,
    fs_exponent,
    gauss_sum,
    global_dim,
    invertibles,
    ndim,
    normalized_t,
    normalized_t_order,
    subcategory_generated,
    symmetric_center,
    verify,
    verlinde_fusion,
)


def cyclic_metric(n, mod, f, name=None):
    q = tuple(RootOfUnity.make(mod, f(g) % mod) for g in range(n))
    return pointed(MetricGroup((n,), q), name=name)


def pointed_c3():
    return cyclic_metric(3, 3, lambda g: g * g, name="pointed-c3")


def pointed_c5():
    return cyclic_metric(5, 5, lambda g: g * g, name="pointed-c5")


# ----------------------------------------------------------- container


def test_datum_shape_validation():
    one = rational(1)
    with pytest.raises(DataFormatError):
        ModularDatum(("a",), ((one, one),), (RootOfUnity.one(),))
    with pytest.raises(DataFormatError):
        ModularDatum(("a", "a"), ((one, one), (one, one)),
                     (RootOfUnity.one(), RootOfUnity.one()))


def test_datum_unit_normalization_message():
    two = rational(2)
    one = rational(1)
    with pytest.raises(DataFormatError, match="unit normalization"):
        ModularDatum(("1", "x"), ((two, one), (one, one)),
                     (RootOfUnity.one(), RootOfUnity.one()))
    with pytest.raises(DataFormatError, match="unit normalization"):
        ModularDatum(("1", "x"), ((one, one), (one, one)),
                     (RootOfUnity.make(2, 1), RootOfUnity.one()))


def test_datum_requires_symmetric_s():
    one = rational(1)
    with pytest.raises(DataFormatError):
        ModularDatum(("1", "x"), ((one, one), (rational(2), one)),
                     (RootOfUnity.one(), RootOfUnity.one()))


def test_index_lookup():
    md = ising(1, 1)
    assert md.labels[md.index("sigma")] == "sigma"
    with pytest.raises(KeyError):
        md.index("nope")


# ---------------------------------------------------------- invariants


def test_ising_invariants():
    md = ising(1, 1)
    assert fs_exponent(md) == 16
    assert ndim(md) == 4
    assert global_dim(md) == rational(4)
    assert anomaly(md) == RootOfUnity.make(8, 1)
    d = dims(md)
    assert d[0] == rational(1)
    assert d[1] == rational(1)
    assert d[2] * d[2] == rational(2)


def test_fibonacci_invariants():
    md = fibonacci(1)
    assert fs_exponent(md) == 5
    assert ndim(md) == 5
    # global dimension (5 + sqrt 5)/2, an algebraic unit times 5
    D = global_dim(md)
    assert D * D.galois(2) == rational(5)
    assert anomaly(md) == RootOfUnity.make(10, 3)


def test_so5_level9_invariants():
    md = so5_level9(1)
    assert fs_exponent(md) == 9
    assert ndim(md) == 9
    assert anomaly(md) == RootOfUnity.make(3, 1)
    assert md.rank == 6


def test_pointed_invariants():
    c5 = pointed_c5()
    assert fs_exponent(c5) == 5
    assert ndim(c5) == 5
    assert global_dim(c5) == rational(5)
    assert anomaly(c5) == RootOfUnity.one()
    c3 = pointed_c3()
    assert fs_exponent(c3) == 3
    assert anomaly(c3) == RootOfUnity.make(2, 1)


def test_double_invariants():
    md = double_abelian((2,))
    assert fs_exponent(md) == 2
    assert ndim(md) == 4
    assert anomaly(md) == RootOfUnity.one()


def test_gauss_sums():
    md = ising(1, 1)
    plus = gauss_sum(md)
    minus = gauss_sum(md, sign=-1)
    assert plus == rational(2) * root_of_unity(16, 1)
    assert minus == plus.conj()
    assert plus * minus == global_dim(md)
    assert gauss_sum(pointed_c5()) * gauss_sum(pointed_c5(), -1) == rational(5)
    with pytest.raises(ValueError):
        gauss_sum(md, sign=2)


def test_normalized_t_order_frozen_values():
    cases = [
        (ising(1, 1), RootOfUnity.make(16, 11), 16),
        (fibonacci(1), RootOfUnity.make(20, 11), 20),
        (so5_level9(1), RootOfUnity.make(9, 2), 9),
        (pointed_c5(), RootOfUnity.one(), 5),
        (pointed_c3(), RootOfUnity.make(4, 3), 12),
        (double_abelian((2,)), RootOfUnity.one(), 2),
    ]
    for md, want_gamma, want_nt in cases:
        gamma, nt = normalized_t_order(md)
        assert gamma == want_gamma, md.name
        assert nt == want_nt, md.name


def test_normalized_t_by_hand():
    # gamma = z20^11 and T = (1, z5^2) = (1, z20^8), so T * gamma is
    # (z20^11, z20^19)
    gamma, t19 = RootOfUnity.make(20, 11), RootOfUnity.make(20, 19)
    assert normalized_t(fibonacci(1)) == (gamma, (gamma, t19))
    # T * gamma^(-1) would give u0 to u2 orders 1 or 3; T * gamma gives 9
    assert all(t.order == 9 for t in normalized_t(so5_level9(1))[1])


def test_normalized_t_order_divisibility():
    for md in (ising(1, 1), ising(3, -1), fibonacci(2), so5_level9(2),
               pointed_c3(), double_abelian((3,))):
        _, nt = normalized_t_order(md)
        fs = fs_exponent(md)
        assert nt % fs == 0
        assert (12 * fs) % nt == 0


def test_anomaly_cubed_is_gauss_ratio():
    # gamma^3 recovers tau+ / sqrt(D): its square is the anomaly
    for md in (ising(1, 1), fibonacci(1), pointed_c3()):
        gamma, _ = normalized_t_order(md)
        xi = anomaly(md)
        assert gamma ** 6 == xi
        g3 = (gamma ** 3).to_cyc()
        D = global_dim(md)
        assert g3 * g3 * D == gauss_sum(md) * gauss_sum(md)


def test_fpdim_and_pseudounitarity():
    total, pu = fpdim_pseudounitary(ising(1, 1))
    assert abs(total - 4.0) < 1e-9
    assert pu
    total, pu = fpdim_pseudounitary(fibonacci(1))
    assert abs(total - 3.6180339887498949) < 1e-9
    assert pu
    total, pu = fpdim_pseudounitary(fibonacci(2))
    assert abs(total - 3.6180339887498949) < 1e-9
    assert not pu
    total, pu = fpdim_pseudounitary(so5_level9(1))
    assert abs(total - 74.61773432443181) < 1e-6
    assert not pu


def fp_total_reference(N):
    """Sum over x of the top eigenvalue of N_x N_x^T, by power iteration in
    plain floats; an independent reference for the FP dimension."""
    r = len(N)
    total = 0.0
    for x in range(r):
        M = [[N[x][y][z] for y in range(r)] for z in range(r)]
        A = [[sum(map(operator.mul, a, b)) for b in M] for a in M]
        v, lam = [1.0] * r, 0.0
        for _ in range(10000):
            w = [sum(map(operator.mul, row, v)) for row in A]
            prev, lam = lam, max(w)
            v = [t / lam for t in w]
            if abs(lam - prev) <= 1e-14 * lam:
                break
        else:
            raise AssertionError("power iteration did not converge")
        total += lam
    return total


def test_fpdim_matches_power_iteration_reference():
    cases = [(builtin(name), _verlinde_exact(builtin(name)).N) for name in builtin_names()]
    # the exact formula at rank 36 takes seconds, so the product tables are
    # Kronecker products of the factors' exact tables
    for a, b in ((ising(1, 1), fibonacci(1)), (so5_level9(1), so5_level9(2))):
        table = kron_table(_verlinde_exact(a).N, _verlinde_exact(b).N)
        cases.append((deligne_product(a, b), table))
    # a semion whose nontrivial object has dimension -1: the FP column is
    # that of s, where S[0][s] = -1
    one = rational(1)
    semion = ModularDatum(("1", "s"), ((one, -one), (-one, -one)),
                          (RootOfUnity.one(), RootOfUnity.make(4, 1)), name="semion-minus")
    cases.append((semion, _verlinde_exact(semion).N))
    for md, N in cases:
        assert verlinde_fusion(md).N == N, md.name
        total, pu = fpdim_pseudounitary(md)
        ref = fp_total_reference(N)
        assert abs(total - ref) <= 1e-9 * ref, md.name
        D = complex(global_dim(md).embed()).real
        assert pu == (abs(ref - D) < 1e-9), md.name


# -------------------------------------------------------------- verify


def test_verify_passes_on_known_data():
    for md in (ising(1, 1), ising(5, -1), fibonacci(1), fibonacci(3),
               so5_level9(1), pointed_c3(), pointed_c5(),
               double_abelian((2,)), double_abelian((3,))):
        report = verify(md)
        assert report.ok, (md.name, report.failures)
        names = {c.name for c in report.checks}
        assert names == {
            "s-symmetric",
            "s-unitary-scale",
            "charge-conjugation",
            "verlinde-integrality",
            "duality-match",
            "balancing",
            "gauss-sum-modulus",
            "t-finite-order",
        }


def test_verify_catches_wrong_twist():
    md = ising(1, 1)
    bad_T = (md.T[0], RootOfUnity.one(), md.T[2])
    bad = ModularDatum(md.labels, md.S, bad_T, name="broken")
    report = verify(bad)
    assert not report.ok
    failed = {c.name for c in report.failures}
    assert failed == {"balancing", "gauss-sum-modulus"}


def test_verify_accepts_sibling_twist():
    # replacing the spin twist with another primitive 16th root lands on
    # a different member of the same family, so every check still passes
    md = ising(1, 1)
    sibling_T = (md.T[0], md.T[1], RootOfUnity.make(16, 3))
    sibling = ModularDatum(md.labels, md.S, sibling_T, name="sibling")
    assert verify(sibling).ok


def test_charge_check_rejects_sign_flipped_unitary_s():
    # E S E with E = diag(1, -1, 1) is still symmetric and unitary, but the
    # conjugate of column g1 is no longer a column, so S^2 != D C
    md = pointed_c3()
    E = [-1 if lab == "g1" else 1 for lab in md.labels]
    S = [[e * E[i] * E[j] for j, e in enumerate(row)] for i, row in enumerate(md.S)]
    checks = {c.name: c for c in verify(ModularDatum(md.labels, S, md.T)).checks}
    assert checks["s-symmetric"].passed
    assert checks["s-unitary-scale"].passed
    assert not checks["charge-conjugation"].passed
    assert checks["charge-conjugation"].witness


def test_verify_catches_degenerate_s():
    one = rational(1)
    S = ((one, one), (one, one))
    T = (RootOfUnity.one(), RootOfUnity.make(2, 1))
    md = ModularDatum(("1", "x"), S, T, name="degenerate")
    report = verify(md)
    assert not report.ok


# -------------------------------------------------------------- fusion


def test_ising_fusion_rules():
    ft = verlinde_fusion(ising(1, 1))
    i, p, s = (ft.labels.index(x) for x in ("1", "psi", "sigma"))
    assert ft.N[p][p][i] == 1 and sum(ft.N[p][p]) == 1
    assert ft.N[s][s][i] == 1 and ft.N[s][s][p] == 1 and sum(ft.N[s][s]) == 2
    assert ft.N[p][s][s] == 1 and sum(ft.N[p][s]) == 1
    assert ft.duals == (i, p, s)


def test_fibonacci_fusion_rules():
    ft = verlinde_fusion(fibonacci(1))
    i, t = (ft.labels.index(x) for x in ft.labels)
    assert ft.N[t][t][i] == 1 and ft.N[t][t][t] == 1


def test_pointed_fusion_is_group_law():
    ft = verlinde_fusion(pointed_c5())
    r = len(ft.labels)
    for x in range(r):
        for y in range(r):
            hits = [z for z in range(r) if ft.N[x][y][z]]
            assert len(hits) == 1
            assert ft.N[x][y][hits[0]] == 1
    # duals invert the group
    assert ft.duals[0] == 0
    for x in range(1, r):
        hit = [z for z in range(r) if ft.N[x][ft.duals[x]][z]]
        assert hit == [0]


def test_verlinde_rejects_non_modular():
    one = rational(1)
    S = ((one, one), (one, rational(-1)))
    T = (RootOfUnity.one(), RootOfUnity.one())
    md = ModularDatum(("1", "x"), S, T, name="not-modular")
    # S here is a character table with a non-integral Verlinde output
    # only if scaled badly; this one is fine, so perturb instead
    S2 = ((one, one), (one, rational(Fraction(1, 2))))
    md2 = ModularDatum(("1", "x"), S2, T, name="bad")
    with pytest.raises(NotModularError):
        verlinde_fusion(md2)


# fusion tables pinned by hand, objects in construction order
ISING_TABLE = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 0, 1), (1, 1, 0)),
)
FIB_TABLE = (((1, 0), (0, 1)), ((0, 1), (1, 1)))


def group_table(orders):
    elems = list(itertools.product(*(range(n) for n in orders)))
    return tuple(
        tuple(
            tuple(int(z == tuple((a + b) % n for a, b, n in zip(g, h, orders)))
                  for z in elems)
            for h in elems
        )
        for g in elems
    )


def kron_table(a, b):
    ra, rb = len(a), len(b)
    return tuple(
        tuple(
            tuple(a[xa][ya][za] * b[xb][yb][zb] for za in range(ra) for zb in range(rb))
            for ya in range(ra) for yb in range(rb)
        )
        for xa in range(ra) for xb in range(rb)
    )


def pinned_table(name):
    if name.startswith("ising-"):
        return ISING_TABLE
    if name.startswith("fibonacci-"):
        return FIB_TABLE
    if name.startswith("pointed-c"):
        return group_table((int(name[len("pointed-c"):]),))
    if name.startswith("double-c"):
        n = int(name[len("double-c"):])
        return group_table((n, n))
    return None  # so5level9 has no hand-written table


def test_certified_verlinde_matches_exact_formula():
    cases = [(builtin(name), pinned_table(name)) for name in builtin_names()]
    cases += [
        (deligne_product(ising(3, -1), fibonacci(2)), kron_table(ISING_TABLE, FIB_TABLE)),
        (cyclic_metric(7, 7, lambda g: 3 * g * g, name="pointed-c7"), group_table((7,))),
        (double_abelian((3,)), group_table((3, 3))),
    ]
    for md, pinned in cases:
        # the certified path is the one taken, not the fallback
        assert _verlinde_certified(md, _verlinde_float(md)), md.name
        N = verlinde_fusion(md).N
        assert N == _verlinde_exact(md).N, md.name
        if pinned is not None:
            assert N == pinned, md.name


def test_verlinde_certificate_rejects_a_wrong_float(monkeypatch):
    real = modular._verlinde_float
    calls = []

    def off_by_one(md):
        planes = real(md)
        row = list(planes[3][3])
        row[0] += 1
        planes[3][3] = tuple(row)
        calls.append(md)
        return planes

    monkeypatch.setattr(modular, "_verlinde_float", off_by_one)
    md = so5_level9(1)
    ft = verlinde_fusion(md)
    assert len(calls) == 1
    assert ft.N == _verlinde_exact(md).N
    assert ft.N[3][3][0] == 1


def test_verify_reports_perturbed_s_entry():
    md = so5_level9(1)
    S = [list(row) for row in md.S]
    S[3][4] = S[4][3] = S[3][4] + 1
    bad = ModularDatum(md.labels, S, md.T, name="perturbed")
    report = verify(bad)
    failed = {c.name: c.witness for c in report.failures}
    assert {"s-unitary-scale", "verlinde-integrality"} <= set(failed)
    assert failed["s-unitary-scale"].startswith("(S Sbar)[1][u0] = ")
    assert all(failed.values())


def test_fusion_tensor_validation():
    # x (x) x = x leaves x without a dual
    with pytest.raises(DataFormatError):
        FusionTensor(("1", "x"), (((1, 0), (0, 1)), ((0, 1), (0, 1))))
    # broken unit row
    with pytest.raises(DataFormatError):
        FusionTensor(("1", "x"), (((1, 0), (1, 1)), ((1, 1), (1, 0))))


def test_subcategory_and_invertibles():
    ft = verlinde_fusion(ising(1, 1))
    assert invertibles(ft) == {"1", "psi"}
    assert subcategory_generated(ft, ("psi",)) == {"1", "psi"}
    assert subcategory_generated(ft, ("sigma",)) == {"1", "psi", "sigma"}
    assert invertibles(verlinde_fusion(fibonacci(1))) == {"1"}
    assert invertibles(verlinde_fusion(pointed_c5())) == set(pointed_c5().labels)


def test_centralizer_and_symmetric_center():
    md = ising(1, 1)
    assert centralizes(md, "psi", "psi")
    assert not centralizes(md, "psi", "sigma")
    assert centralizes(md, "1", "sigma")
    assert symmetric_center(md) == {"1"}
    assert symmetric_center(pointed_c5()) == {"1"}


# ---------------------------------------------------------- data_equal


def test_data_equal():
    assert data_equal(ising(1, 1), ising(1, 1))
    assert not data_equal(ising(1, 1), ising(3, 1))
    assert not data_equal(ising(1, 1), ising(1, -1))
    assert not data_equal(ising(1, 1), fibonacci(1))
    assert data_equal(fibonacci(2), fibonacci(7))
