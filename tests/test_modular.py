"""Modular data container, verification checks, Verlinde fusion, and the
scalar invariants built from S and T."""

import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from mdtk import modular
from mdtk.catalog_cli import builtin, builtin_names
from mdtk.cyclo import Cyc, ResidueMap, RootOfUnity, cyclotomic_poly, euler_phi, rational, root_of_unity
from mdtk.construct import (
    MetricGroup,
    deligne_product,
    double_abelian,
    fibonacci,
    ising,
    pointed,
    so5_level9,
)
from mdtk.galois import verify_galois_identities
from mdtk.modular import (
    _balancing_witness,
    _charge_conjugation,
    _entries,
    _integral_s,
    _pair_ring,
    _unitarity_witness,
    _verlinde_certified,
    _verlinde_candidates,
    _verlinde_exact,
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
from test_galois import _seeded_data


def cyclic_metric(n, mod, f, name=None):
    q = tuple(RootOfUnity.make(mod, f(g) % mod) for g in range(n))
    return pointed(MetricGroup((n,), q), name=name)


def pointed_c3():
    return cyclic_metric(3, 3, lambda g: g * g, name="pointed-c3")


def pointed_c5():
    return cyclic_metric(5, 5, lambda g: g * g, name="pointed-c5")


def simple_products(md):
    """planes[x][y] for y <= x: the unit vector e_z when x tensor y = z is
    decided by the match over the whole datum, else None.  S must be
    unitary with no S[0][c] zero (see `verlinde_fusion`)."""
    r = md.rank
    planes = [[None] * (x + 1) for x in range(r)]
    modular._match(md, planes, range(r), modular._unit_rows(r))
    return planes


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
    with pytest.raises(DataFormatError) as err:
        ModularDatum(("1", "x"), ((one, one), (rational(2), one)),
                     (RootOfUnity.one(), RootOfUnity.one()))
    assert str(err.value) == "S is not symmetric at (1, x)"
    # mirrors that are equal values but distinct objects, one of them at a
    # larger conductor, are compared by value
    r2 = root_of_unity(8, 1) + root_of_unity(8, 7)
    twin = root_of_unity(8, 1) + root_of_unity(8, 7)
    wide = twin.lift(24)
    assert r2 is not twin and wide.n == 24
    ones = (RootOfUnity.one(),) * 3
    md = ModularDatum(("1", "x", "y"), ((one, r2, one), (twin, one, r2), (rational(1), wide, one)), ones)
    assert md.S[1][0] is twin and md.S[2][1] is wide
    with pytest.raises(DataFormatError) as err:
        ModularDatum(("1", "x", "y"), ((one, r2, one), (twin, one, r2), (one, -wide, one)), ones)
    assert str(err.value) == "S is not symmetric at (x, y)"


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
        assert _verlinde_certified(md, candidate_rows(md), range(md.rank)), md.name
        N = verlinde_fusion(md).N
        assert N == _verlinde_exact(md).N, md.name
        if pinned is not None:
            assert N == pinned, md.name


def test_verlinde_certificate_rejects_a_wrong_candidate(monkeypatch):
    real = modular._verlinde_candidates
    calls = []

    def off_by_one(md, *args):
        rows = real(md, *args)
        row = list(rows[3, 3])
        row[0] += 1
        rows[3, 3] = tuple(row)
        calls.append(md)
        return rows

    monkeypatch.setattr(modular, "_verlinde_candidates", off_by_one)
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


# ------------------------------------- field references for the Z/m checks


def reference_unitarity(md):
    """The first entry of S Sbar^T in row-major order that differs from D I,
    computed in the field over the whole matrix, or ""."""
    r, S, D = md.rank, md.S, global_dim(md)
    for i in range(r):
        for j in range(r):
            acc = rational(0)
            for k in range(r):
                acc = acc + S[i][k] * S[j][k].conj()
            if acc != (D if i == j else 0):
                return f"(S Sbar)[{md.labels[i]}][{md.labels[j]}] = {acc}"
    return ""


def reference_balancing(md, N):
    """The first (x, y), y >= x, where theta_x theta_y S[x][y] differs from
    sum_z N[x][y][z] dim(z) theta_z in the field, or ""."""
    r, S, d = md.rank, md.S, dims(md)
    theta = [t.inverse().to_cyc() for t in md.T]
    for x in range(r):
        for y in range(x, r):
            rhs = rational(0)
            for z in range(r):
                if N[x][y][z]:
                    rhs = rhs + N[x][y][z] * d[z] * theta[z]
            if theta[x] * theta[y] * S[x][y] != rhs:
                return f"balancing fails at ({md.labels[x]}, {md.labels[y]})"
    return ""


def all_pairs(md):
    return [(x, y) for x in range(md.rank) for y in range(x + 1)]


def candidate_rows(md, planes=None):
    """The candidate values of N[x][y] for the pairs y <= x left open in
    planes, all of them by default, with the duals of the charge
    conjugation; None when S has no charge conjugation, S is not integral
    or some D S[0][c] is 0 mod p."""
    duals = _charge_conjugation(md)[0]
    if planes is None:
        planes = [[None] * (x + 1) for x in range(md.rank)]
    return None if duals is None else _verlinde_candidates(md, planes, duals, range(md.rank))


def complete(rows):
    """The full table from rows[x, y] for every y <= x."""
    r = max(x for x, _ in rows) + 1
    return tuple(tuple(rows[max(x, y), min(x, y)] for y in range(r)) for x in range(r))


def sign_flipped(md, x):
    """E S E with E = diag(1, ..., -1 at x, ..., 1), and the same T."""
    E = [-1 if i == x else 1 for i in range(md.rank)]
    S = [[e * E[i] * E[j] for j, e in enumerate(row)] for i, row in enumerate(md.S)]
    return ModularDatum(md.labels, S, md.T, name=f"{md.name}~flipped")


def reference_charge(md):
    """The witness of the first column whose conjugate is no column of S,
    matched entry by entry with `Cyc.__eq__`, or ""."""
    r, S = md.rank, md.S
    for j in range(r):
        conj = [S[x][j].conj() for x in range(r)]
        if not any(all(S[x][z] == conj[x] for x in range(r)) for z in range(r)):
            return f"the conjugate of column {md.labels[j]} is not a column of S"
    return ""


def test_verify_decisions_match_field_references():
    failing = unitary_bad = balancing_bad = certified = charge_bad = 0
    for md in _seeded_data(20241102, 120):
        checks = {c.name: c for c in verify(md).checks}
        failing += not all(c.passed for c in checks.values())
        try:
            global_dim(md)
        except NotModularError:
            continue
        want = reference_unitarity(md)
        unitary_bad += bool(want)
        got = checks["s-unitary-scale"]
        assert (got.passed, got.witness) == (not want, want), md.name
        if not want:
            # flipping the sign of a row and column keeps S symmetric and
            # unitary, and breaks charge conjugation when the object is not
            # self-dual
            for datum in (md, sign_flipped(md, md.rank - 1)):
                cwant = reference_charge(datum)
                charge_bad += bool(cwant)
                got = {c.name: c for c in verify(datum).checks}["charge-conjugation"]
                assert (got.passed, got.witness) == (not cwant, cwant), md.name
        rows = None
        if not want and all(not e.is_zero() for e in md.S[0]):
            rows = candidate_rows(md)
        if rows is not None:
            try:
                exact = _verlinde_exact(md).N
            except NotModularError:
                exact = None
            assert _verlinde_certified(md, rows, range(md.rank)) == (exact == complete(rows)), md.name
            certified += 1
        try:
            N = verlinde_fusion(md).N
        except (NotModularError, DataFormatError):
            assert checks["balancing"].witness == "fusion rules unavailable"
            continue
        want = reference_balancing(md, N)
        balancing_bad += bool(want)
        got = checks["balancing"]
        assert (got.passed, got.witness) == (not want, want), md.name
    assert failing >= 50 and unitary_bad >= 20 and balancing_bad >= 20, (
        failing, unitary_bad, balancing_bad)
    assert charge_bad >= 10, charge_bad
    assert certified >= 119, certified


def planted_data():
    c27 = pointed(MetricGroup.generator_form((27,), (2,)), name="pointed-c27")
    c9 = pointed(MetricGroup.generator_form((9,), (1,)), name="pointed-c9")
    return c27, deligne_product(ising(1, 1), c9)


@pytest.mark.parametrize("md", planted_data(), ids=lambda md: md.name or "ising*pointed-c9")
def test_planted_errors_are_caught(md):
    assert verify(md).ok
    rng = random.Random(md.rank)
    r = md.rank
    # an S entry and its mirror multiplied by zeta_3
    for _ in range(3):
        a, b = sorted((rng.randrange(1, r), rng.randrange(1, r)))
        S = [list(row) for row in md.S]
        S[a][b] = S[b][a] = S[a][b] * root_of_unity(3, 1)
        bad = ModularDatum(md.labels, S, md.T)
        want = reference_unitarity(bad)
        assert want and _unitarity_witness(bad) == want
        assert not verify(bad).ok
    # one rounded fusion multiplicity raised by 1
    rows = candidate_rows(md)
    assert _verlinde_certified(md, rows, range(r))
    for _ in range(3):
        x, z = rng.randrange(r), rng.randrange(r)
        y = rng.randrange(x + 1)
        raised = dict(rows)
        raised[x, y] = tuple(k + (i == z) for i, k in enumerate(raised[x, y]))
        assert not _verlinde_certified(md, raised, range(r))
        # a zero row sums no term, and must still be checked in every column
        zeroed = dict(rows)
        zeroed[x, y] = (0,) * r
        assert not _verlinde_certified(md, zeroed, range(r))
        N = complete(raised)
        want = reference_balancing(md, N)
        assert want == f"balancing fails at ({md.labels[y]}, {md.labels[x]})"
        assert _balancing_witness(md, N, range(r)) == want


def test_verify_makes_few_field_products(monkeypatch):
    md = deligne_product(so5_level9(1), so5_level9(2))
    real = Cyc.__mul__
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    monkeypatch.setattr(Cyc, "__rmul__", counted)
    assert verify(md).ok
    assert calls <= 10 * md.rank, calls


def test_verify_maps_each_distinct_value_once(monkeypatch):
    md = deligne_product(so5_level9(1), so5_level9(2))
    values = len(_entries(md)[0])
    calls = {"ring": 0, "fp": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(ResidueMap, "__call__", counted("ring", ResidueMap.__call__))
    monkeypatch.setattr(modular, "_fp_image", counted("fp", modular._fp_image))
    assert verify(md).ok
    # unitarity (A and conj A), the certificate and balancing, plus D
    assert calls["ring"] <= 4 * values + 2 * md.rank, calls
    assert 0 < calls["fp"] <= values + 1, calls
    assert values < md.rank ** 2 // 10


def _lifted(md, x, y):
    """md with S[x][y] and its mirror replaced by one object, the same value
    stored at twice its conductor."""
    S = [list(row) for row in md.S]
    e = S[x][y]
    S[x][y] = S[y][x] = e.lift(2 * e.n)
    return ModularDatum(md.labels, S, md.T, name=md.name)


def test_a_value_stored_at_two_conductors_gets_two_indices():
    md = deligne_product(ising(1, 1), so5_level9(2))
    mixed = _lifted(md, 1, 4)
    # the value at (1, 4) still occurs in its original form at (1, 10)
    assert mixed.S[1][4] == mixed.S[1][10] and mixed.S[1][4].n != mixed.S[1][10].n
    values, cells = _entries(md)
    mixed_values, mixed_cells = _entries(mixed)
    assert cells[1][4] == cells[1][10]
    assert mixed_cells[1][4] == mixed_cells[4][1] != mixed_cells[1][10]
    assert (len(values), len(mixed_values)) == (18, 19)
    assert [[mixed_values[c].to_json() for c in row] for row in mixed_cells] == [
        [e.to_json() for e in row] for row in mixed.S
    ]
    assert verify(mixed) == verify(md) and verify(md).ok
    assert verify_galois_identities(mixed) == verify_galois_identities(md)


def test_residue_bounds_cover_every_relation(monkeypatch):
    # each ring must be chosen for a bound at least the factor bound
    # sum ||a||_1 ||b||_1 + ||c||_1 of every relation it decides; a ring is
    # told by the function that makes it and the block or columns it serves
    made = []

    class Recorded(modular.ResidueMap):
        __slots__ = ()

        def __init__(self, conductor, bound):
            caller = sys._getframe(1)
            block = caller.f_locals.get("block", caller.f_locals.get("columns"))
            made.append((caller.f_code.co_name, None if block is None else list(block), bound))
            super().__init__(conductor, bound)

    monkeypatch.setattr(modular, "ResidueMap", Recorded)
    data = (*planted_data(), deligne_product(ising(3, -1), fibonacci(2)), so5_level9(4))
    rings, leaves = set(), 0
    for split in (False, True):
        for md in data:
            md = ModularDatum(md.labels, md.S, md.T, name=md.name)
            made.clear()
            with monkeypatch.context() as patch:
                if not split:
                    patch.setattr(modular, "_centralizer_split", lambda md, block: None)
                assert verify(md).ok
            r, S = md.rank, md.S
            L = math.lcm(*(e.den for row in S for e in row))
            A = [[sum(map(abs, e.num)) * L // e.den for e in row] for row in S]
            D = global_dim(md)
            N = verlinde_fusion(md).N
            # the pair ring matches A[x][c] A[y][c] against A[0][c] A[z][c]
            # for every x, y, z and c
            match = max(A[x][c] * A[y][c] for x in range(r) for y in range(r) for c in range(r))
            match += max(A[0][c] * A[z][c] for z in range(r) for c in range(r))
            pair = [bound for name, _, bound in made if name == "_pair_ring"]
            assert len(pair) == 1 and pair[0] >= match, md.name
            if split:
                # every ring of a block covers the block's relations; the
                # certificate decides only the pairs whose product is not
                # simple
                for name, B, bound in made:
                    if name == "_gram_miss":
                        d_b = sum(A[0][k] ** 2 for k in B)
                        want = max(sum(A[i][k] * A[j][k] for k in B) + (d_b if i == j else 0) for i in B for j in B)
                    elif name == "_verlinde_certified":
                        want = max(sum(N[x][y][z] * A[0][c] * A[z][c] for z in range(r)) + A[x][c] * A[y][c]
                                   for x in B for y in B if sum(N[x][y]) > 1 for c in B)
                    elif name == "_balancing_witness":
                        want = max(A[x][y] + sum(N[x][y][z] * A[0][z] for z in range(r)) for x in B for y in B)
                    else:
                        continue
                    assert bound >= want, (md.name, name, B)
                    leaves += len(B) < r
                continue
            unitarity = max(
                sum(A[i][k] * A[j][k] for k in range(r))
                + (sum(map(abs, D.num)) * L * L // D.den if i == j else 0)
                for i in range(r) for j in range(r)
            )
            # the certificate decides only the pairs whose product is not simple
            left = [(x, y) for x in range(r) for y in range(r) if sum(N[x][y]) > 1]
            verlinde = max(
                (sum(N[x][y][z] * A[0][c] * A[z][c] for z in range(r)) + A[x][c] * A[y][c]
                 for x, y in left for c in range(r)),
                default=0,
            )
            balancing = max(
                A[x][y] + sum(N[x][y][z] * A[0][z] for z in range(r))
                for x in range(r) for y in range(r)
            )
            # the pair ring also matches entries of L S and L conj(S)
            charge = 2 * max(map(max, A))
            bounds = [bound for _, _, bound in made]
            # no certificate ring when every product is simple
            assert len(made) == 3 + bool(left), md.name
            assert bounds[0] >= unitarity, md.name
            assert bounds[1] >= max(match, charge), md.name
            assert bounds[-1] >= balancing, md.name
            if left:
                assert bounds[2] >= verlinde, md.name
            rings.add(len(made))
    # pointed-c27 has only simple products, the others do not; ising x
    # pointed-c9 and ising x fib each have two leaves, with a unitarity and
    # a balancing ring each, and ising and fib a certificate
    assert rings == {3, 4}
    assert leaves == 2 * 2 * 2 + 2 + 1, leaves


# ------------------------------------------------ the symmetric Verlinde fill


def reference_verlinde_float(md, pairs):
    """The Verlinde formula in floating point over every z and every pair
    y <= x in pairs, one dot product per pair and z, rounded to integers as
    {(x, y): N[x][y]}; None when a value is not within 0.25 of a
    nonnegative integer or does not fit in a float."""
    zetas = {}

    def approx(e):
        zs = zetas.get(e.n)
        if zs is None:
            t = 2 * math.pi / e.n
            zs = zetas[e.n] = [
                complex(math.cos(t * k), math.sin(t * k)) for k in range(euler_phi(e.n))
            ]
        return sum(v * z for v, z in zip(e.num, zs) if v) / e.den

    r = md.rank
    try:
        S = [[approx(e) for e in row] for row in md.S]
        D = approx(global_dim(md))
        W = [[S[z][c].conjugate() / (D * S[0][c]) for c in range(r)] for z in range(r)]
        rows = {}
        for x, y in pairs:
            pxy = [a * b for a, b in zip(S[x], S[y])]
            row = []
            for w in W:
                v = sum(map(operator.mul, pxy, w))
                k = round(v.real)
                if k < 0 or not abs(v - k) <= 0.25:
                    return None
                row.append(k)
            rows[x, y] = tuple(row)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return rows


def test_symmetric_fill_matches_reference_loop():
    # pointed-c7, pointed-c27 and ising x pointed-c9 have a charge
    # conjugation that is not the identity, so the fill must apply it
    nontrivial = [cyclic_metric(7, 7, lambda g: 3 * g * g, name="pointed-c7"), *planted_data()]
    for md in nontrivial:
        assert verlinde_fusion(md).duals != tuple(range(md.rank)), md.name
    # _seeded_data starts with the builtins
    compared = 0
    for md in nontrivial + _seeded_data(20241102, 120):
        if not verify(md).ok:
            continue
        # every pair, and the pairs verlinde_fusion leaves over, whose
        # triples with a simple pair are read from the match
        planes = simple_products(md)
        left = [(x, y) for x, y in all_pairs(md) if planes[x][y] is None]
        for pairs, got in ((all_pairs(md), candidate_rows(md)), (left, candidate_rows(md, planes))):
            want = reference_verlinde_float(md, pairs)
            assert want is not None, md.name
            assert got == want, md.name
        compared += bool(left)
    assert compared >= 60, compared


def test_no_charge_conjugation_means_no_candidate_planes(monkeypatch):
    # these two unitary data have no charge conjugation, so the candidate
    # step has no duals, and pairs are left over after the match
    c3 = pointed_c3()
    g1, g2 = 1, 2
    U = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    U[g1][g1], U[g1][g2], U[g2][g1], U[g2][g2] = (
        Fraction(3, 5), Fraction(4, 5), Fraction(-4, 5), Fraction(3, 5))
    rotated = [
        [sum((rational(U[i][k] * U[j][l]) * c3.S[k][l] for k in range(3) for l in range(3)),
             rational(0)) for j in range(3)]
        for i in range(3)
    ]

    def unitary():
        return [sign_flipped(c3, g1), ModularDatum(c3.labels, rotated, c3.T, name="rotated")]

    for md in unitary():
        assert not _unitarity_witness(md), md.name
        assert _charge_conjugation(md)[0] is None, md.name
        assert any(row is None for plane in simple_products(md) for row in plane), md.name
    exact = [fusion_outcome(_verlinde_exact, md) for md in unitary()]
    reports = [str(verify(md)) for md in unitary()]

    def unreachable(*args):
        raise AssertionError("the candidate step ran without duals")

    # the candidate step is never called, and the outcome is that of the
    # exact formula
    monkeypatch.setattr(modular, "_verlinde_candidates", unreachable)
    assert [fusion_outcome(verlinde_fusion, md) for md in unitary()] == exact
    assert [str(verify(md)) for md in unitary()] == reports


# ------------------------------------------------------ the candidates in F_p


def candidate_data():
    """The data of _seeded_data(20261019, 120) that pass unitarity and
    charge conjugation and have no S[0][c] zero: the candidate step runs
    on every one of them, and each has a fusion table."""
    out = []
    for md in _seeded_data(20261019, 120):
        try:
            global_dim(md)
        except NotModularError:
            continue
        if any(e.is_zero() for e in md.S[0]) or _unitarity_witness(md):
            continue
        if _charge_conjugation(md)[0] is not None:
            out.append(md)
    return out


def kronecker_data():
    """so5 x so5 and ising x fib x so5, rank 36, with their fusion tables
    from the factors."""
    so5_1, so5_2 = so5_level9(1), so5_level9(2)
    triple = deligne_product(deligne_product(ising(3, -1), fibonacci(2)), so5_1)
    return [
        (deligne_product(so5_1, so5_2), kron_table(_verlinde_exact(so5_1).N, _verlinde_exact(so5_2).N)),
        (triple, kron_table(kron_table(ISING_TABLE, FIB_TABLE), _verlinde_exact(so5_1).N)),
    ]


def test_candidate_prime_gives_a_root_of_phi_n():
    for N in (1, 2, 5, 8, 9, 40, 360, 720, 960, 8640):
        p, z = modular._candidate_prime(N)
        assert p < 2**30 and (p - 1) % N == 0, N
        assert all(p % q for q in range(2, math.isqrt(p) + 1)), N
        # no larger prime below 2^30 is 1 mod N
        for q in range(p + N, 2**30, N):
            assert any(q % f == 0 for f in range(2, math.isqrt(q) + 1)), (N, q)
        assert pow(z, N, p) == 1 and all(pow(z, k, p) != 1 for k in range(1, N)), N
        phi = cyclotomic_poly(N)
        assert sum(c * pow(z, i, p) for i, c in enumerate(phi)) % p == 0, N


def test_candidate_prime_is_searched_once_per_s_conductor(monkeypatch):
    # ising-1-p and ising-3-p differ in T and share the S conductor 8; both
    # leave sigma x sigma = 1 + psi to the candidates
    a, b = ising(1, 1), ising(3, 1)
    assert modular._s_conductor(a) == modular._s_conductor(b) == 8
    modular._candidate_prime.cache_clear()
    warm = [candidate_rows(a), candidate_rows(b)]
    assert verify(ising(1, 1)).ok and verify(ising(3, 1)).ok
    info = modular._candidate_prime.cache_info()
    assert (info.misses, info.hits) == (1, 3), info
    # the rows are those of a search run afresh for each datum
    monkeypatch.setattr(modular, "_candidate_prime", modular._candidate_prime.__wrapped__)
    assert [candidate_rows(a), candidate_rows(b)] == warm


def test_candidate_rows_equal_the_exact_formula():
    data = candidate_data()
    assert len(data) >= 100, len(data)
    for md in data:
        assert complete(candidate_rows(md)) == _verlinde_exact(md).N, md.name
    for md, table in kronecker_data():
        assert complete(candidate_rows(md)) == table, md.name


def test_valid_data_never_reach_the_exact_formula(monkeypatch):
    cases = [(md, _verlinde_exact(md).N) for md in candidate_data()] + kronecker_data()
    calls = []
    monkeypatch.setattr(modular, "_verlinde_exact", calls.append)
    for md, want in cases:
        # a fresh datum, so that no fusion tensor is kept on it yet
        fresh = ModularDatum(md.labels, md.S, md.T, name=md.name)
        assert verlinde_fusion(fresh).N == want, md.name
    assert calls == []


def test_no_candidates_for_a_non_integral_s():
    # halving the entry of tau at tau leaves S symmetric and S[0] as it is;
    # a fusion table needs an integral S, so the exact formula must raise
    fib = fibonacci(1)
    S = [list(row) for row in fib.S]
    S[1][1] = S[1][1] * rational(Fraction(1, 2))
    md = ModularDatum(fib.labels, S, fib.T)
    with pytest.raises(NotModularError):
        _verlinde_exact(md)
    assert _verlinde_candidates(md, [[None], [None, None]], (0, 1), range(2)) is None


def test_a_weight_zero_mod_p_falls_back_to_the_exact_formula(monkeypatch):
    md = deligne_product(fibonacci(1), fibonacci(2))
    assert any(None in plane for plane in simple_products(md))
    want = _verlinde_exact(md).N

    def five(N):
        # zeta_5 -> 1 is a ring map Z[zeta_5] -> F_5, since Phi_5(1) = 5;
        # it sends sqrt(5), and with it D, to 0
        assert N == 5
        return 5, 1

    monkeypatch.setattr(modular, "_candidate_prime", five)
    assert candidate_rows(md) is None
    real, calls = modular._verlinde_exact, []
    monkeypatch.setattr(modular, "_verlinde_exact", lambda md: calls.append(md) or real(md))
    assert verlinde_fusion(md).N == want
    assert calls == [md]


# --------------------------------------------------- the simple-product match


def match_data():
    """Data of rank 27 to 81 with their fusion tables from the group law or
    from the exact tensors of the factors, which the exact formula equals:
    it takes minutes at rank 81, so it is not run on them here."""
    c3_4 = pointed(MetricGroup.generator_form((3, 3, 3, 3), (1, 1, 1, 1)), name="pointed-c3^4")
    c27, ising_c9 = planted_data()
    so5_so5 = deligne_product(so5_level9(1), so5_level9(2))
    return [
        (c3_4, group_table((3, 3, 3, 3))),
        (c27, group_table((27,))),
        (ising_c9, kron_table(ISING_TABLE, group_table((9,)))),
        (so5_so5, kron_table(_verlinde_exact(so5_level9(1)).N, _verlinde_exact(so5_level9(2)).N)),
    ]


def fusion_outcome(fn, md):
    try:
        return fn(md).N
    except (NotModularError, DataFormatError) as e:
        return type(e), str(e)


def test_match_first_verlinde_equals_the_exact_formula():
    for md, table in match_data():
        assert verlinde_fusion(md).N == table, md.name
    # _seeded_data starts with the builtins; the failing mutations must
    # raise what the exact formula raises
    valid = 0
    for md in _seeded_data(20261019, 120):
        want = fusion_outcome(_verlinde_exact, md)
        assert fusion_outcome(verlinde_fusion, md) == want, md.name
        valid += not isinstance(want[0], type)
    assert valid >= 60, valid


def test_match_ring_bound_covers_the_simple_products():
    data = [md for md, _ in match_data()] + _seeded_data(20261019, 40)
    for md in data:
        try:
            global_dim(md)
        except NotModularError:
            continue
        norms = _integral_s(md)[2]
        top = max(map(max, norms))
        # a ring for bound B keeps bits = (B + 1).bit_length(), so
        # 2^bits > B; the bound must be at least 2 top^2
        ring = _pair_ring(md)[0]
        assert ring.bits >= (2 * top * top + 1).bit_length(), md.name
        assert ring.modulus > (2 * top * top) ** euler_phi(ring.conductor), md.name


def simple_count(md):
    return sum(row is not None for plane in simple_products(md) for row in plane)


def test_every_pair_matches_on_pointed_data():
    pointed_data = [builtin(n) for n in builtin_names() if n.startswith(("pointed-", "double-"))]
    pointed_data += [md for md, _ in match_data()[:2]]
    for md in pointed_data:
        assert verify(md).ok, md.name
        assert simple_count(md) == md.rank * (md.rank + 1) // 2, md.name


def test_ising_squared_matches_34_of_45_pairs():
    # (a, b) x (a', b') is simple unless a = a' = sigma or b = b' = sigma,
    # which rules out 6 + 6 - 1 = 11 of the 45 pairs
    md = deligne_product(ising(1, 1), ising(3, -1))
    assert md.rank * (md.rank + 1) // 2 == 45
    assert simple_count(md) == 34
    planes = simple_products(md)
    for x in range(md.rank):
        for y in range(x + 1):
            a, b = md.labels[x][1:-1].split(","), md.labels[y][1:-1].split(",")
            both = a[0] == b[0] == "sigma" or a[1] == b[1] == "sigma"
            assert (planes[x][y] is None) == both, (md.labels[x], md.labels[y])


def test_builtin_mutations_fail_with_the_reference_witness():
    for name in builtin_names():
        md = builtin(name)
        r, N = md.rank, verlinde_fusion(md).N
        # one T exponent shifted by one step of zeta_FSexp either way:
        # balancing must decide as the field reference does, and fail for
        # some shift (one step can land on a valid datum, as fibonacci-1
        # does on its complex conjugate)
        caught = 0
        for x in range(1, r):
            for k in (1, -1):
                T = list(md.T)
                T[x] = T[x] * RootOfUnity.make(fs_exponent(md), k % fs_exponent(md))
                bad = ModularDatum(md.labels, md.S, T)
                got = {c.name: c for c in verify(bad).checks}["balancing"]
                want = reference_balancing(bad, N)
                assert (got.passed, got.witness) == (not want, want), (name, x, k)
                caught += bool(want)
        assert caught, name
        # a symmetric change to S off the unit row breaks S Sbar = D I;
        # Verlinde falls back to the exact formula and reports its outcome
        S = [list(row) for row in md.S]
        S[1][r - 1] = S[1][r - 1] + 1
        S[r - 1][1] = S[1][r - 1]
        bad = ModularDatum(md.labels, S, md.T)
        checks = {c.name: c for c in verify(bad).checks}
        want = reference_unitarity(bad)
        assert want.startswith("(S Sbar)[")
        assert checks["s-unitary-scale"].witness == want, name
        exact = fusion_outcome(_verlinde_exact, bad)
        integral = checks["verlinde-integrality"]
        assert integral.passed == (not isinstance(exact[0], type)), name
        if not integral.passed:
            assert integral.witness == exact[1], name


def test_gauss_sum_is_evaluated_once_per_sign(monkeypatch):
    md = deligne_product(ising(1, 1), pointed_c5())
    real = RootOfUnity.__pow__
    exponents = []

    def counted(t, e):
        exponents.append(e)
        return real(t, e)

    monkeypatch.setattr(RootOfUnity, "__pow__", counted)
    verify(md)
    normalized_t_order(md)
    # an evaluation of gauss_sum(md, sign) raises every T entry to -sign
    assert exponents.count(-1) == md.rank
    assert exponents.count(1) == 0
    assert gauss_sum(md, sign=1) is gauss_sum(md) is gauss_sum(md, 1)
    assert exponents.count(-1) == md.rank


# ------------------------------------------- fusion through tensor factors


def triple_products():
    """fib x so5 x so5 and so5 x so5 x ising with their tables from the
    factors' exact tables, in Kronecker order; `kronecker_data` holds an
    ising x fib x so5."""
    so5_1, so5_2 = so5_level9(1), so5_level9(2)
    so5_1_N, so5_2_N = _verlinde_exact(so5_1).N, _verlinde_exact(so5_2).N
    return [
        (deligne_product(deligne_product(fibonacci(1), so5_1), so5_2), kron_table(kron_table(FIB_TABLE, so5_1_N), so5_2_N)),
        (deligne_product(deligne_product(so5_1, so5_2), ising(1, 1)), kron_table(kron_table(so5_1_N, so5_2_N), ISING_TABLE)),
    ]


def test_factored_verlinde_equals_the_factors_tables():
    names = builtin_names()
    exact = {name: _verlinde_exact(builtin(name)).N for name in names}
    for i, a in enumerate(names):
        for b in names[i:]:
            md = deligne_product(builtin(a), builtin(b))
            assert verlinde_fusion(md).N == kron_table(exact[a], exact[b]), (a, b)
    for md, table in triple_products() + kronecker_data()[1:]:
        assert verlinde_fusion(md).N == table, md.name


def relabelled(md, perm):
    """md with object i renamed to object perm[i]; perm must fix 0."""
    r = range(md.rank)
    S = [[md.S[perm[i]][perm[j]] for j in r] for i in r]
    return ModularDatum([md.labels[p] for p in perm], S, [md.T[p] for p in perm])


def test_factored_verlinde_under_relabelling():
    so5_1 = so5_level9(1)
    # so5 x ising, so5 x so5 and ising x fib x so5
    products = [(deligne_product(so5_1, ising(3, -1)), kron_table(_verlinde_exact(so5_1).N, ISING_TABLE))]
    products += kronecker_data()
    for seed in range(15):
        md, table = products[seed % len(products)]
        perm = [0] + random.Random(seed).sample(range(1, md.rank), md.rank - 1)
        want = tuple(tuple(tuple(table[x][y][z] for z in perm) for y in perm) for x in perm)
        assert verlinde_fusion(relabelled(md, perm)).N == want, (md.name, seed)


def recorded_candidates(monkeypatch):
    """Patch the candidate step to record, call by call, the pairs it
    returns values for."""
    real = modular._verlinde_candidates
    calls = []

    def recorded(*args):
        rows = real(*args)
        calls.append(list(rows or ()))
        return rows

    monkeypatch.setattr(modular, "_verlinde_candidates", recorded)
    return calls


def test_candidate_step_sees_only_pairs_inside_a_prime_factor(monkeypatch):
    calls = recorded_candidates(monkeypatch)
    so5_so5 = deligne_product(so5_level9(1), so5_level9(2))
    triple = deligne_product(so5_so5, ising(1, 1))
    # in so5 x pointed-c9, the centralizer of (a, g), g of order 9, is
    # {1, a, b} x {0}, smaller than 1 x pointed-c9 and no factor
    so5_c9 = deligne_product(so5_level9(1), builtin("pointed-c9"))
    # deligne_product numbers (a, b) as a * rank(b) + b, so the objects of
    # a prime factor are those with every other coordinate 0
    for md, radices in ((so5_so5, (6, 6)), (triple, (6, 6, 3)), (so5_c9, (6, 9))):
        calls.clear()
        assert verify(md).ok
        pairs = [pair for call in calls for pair in call]
        strides = [math.prod(radices[k + 1:]) for k in range(len(radices))]
        factors = [{i * s for i in range(n)} for n, s in zip(radices, strides)]
        assert pairs and all(any({x, y} <= f for f in factors) for x, y in pairs), md.name
        # each so5 factor has 21 pairs y <= x, ising 6 and pointed-c9 none
        # left over
        assert len(pairs) <= 21 * radices.count(6) + 6 * radices.count(3), (md.name, len(pairs))


@pytest.mark.parametrize(
    "second, table, proposal",
    [
        (lambda: so5_level9(1), lambda: _verlinde_exact(so5_level9(1)).N, "shifted"),
        (pointed_c3, lambda: group_table((3,)), "shifted"),
        (pointed_c3, lambda: group_table((3,)), "squared"),
        (lambda: so5_level9(1), lambda: _verlinde_exact(so5_level9(1)).N, "halved"),
    ],
    ids=["ising*so5level9-1-shifted", "ising*pointed-c3-shifted", "ising*pointed-c3-squared",
         "ising*so5level9-1-halved"],
)
def test_a_wrong_split_is_rejected(monkeypatch, second, table, proposal):
    md = deligne_product(ising(1, 1), second())
    want = kron_table(ISING_TABLE, table())
    report = verify(deligne_product(ising(1, 1), second()))
    real = modular._centralizer_split
    blocks = []
    # deligne_product numbers (a, b) as a * rank(b) + b
    n = md.rank // 3
    ising_part, other, psi = [0, n, 2 * n], list(range(n)), n

    def wrong(md, block):
        """A wrong split of the whole datum; sub-blocks get the real split.
        "shifted" multiplies each non-unit object of the second factor by
        the invertible (psi, 1): the ising factor times it still maps one
        to one onto the objects, by simple products, but (sigma, 1) does
        not centralize it.  "squared" proposes the second factor twice,
        which does not centralize itself.  "halved" proposes {1, psi}
        with the second factor: they centralize each other, but their
        products miss the objects (sigma, b)."""
        blocks.append(len(block))
        if len(block) < md.rank:
            return real(md, block)
        if proposal == "squared":
            return other, other
        if proposal == "halved":
            return [0, psi], other
        return ising_part, [0] + sorted(want[psi][v].index(1) for v in other[1:])

    monkeypatch.setattr(modular, "_centralizer_split", wrong)
    assert verlinde_fusion(md).N == want
    assert verify(md) == report
    # `_product_table` rejects each proposal at the top, before any factor
    # is searched, and the whole datum is one leaf
    assert blocks == [md.rank]
    assert not modular._split_tree(md).parts


def test_block_candidates_are_zero_outside_the_block():
    # in pointed-c3 x fib, x = (g, tau) with g not 0 is not self-dual; the
    # block {1, x} is not closed under duals, and x tensor x = (g^2, 1) +
    # (g^2, tau) lies outside it
    md = deligne_product(pointed_c3(), fibonacci(1))
    planes = simple_products(md)
    duals = _charge_conjugation(md)[0]
    x = next(x for x in range(md.rank) if duals[x] != x and planes[x][x] is None)
    rows = _verlinde_candidates(md, planes, duals, [0, x])
    assert list(rows) == [(x, x)] and rows[x, x] == (0,) * md.rank
    assert sum(verlinde_fusion(md).N[x][x]) == 2
    assert not _verlinde_certified(md, rows, range(md.rank))


def changed_pair(md, a, b):
    S = [list(row) for row in md.S]
    S[a][b] = S[b][a] = S[a][b] + 1
    return ModularDatum(md.labels, S, md.T, name=f"{md.name}~changed")


def twisted_column(md, c, k):
    """md with column c and row c of S moved by sigma_k."""
    S = [list(row) for row in md.S]
    for x in range(md.rank):
        S[x][c] = S[c][x] = md.S[x][c].galois(k)
    return ModularDatum(md.labels, S, md.T, name=f"{md.name}~twisted")


BROKEN_S = ["s-unitary-scale", "charge-conjugation", "verlinde-integrality", "duality-match", "balancing"]
PRODUCT_MUTATIONS = [
    # (factors, mutation, failing checks, the first witness, pinned at the
    # commit before fusion was split into tensor factors)
    ((ising(1, 1), fibonacci(1)), "changed", BROKEN_S, "(S Sbar)[(1,1)][(psi,1)] = "),
    ((ising(1, 1), fibonacci(1)), "twisted", BROKEN_S + ["gauss-sum-modulus"], "(S Sbar)[(1,1)][(1,tau)] = "),
    ((ising(1, 1), fibonacci(1)), "flipped", BROKEN_S[2:],
     "fusion multiplicity N((sigma,1),(1,tau);(sigma,tau)) = -1 is not a nonnegative integer"),
    ((ising(1, 1), so5_level9(1)), "changed", BROKEN_S, "(S Sbar)[(1,1)][(1,b)] = "),
    ((ising(1, 1), so5_level9(1)), "twisted", BROKEN_S + ["gauss-sum-modulus"], "(S Sbar)[(1,1)][(1,a)] = "),
    ((ising(1, 1), so5_level9(1)), "flipped", BROKEN_S[2:],
     "fusion multiplicity N((sigma,1),(1,u2);(sigma,u2)) = -1 is not a nonnegative integer"),
    ((fibonacci(2), so5_level9(4)), "changed", BROKEN_S, "(S Sbar)[(1,1)][(1,b)] = "),
    ((fibonacci(2), so5_level9(4)), "twisted", BROKEN_S + ["gauss-sum-modulus"], "(S Sbar)[(1,1)][(1,a)] = "),
    ((fibonacci(2), so5_level9(4)), "flipped", BROKEN_S[2:],
     "fusion multiplicity N((tau,1),(1,u2);(tau,u2)) = -1 is not a nonnegative integer"),
]


@pytest.mark.parametrize(
    "factors, kind, failing, witness", PRODUCT_MUTATIONS,
    ids=[f"{a.name}*{b.name}-{kind}" for (a, b), kind, *_ in PRODUCT_MUTATIONS],
)
def test_product_mutations_report_as_before(monkeypatch, factors, kind, failing, witness):
    md = deligne_product(*factors)
    r = md.rank
    # a changed entry or a twisted column breaks unitarity; the sign flip
    # keeps S unitary and reaches the split, which the product table rejects
    mutate = {
        "changed": lambda: changed_pair(md, 2, r - 1),
        "twisted": lambda: twisted_column(md, r - 1, 7),
        "flipped": lambda: sign_flipped(md, r - 1),
    }[kind]
    got = verify(mutate())
    assert [c.name for c in got.failures] == failing
    assert got.failures[0].witness.startswith(witness)
    # and the whole report is that of the candidates of every pair
    monkeypatch.setattr(modular, "_centralizer_split", lambda md, block: None)
    assert verify(mutate()) == got


# ------------------------------------------------- the split tree, from S


def leaves(md):
    return [list(node.block) for node in modular._nodes(modular._split_tree(md)) if not node.parts]


def test_pairwise_products_split_into_their_coordinate_factors():
    names = builtin_names()
    alone = {name for name in names if modular._split_tree(builtin(name)).parts}
    assert alone == {"double-c3"}
    split = 0
    for i, a in enumerate(names):
        for b in names[i:]:
            A, B = builtin(a), builtin(b)
            tree = modular._split_tree(deligne_product(A, B))
            if not tree.parts:
                continue
            split += 1
            # deligne_product numbers (a, b) as a * rank(b) + b, so the
            # objects of a coordinate factor have the other coordinate 0
            factors = [{u * B.rank for u in range(A.rank)}, set(range(B.rank))]
            for node in modular._nodes(tree):
                if not node.parts:
                    assert any(set(node.block) <= f for f in factors), (a, b, node.block)
            if not {a, b} & alone:
                assert sorted(map(set, (part.block for part in tree.parts)), key=len) == sorted(factors, key=len), (a, b)
    # toric code squared has no modular subcategory of rank 4
    assert split == len(names) * (len(names) + 1) // 2 - 1, split


def test_double_c5_splits_into_two_cyclic_factors():
    md = double_abelian((5,))
    parts = leaves(md)
    assert sorted(map(len, parts)) == [5, 5]
    # each factor is a subgroup of order 5: closed under the group law
    N = verlinde_fusion(md).N
    for part in parts:
        assert all(N[x][y].index(1) in part for x in part for y in part), part


def test_pointed_c27_has_no_split():
    c27 = planted_data()[0]
    assert not modular._split_tree(c27).parts
    assert leaves(c27) == [list(range(27))]


def test_verify_on_a_product_scans_only_inside_its_factors(monkeypatch):
    md = deligne_product(so5_level9(1), so5_level9(2))
    gram, balancing = [], []
    real_gram, real_balancing = modular._gram_miss, modular._balancing_witness

    def gram_rows(md, block):
        gram.append(len(block))
        return real_gram(md, block)

    def balancing_pairs(md, N, block):
        balancing.append(len(block))
        return real_balancing(md, N, block)

    monkeypatch.setattr(modular, "_gram_miss", gram_rows)
    monkeypatch.setattr(modular, "_balancing_witness", balancing_pairs)
    assert verify(md).ok
    # one unitarity and one balancing scan per so5 factor, 21 pairs each,
    # against 666 over the whole datum
    assert gram == balancing == [6, 6], (gram, balancing)


def test_leaf_certificate_reads_only_the_leaf_columns():
    md = deligne_product(so5_level9(1), so5_level9(2))
    r = md.rank
    duals = _charge_conjugation(md)[0]
    exact = kron_table(_verlinde_exact(so5_level9(1)).N, _verlinde_exact(so5_level9(2)).N)
    checked = 0
    for leaf in leaves(md):
        planes = [[None] * (x + 1) for x in range(r)]
        assert not modular._match(md, planes, leaf, modular._unit_rows(r))
        rows = _verlinde_candidates(md, planes, duals, leaf)
        assert rows and all(rows[x, y] == exact[x][y] for x, y in rows)
        assert _verlinde_certified(md, rows, leaf)
        # a planted error inside the leaf fails on the leaf's columns, as it
        # does on every column
        for (x, y), row in rows.items():
            for z in leaf:
                raised = dict(rows)
                raised[x, y] = tuple(k + (w == z) for w, k in enumerate(row))
                assert not _verlinde_certified(md, raised, leaf), (x, y, z)
                checked += 1
            zeroed = dict(rows)
            zeroed[x, y] = (0,) * r
            assert not _verlinde_certified(md, zeroed, leaf), (x, y)
            assert not _verlinde_certified(md, zeroed, range(r)), (x, y)
            # the unit and b both have dimension 1, so moving a unit of
            # multiplicity from one to the other keeps the unit column; the
            # other columns of the leaf must catch it
            if row[0]:
                moved = dict(rows)
                moved[x, y] = tuple(k - (w == 0) + (w == leaf[2]) for w, k in enumerate(row))
                assert _verlinde_certified(md, moved, [0]), (x, y)
                assert not _verlinde_certified(md, moved, leaf), (x, y)
                checked += 1
    assert checked >= 2 * (6 * 6 + 5), checked


def split_products():
    """Data that split, and the factors of the products among them."""
    so5_1 = so5_level9(1)
    products = [
        (ising(1, 1), fibonacci(1)),
        (ising(1, 1), so5_1),
        (fibonacci(2), so5_level9(4)),
        (so5_1, so5_level9(2)),
        (ising(1, 1), builtin("pointed-c9")),
    ]
    c3_4 = pointed(MetricGroup.generator_form((3,) * 4, (1,) * 4), name="pointed-c3^4")
    return [(deligne_product(*f), f) for f in products] + [(double_abelian((5,)), None), (c3_4, None)]


def shifted_t(md, x, k):
    T = list(md.T)
    T[x] = T[x] * RootOfUnity.make(fs_exponent(md), k % fs_exponent(md))
    return ModularDatum(md.labels, md.S, T, name=f"{md.name}~shifted")


def report_without_split(monkeypatch, md):
    """verify on a fresh copy of md with the split turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(modular, "_centralizer_split", lambda md, block: None)
        return verify(ModularDatum(md.labels, md.S, md.T, name=md.name))


@pytest.mark.parametrize("md, factors", split_products(), ids=lambda v: getattr(v, "name", None) or "")
def test_split_mutations_report_as_without_the_split(monkeypatch, md, factors):
    assert len(leaves(md)) >= 2, md.name
    r, N = md.rank, verlinde_fusion(md).N
    # a shifted T exponent at an object of each leaf and at the last
    # object, which lies in no leaf
    objects = [leaf[1] for leaf in leaves(md)] + [r - 1]
    caught = 0
    for x in objects:
        for k in (1, -1):
            bad = shifted_t(md, x, k)
            got = verify(bad)
            want = reference_balancing(bad, N)
            check = {c.name: c for c in got.checks}["balancing"]
            assert (check.passed, check.witness) == (not want, want), (md.name, x, k)
            assert got == report_without_split(monkeypatch, bad), (md.name, x, k)
            caught += bool(want)
    assert caught, md.name
    # a changed symmetric S pair inside a leaf and across the leaves
    inside = leaves(md)[0]
    for a, b in ((inside[1], inside[-1]), (inside[1], r - 1)):
        bad = changed_pair(md, a, b)
        got = verify(bad)
        want = reference_unitarity(bad)
        assert want and {c.name: c for c in got.checks}["s-unitary-scale"].witness == want, (md.name, a, b)
        assert got == report_without_split(monkeypatch, bad), (md.name, a, b)
    if factors is None:
        return
    # a mutated factor times a valid one: S still splits, and one factor
    # fails unitarity or balancing; a T shift can land on a valid datum, so
    # the first that fails is taken
    first, second = factors
    shifts = (shifted_t(first, x, k) for x in range(1, first.rank) for k in (1, -1))
    for mutated in (changed_pair(first, 1, first.rank - 1), next(m for m in shifts if not verify(m).ok)):
        bad = deligne_product(mutated, second)
        assert modular._split_tree(bad).parts, md.name
        got = verify(bad)
        assert not got.ok and got == report_without_split(monkeypatch, bad), md.name


def flipped_factor_products():
    """Products whose first factor has one row of S sign-flipped: S stays
    unitary and still splits, and the charge check fails on it."""
    return [
        deligne_product(sign_flipped(builtin("pointed-c9"), 8), ising(1, 1)),
        deligne_product(sign_flipped(builtin("pointed-c7"), 6), fibonacci(1)),
    ]


@pytest.mark.parametrize("md", flipped_factor_products(), ids=lambda md: md.name)
def test_charge_conjugation_on_split_data_reports_as_without_the_split(monkeypatch, md):
    assert len(leaves(md)) >= 2, md.name
    got = verify(md)
    want = reference_charge(md)
    assert want and {c.name: c for c in got.checks}["charge-conjugation"].witness == want, md.name
    assert got == report_without_split(monkeypatch, md), md.name
