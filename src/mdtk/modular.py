"""Modular data: an exact S matrix and T matrix with the invariants and
consistency checks that make sense for them.

A ModularDatum is a lightweight container validated structurally on
construction.  The mathematically expensive consistency conditions live in
`verify`, which returns a report of named checks instead of raising, so a
broken datum can be inspected.  Everything downstream (fusion rules, Gauss
sums, the normalized T matrix) raises NotModularError when the data fails
the property it depends on.

S repeats few values (pointed-c81: 81 among 6,561 entries), so every map
of S entry by entry runs once per distinct value, through `_per_entry`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate, compress, repeat

from .cyclo import Cyc, ResidueMap, RootOfUnity, _as_root_of_unity, _factorize, _is_prime, rational


__all__ = [
    "MdtkError",
    "DataFormatError",
    "NotModularError",
    "DegenerateDataError",
    "ModularDatum",
    "Check",
    "VerificationReport",
    "FusionTensor",
    "dims",
    "global_dim",
    "fs_exponent",
    "verlinde_fusion",
    "verify",
    "gauss_sum",
    "ndim",
    "anomaly",
    "normalized_t",
    "normalized_t_order",
    "fpdim_pseudounitary",
    "invertibles",
    "subcategory_generated",
    "centralizes",
    "symmetric_center",
    "data_equal",
]


class MdtkError(Exception):
    """Base class for all library errors."""


class DataFormatError(MdtkError):
    """Malformed or structurally invalid input data."""


class NotModularError(MdtkError):
    """The data violates a property required of modular data."""


class DegenerateDataError(MdtkError):
    """An operation needed distinct columns or objects and found a collision."""


class ModularDatum:
    """Exact modular data: labels, a symmetric S matrix over cyclotomic
    numbers with S[0][0] = 1, and a diagonal T of roots of unity with
    T[0] = 1.  Row and column 0 always refer to the unit object.

    Construction enforces shape, normalization and the symmetry of S; run
    `verify` for the full battery.  Instances are compared by identity; the
    invariants computed from one are cached on the instance and freed with
    it.
    """

    def __init__(self, labels, S, T, name=None):
        labels = tuple(str(x) for x in labels)
        r = len(labels)
        if r < 1:
            raise DataFormatError("empty object list")
        if len(set(labels)) != r:
            raise DataFormatError("labels must be unique")
        if len(S) != r or any(len(row) != r for row in S):
            raise DataFormatError(f"S must be {r} x {r}")
        if len(T) != r:
            raise DataFormatError(f"T must have length {r}")
        S = tuple(tuple(_as_cyc(e) for e in row) for row in S)
        T = tuple(_as_rou(t) for t in T)
        if S[0][0] != 1:
            raise DataFormatError("unit normalization violated: S[0][0] must be 1")
        if T[0].order != 1:
            raise DataFormatError("unit normalization violated: T[0] must be 1")
        # constructions pass equal mirrors as one object, which is cheaper
        # to recognize than to compare
        for i in range(r):
            for j in range(i + 1, r):
                if S[i][j] is not S[j][i] and S[i][j] != S[j][i]:
                    raise DataFormatError(
                        f"S is not symmetric at ({labels[i]}, {labels[j]})"
                    )
        self.labels = labels
        self.S = S
        self.T = T
        self.name = name
        self._memo: dict = {}  # see _kept_on_datum

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no object labeled {label!r}") from None

    def __repr__(self):
        tag = self.name or "unnamed"
        return f"<ModularDatum {tag} rank {self.rank}>"


def _as_cyc(e) -> Cyc:
    if isinstance(e, Cyc):
        return e
    if isinstance(e, (int, Fraction)):
        return rational(e)
    raise DataFormatError(f"S entries must be field elements, got {type(e).__name__}")


def _as_rou(t) -> RootOfUnity:
    if isinstance(t, RootOfUnity):
        return t
    if t == 1:
        return RootOfUnity.one()
    raise DataFormatError(f"T entries must be roots of unity, got {type(t).__name__}")


class Check(namedtuple("Check", "name passed witness", defaults=("",))):
    __slots__ = ()

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        tail = f"  ({self.witness})" if self.witness and not self.passed else ""
        return f"[{mark:4}] {self.name}{tail}"


class VerificationReport:
    """The checks of one run of `verify` or `verify_galois_identities`, in
    order; immutable, and not a tuple, so callers can tell it from one."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[Check, ...]):
        object.__setattr__(self, "checks", checks)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return VerificationReport, (self.checks,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.checks == other.checks

    def __hash__(self):
        return hash(self.checks)

    def __repr__(self):
        return f"VerificationReport(checks={self.checks!r})"

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


# ---------------------------------------------------------------------------
# basic invariants, kept on the datum


def _kept_on_datum(fn):
    """Cache fn(md, *args) in md._memo, so it is computed once per datum and
    freed with it.  A call that raises is not cached."""
    @wraps(fn)
    def kept(md, *args):
        key = (fn, *args)
        if key not in md._memo:
            md._memo[key] = fn(md, *args)
        return md._memo[key]
    return kept


@_kept_on_datum
def dims(md: ModularDatum) -> tuple[Cyc, ...]:
    """dim(X) = S[0][X] for each object, read off the unit row."""
    return md.S[0]


@_kept_on_datum
def global_dim(md: ModularDatum) -> Cyc:
    """Sum of the squared object dimensions; totally real and nonzero for
    sane data."""
    d = rational(0)
    for v in dims(md):
        d = d + v * v
    if d.is_zero():
        raise NotModularError("global dimension is zero")
    if not d.is_totally_real():
        raise NotModularError("global dimension is not totally real")
    return d


@_kept_on_datum
def fs_exponent(md: ModularDatum) -> int:
    """lcm of the orders of the T entries."""
    return math.lcm(*(t.order for t in md.T))


@_kept_on_datum
def _entries(md: ModularDatum) -> tuple[tuple[Cyc, ...], tuple[tuple[int, ...], ...]]:
    """The distinct S values, in order of first occurrence, and cells with
    S[x][y] = values[cells[x][y]].  Entries with one conductor, denominator
    and numerator tuple are one value; a value stored at two conductors
    gets two indices, which costs one more image and nothing else."""
    index: dict = {}
    cells = tuple(tuple(index.setdefault((e.n, e.den, e.num), len(index)) for e in row) for row in md.S)
    return tuple(Cyc(*key) for key in index), cells


def _per_entry(md: ModularDatum, f) -> tuple[tuple, ...]:
    """The matrix of f(S[x][y]), calling f once per distinct value."""
    values, cells = _entries(md)
    images = tuple(map(f, values))
    return tuple(tuple(map(images.__getitem__, row)) for row in cells)


@_kept_on_datum
def _s_conductor(md: ModularDatum) -> int:
    """lcm of the conductors of the stored S entries."""
    return math.lcm(*(e.n for e in _entries(md)[0]))


def gauss_sum(md: ModularDatum, sign: int = 1) -> Cyc:
    """sum_X dim(X)^2 theta_X^(sign) with theta_X the inverse of T[X]."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _gauss_sum(md, sign)


@_kept_on_datum
def _gauss_sum(md: ModularDatum, sign: int) -> Cyc:
    """`gauss_sum` for a checked sign, kept on the datum under one key per
    sign whether the sign was passed by position, by keyword or by default."""
    d = dims(md)
    acc = rational(0)
    for i in range(md.rank):
        theta_pow = md.T[i] ** (-sign)
        acc = acc + d[i] * d[i] * theta_pow.to_cyc()
    return acc


@_kept_on_datum
def ndim(md: ModularDatum) -> int:
    """Product of the Galois conjugates of the global dimension (its field
    norm); a positive rational integer for modular data."""
    return _integer_norm(global_dim(md))


def _integer_norm(D: Cyc) -> int:
    """The field norm of a global dimension D, which must be a positive
    integer."""
    _, nm = D.trace_norm()
    if nm.denominator != 1 or nm <= 0:
        raise NotModularError(f"norm of the global dimension is {nm}, not a positive integer")
    return int(nm)


@_kept_on_datum
def anomaly(md: ModularDatum) -> RootOfUnity:
    """The root of unity gauss_sum(+1)^2 / global_dim."""
    x = gauss_sum(md, 1)
    x = x * x / global_dim(md)
    root = _as_root_of_unity(x)
    if root is None:
        raise NotModularError("squared Gauss sum over the global dimension is not a root of unity")
    return root


# ---------------------------------------------------------------------------
# fusion rules


class FusionTensor(namedtuple("FusionTensor", "labels N duals")):
    """Nonnegative integer fusion multiplicities N[x][y][z] with unit object
    at index 0.  Validated for unit behaviour, commutativity and rigidity
    (every object has exactly one dual, and duality is an involution).
    Built from labels and N; duals[x] is computed, the index of the dual
    of x."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...], N: tuple[tuple[tuple[int, ...], ...], ...]):
        r = len(labels)
        for x in range(r):
            for z in range(r):
                if N[0][x][z] != (1 if x == z else 0):
                    raise DataFormatError("fusion with the unit must be the identity")
        for x in range(r):
            for y in range(x + 1, r):
                if N[x][y] != N[y][x]:
                    raise DataFormatError(
                        f"fusion is not commutative at ({labels[x]}, {labels[y]})"
                    )
        duals = []
        for x in range(r):
            ds = [y for y in range(r) if N[x][y][0] != 0]
            if len(ds) != 1 or N[x][ds[0]][0] != 1:
                raise DataFormatError(f"object {labels[x]} has no unique dual")
            duals.append(ds[0])
        # involutive: for y the dual of x, N[y][x][0] = N[x][y][0] = 1 by commutativity
        return tuple.__new__(cls, (labels, N, tuple(duals)))

    def __getnewargs__(self):
        return self.labels, self.N

    @property
    def rank(self) -> int:
        return len(self.labels)

    def dual(self, x: int) -> int:
        return self.duals[x]


@_kept_on_datum
def _integral_s(md: ModularDatum) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """L, the lcm of the S denominators, so that L S lies in Z[zeta_N]; N,
    the lcm of the S conductors; and the norms ||L S[x][y]||_1 that bound
    every |sigma(L S[x][y])|."""
    L = math.lcm(*(e.den for e in _entries(md)[0]))
    return L, _s_conductor(md), _per_entry(md, lambda e: _norm1(e, L))


def _norm1(e: Cyc, scale: int) -> int:
    """||scale * e||_1 on the power basis."""
    return sum(map(abs, e.num)) * (scale // e.den)


@_kept_on_datum
def _unitarity_images(md: ModularDatum):
    """The ring that decides unitarity and charge conjugation, and the
    images of the rows of A = L S and of conj(A) in it, one tuple of
    residues per row.

    The bound is the largest row sum of ||A[i][k]||_1^2 plus ||L^2 D||_1,
    which covers every entry of A conj(A)^T - L^2 D I (see
    `_unitarity_witness`).  It decides equality of two entries of A or
    conj(A) too: the difference of A[i][k] and conj(A[j][k]) has every
    |sigma| at most ||A[i][k]||_1 + ||A[j][k]||_1 <= 2 top, with top the
    largest ||A[x][y]||_1, since conjugation keeps the 1-norm.  The row
    holding top gives a row sum of at least top^2, and ||L^2 D||_1 >= 1 as
    D is nonzero, so the bound is at least top^2 + 1 >= 2 top.  So two rows
    are equal exactly when their residue tuples are.
    """
    D = global_dim(md)
    L, N, norms = _integral_s(md)
    ring = ResidueMap(N, max(sum(v * v for v in row) for row in norms) + _norm1(D, L * L))
    a = _per_entry(md, lambda e: ring(e, L))
    abar = _per_entry(md, lambda e: ring(e, L, -1))
    return ring, a, abar


@_kept_on_datum
def _pair_ring(md: ModularDatum):
    """The ring that decides a b' = a' b for entries of A = L S or their
    Galois conjugates, and the residues of A at the distinct S values (see
    `_entries`), for the simple products of `verlinde_fusion` and for
    `galois._ratio_classes`.  Each difference has every |sigma| at most
    2 top^2, with top the largest ||A[x][y]||_1, since sigma_k keeps the
    1-norm."""
    L, N, norms = _integral_s(md)
    top = max(map(max, norms))
    ring = ResidueMap(N, 2 * top * top)
    return ring, tuple(ring(e, L) for e in _entries(md)[0])


@_kept_on_datum
def _charge_conjugation(md: ModularDatum):
    """(C, None) with conj(S[j]) = S[C[j]] for every row j, or (None, j) for
    the first row j whose conjugate is no row of S.  Rows are matched by
    their residues in the unitarity ring, which decides entry equality
    exactly (see `_unitarity_images`)."""
    _, a, abar = _unitarity_images(md)
    rows = {row: z for z, row in enumerate(a)}
    C = []
    for j, row in enumerate(abar):
        z = rows.get(row)
        if z is None:
            return None, j
        C.append(z)
    return tuple(C), None


@_kept_on_datum
def _unitarity_witness(md: ModularDatum) -> str:
    """The first entry of S Sbar^T that differs from D I, as a witness, or
    "" when S Sbar^T = D I holds exactly.

    With A = L S integral, each entry is decided in Z/m (see `ResidueMap`)
    as sum_k A[i][k] conj(A[j][k]) - L^2 D [i = j] = 0.  By Cauchy-Schwarz
    sum_k ||A[i][k]||_1 ||A[j][k]||_1 is at most the largest row sum of
    ||A[i][k]||_1^2, which plus ||L^2 D||_1 bounds every entry.  Only the
    failing entry is computed in the field, for the witness.

    The product is Hermitian, so an entry below the diagonal is nonzero
    exactly when its mirror above the diagonal is: the first failure in
    row-major order always has j >= i, and only the upper triangle is
    checked.
    """
    r = md.rank
    S = md.S
    D = global_dim(md)
    L = _integral_s(md)[0]
    ring, a, abar = _unitarity_images(md)
    m = ring.modulus
    d = ring(D, L * L)
    for i in range(r):
        for j in range(i, r):
            if (sum(map(operator.mul, a[i], abar[j])) - (d if i == j else 0)) % m:
                acc = rational(0)
                for k in range(r):
                    acc = acc + S[i][k] * S[j][k].conj()
                return f"(S Sbar)[{md.labels[i]}][{md.labels[j]}] = {acc}"
    return ""


@_kept_on_datum
def verlinde_fusion(md: ModularDatum) -> FusionTensor:
    """Fusion multiplicities from the S matrix:

        N[x][y][z] = sum_c S[x][c] S[y][c] conj(S[z][c]) / (D * S[0][c])

    with D the global dimension.  Raises NotModularError if any value is
    not a nonnegative integer (or a column of S is zero at the unit row).

    When S is unitary, S Sbar^T = D I, and no S[0][c] is zero, the pairs
    y <= x whose product is simple are decided first.  With A = L S
    integral, suppose that

        A[x][c] A[y][c] = A[0][c] A[z][c]    for every column c.

    Then S[x][c] S[y][c] / S[0][c] = S[z][c], and the formula becomes
    N[x][y][w] = sum_c S[z][c] conj(S[w][c]) / D = (S Sbar^T)[z][w] / D =
    [w = z], so x tensor y = z exactly.  Conversely, Sbar^T S = D I turns
    the formula into sum_w N[x][y][w] S[w][c] = S[x][c] S[y][c] / S[0][c],
    so every simple product satisfies these equations.  Each difference
    A[x][c] A[y][c] - A[0][c] A[z][c] has every |sigma| at most 2 top^2,
    with top the largest ||A[x][y]||_1, and the pair ring decides it (see
    `_pair_ring` and `ResidueMap`).  Each z is keyed by the
    residues of A[0][c] A[z][c] over all c; a pair is looked up only when
    its c = 0 residue is that of some z (see `_simple_products`).  Every
    (x, 0) pair matches, and on pointed data every pair does.

    Most pairs left over in a Deligne product need no formula: its fusion
    rules are the Kronecker product of its factors' rules.  So the objects
    are split first, when they can be, into R1 and R2 such that
    (u, v) -> u tensor v is a bijection from R1 x R2 onto the simples and
    every such product is simple by the match (see `_factor_rows`).  Only
    the pairs inside R1 and inside R2 need values, and each factor is
    split again the same way.  Every other pair is filled by

        N[u1 v1][u2 v2][p q] = N[u1][u2][p] N[v1][v2][q],

    writing u v for u tensor v.  This needs no further check.  Let
    l_x(c) = S[x][c] / S[0][c].  By the formula,
    sum_z N[x][y][z] l_z = l_x l_y, and the l_x are linearly independent,
    since S is unitary, which is decided first; so N[x][y] is the unique
    decomposition of l_x l_y.  Every row inside R1 is known with support
    inside R1: a simple product inside R1 is checked to lie in R1 (see
    `_product_table`), a candidate row is 0 outside R1 and certified
    below, and a Kronecker row of a split of R1 holds by this same
    argument.  So l_u1 l_u2 = sum_{p in R1} N[u1][u2][p] l_p, and the same
    holds for R2.  A simple product u v = w gives l_u l_v = l_w, as shown
    above, so l_x = l_u1 l_v1 and l_y = l_u2 l_v2.  So
    l_x l_y = (l_u1 l_u2)(l_v1 l_v2) = sum_{p, q} N[u1][u2][p]
    N[v1][v2][q] l_{p q}, and the p q are distinct objects: this is the
    decomposition, and the Kronecker row is N[x][y].

    The pairs inside a factor with no split get candidate values from the
    formula in F_p for a prime p = 1 mod N, one value per sorted triple
    they need, with the duals C read off the charge conjugation
    conj(S[z]) = S[C(z)] (see `_verlinde_candidates`); an object outside
    the factor gets 0.  The candidates are accepted only after an exact
    certificate:

        S[0][c] * sum_z N[x][y][z] S[z][c] == S[x][c] S[y][c]

    for every such pair and every column c.  Since S^-1 = Sbar^T / D,
    this proves that the candidates equal the formula, and so that the
    formula's rows inside a factor have support inside it.  It is decided
    exactly in Z/m (see `_verlinde_certified`).  When S is not unitary, a
    column has S[0][c] = 0, pairs are left over and S has no charge
    conjugation, some D S[0][c] is 0 mod p, or the certificate fails, the
    formula is evaluated exactly instead, which returns the same tensor or
    raises the witness.  On modular data a split costs no such fallback:
    R2 is modular, so the block is R2 tensor its centralizer, a fusion
    subcategory (Mueger), and the formula's rows inside each factor stay
    inside it, so they fail the certificate only where the unsplit
    candidates would.
    """
    if any(e.is_zero() for e in md.S[0]) or _unitarity_witness(md):
        return _verlinde_exact(md)
    planes = _simple_products(md)
    if any(None in plane for plane in planes):
        duals = _charge_conjugation(md)[0]
        found = None if duals is None else _factor_rows(md, planes, duals, range(md.rank))
        if found is None or not _verlinde_certified(md, found[1]):
            return _verlinde_exact(md)
        for (x, y), row in found[0].items():
            planes[x][y] = row
    return _fusion_from_planes(md, planes)


def _fusion_from_planes(md: ModularDatum, planes) -> FusionTensor:
    """The tensor with N[x][y] = planes[x][y] for y <= x, completed by
    commutativity."""
    r = md.rank
    full = tuple(
        tuple(planes[max(x, y)][min(x, y)] for y in range(r)) for x in range(r)
    )
    return FusionTensor(md.labels, full)


def _simple_products(md: ModularDatum):
    """planes[x][y] for y <= x: the unit vector e_z when x tensor y = z is
    decided in the pair ring, else None.  S must be unitary with no
    S[0][c] zero (see `verlinde_fusion`).

    The key of z is the residues of A[0][c] A[z][c] over all c.  A pair
    forms its r products only when A[x][0] A[y][0] is the c = 0 residue of
    some key, so a datum with few simple products pays about r^2 / 2
    products for the match, not r^3 / 2.
    """
    r = md.rank
    ring, residues = _pair_ring(md)
    a = tuple(tuple(map(residues.__getitem__, row)) for row in _entries(md)[1])
    m = ring.modulus
    mod = repeat(m)
    keys = {tuple(map(operator.mod, map(operator.mul, a[0], az), mod)): z for z, az in enumerate(a)}
    firsts = {key[0] for key in keys}
    units = [tuple(int(w == z) for w in range(r)) for z in range(r)]
    planes = []
    for x, ax in enumerate(a):
        plane = []
        for ay in a[: x + 1]:
            z = None
            if ax[0] * ay[0] % m in firsts:
                z = keys.get(tuple(map(operator.mod, map(operator.mul, ax, ay), mod)))
            plane.append(None if z is None else units[z])
        planes.append(plane)
    return planes


def _factor_rows(md: ModularDatum, planes, duals, block):
    """(rows, fresh): rows[x, y] = N[x][y] for every pair y <= x inside
    block, a sorted sequence of objects, left open in planes, and fresh, the
    rows among them from the candidate step, which must be certified (see
    `verlinde_fusion`).  None when the candidate step has no values.

    A block that `_centralizer_split` splits, with a product table from
    `_product_table`, gets the rows inside each factor from this function
    and the others as Kronecker products; any other block gets the
    candidates of its own pairs.
    """
    split = _centralizer_split(md, planes, block)
    table = split and _product_table(planes, block, *split)
    if not table:
        rows = _verlinde_candidates(md, planes, duals, block)
        return None if rows is None else (rows, rows)
    found = [_factor_rows(md, planes, duals, R) for R in split]
    if None in found:
        return None
    rows = {**found[0][0], **found[1][0]}
    fresh = {**found[0][1], **found[1][1]}

    def terms(R):
        """(position in R, multiplicity) for the support of N[x][y], at the
        positions of every x, y in R, whose rows lie inside R."""
        out = {}
        for i, x in enumerate(R):
            for j, y in enumerate(R[: i + 1]):
                row = planes[x][y] or rows[x, y]
                out[i, j] = out[j, i] = [(k, row[z]) for k, z in enumerate(R) if row[z]]
        return out

    t1, t2 = map(terms, split)
    where = {z: (i, j) for i, line in enumerate(table) for j, z in enumerate(line)}
    r = md.rank
    for a, x in enumerate(block):
        i1, j1 = where[x]
        for y in block[: a + 1]:
            if planes[x][y] is None and (x, y) not in rows:
                i2, j2 = where[y]
                row = [0] * r
                for i, n in t1[i1, i2]:
                    line = table[i]
                    for j, k in t2[j1, j2]:
                        row[line[j]] = n * k
                rows[x, y] = tuple(row)
    return rows, fresh


def _centralizer_split(md: ModularDatum, planes, block):
    """A proposed split (R1, R2) of block into two factors of more than one
    object each, or None, as always when block has fewer than 4 objects or
    a prime number of them.
    Nothing is assumed of it: `_product_table` checks it, and the
    certificate checks the rows inside it.

    The centralizer of a set U in block is the y in block with
    S[u][y] S[0][0] = S[u][0] S[0][y] for every u in U.  R2 is the
    centralizer of one object x, and R1 the centralizer of R2.  For a
    modular datum, when R2 meets its own centralizer only in the unit, R2
    is a modular subcategory and the block is R1 tensor R2 (Mueger, Proc.
    London Math. Soc. 87 (2003)).  In a product, an object of one factor
    has the most simple partners, so x is taken among the objects that
    are not invertible and have the most simple partners in block.  Their
    centralizers with more than one object are tried from the smallest:
    the first that meets its own centralizer only in the unit is R2.
    Smaller ones can fail, such as the rank 3 subcategory of so5level9,
    which centralizes itself, tensor the unit of pointed-c9, the
    centralizer of (a, g) in so5level9 tensor pointed-c9 for g of order 9.
    Each equation is decided in the pair ring (see `_pair_ring`).
    """
    n = len(block)
    if n < 4 or _is_prime(n):
        return None
    partners = dict.fromkeys(block, 0)
    for i, x in enumerate(block):
        px = planes[x]
        for y in block[: i + 1]:
            if px[y] is not None:
                partners[x] += 1
                partners[y] += y != x
    # a split gives each object u of R1 the simple partners u tensor w, w in
    # R2, so some object that is not invertible has at least 2
    top = max((k for k in partners.values() if k < n), default=0)
    if top < 2:
        return None
    ring, residues = _pair_ring(md)
    m = ring.modulus
    cells = _entries(md)[1]
    c0, a00 = cells[0], residues[cells[0][0]]

    def centralizer(us, among=block):
        return [
            y for y in among
            if all((residues[cells[u][y]] * a00 - residues[cells[u][0]] * residues[c0[y]]) % m == 0 for u in us)
        ]

    tried = {tuple(centralizer((x,))) for x in block if partners[x] == top}
    for R2 in sorted(tried, key=lambda R: (len(R), R)):
        if len(R2) > 1 and len(centralizer(R2, R2)) == 1:
            R1 = centralizer(R2)
            return (R1, list(R2)) if len(R1) > 1 else None
    return None


def _product_table(planes, block, R1, R2):
    """table[i][j] = the object R1[i] tensor R2[j], when every such product
    is simple by the match and they are the objects of block, each once,
    and when the simple products of R1 and of R2 lie inside them; else
    None.  The rows that are not simple products need no such check: the
    candidates inside a factor are 0 outside it, and certified."""
    def simple(x, y):
        row = planes[max(x, y)][min(x, y)]
        return None if row is None else row.index(1)

    table = [[simple(u, v) for v in R2] for u in R1]
    if any(None in line for line in table) or sorted(z for line in table for z in line) != list(block):
        return None
    for R in (R1, R2):
        inside = set(R)
        for i, x in enumerate(R):
            if any(simple(x, y) not in inside for y in R[: i + 1] if planes[x][y] is not None):
                return None
    return table


@lru_cache(maxsize=None)
def _candidate_prime(N: int) -> tuple[int, int]:
    """The largest prime p < 2^30 with p = 1 mod N, and z = h^((p - 1) / N)
    of order exactly N for the least h >= 2; a generator h of F_p* passes.
    Kept per conductor, since data with one S conductor share it."""
    for p in range((2**30 - 2) // N * N + 1, N, -N):
        if _is_prime(p):
            for h in range(2, p):
                z = pow(h, (p - 1) // N, p)
                if all(pow(z, N // ell, p) != 1 for ell, _ in _factorize(N)):
                    return p, z
    raise ValueError(f"no prime below 2^30 is 1 mod {N}")


def _prime_powers(N: int) -> tuple[int, list[int]]:
    """p and the powers z^i mod p for 0 <= i < N, with (p, z) from
    `_candidate_prime`."""
    p, z = _candidate_prime(N)
    return p, list(accumulate(repeat(z, N - 1), lambda u, v: u * v % p, initial=1))


def _fp_image(e: Cyc, scale: int, p: int, powers: list[int], k: int = 1) -> int:
    """The image of scale * sigma_k(e) under the ring map zeta_N -> z into
    F_p, with (p, powers) from `_prime_powers(N)`, for e in Q(zeta_n), n
    dividing N, and scale * e integral: zeta_n^i is zeta_N^(iN/n)."""
    N = len(powers)
    step = N // e.n
    acc = sum(v * powers[k * i * step % N] for i, v in enumerate(e.num) if v)
    return scale // e.den * acc % p


@_kept_on_datum
def _fp_weights(md: ModularDatum):
    """(p, A, W) for the candidate step: A the image of S in F_p and
    W[c][s] = A[c][s] / (D A[0][s]), with p from `_candidate_prime` at the
    lcm of the S conductors; None when S is not integral or some D S[0][s]
    is 0 mod p (see `_verlinde_candidates`)."""
    L, N, _ = _integral_s(md)
    if L != 1:
        return None
    p, powers = _prime_powers(N)
    A = _per_entry(md, lambda e: _fp_image(e, 1, p, powers))
    d = _fp_image(global_dim(md), 1, p, powers)
    if d == 0 or 0 in A[0]:
        return None
    inverses = [pow(d * a, -1, p) for a in A[0]]
    return p, A, [[a * v % p for a, v in zip(row, inverses)] for row in A]


def _verlinde_candidates(md: ModularDatum, planes, duals, block):
    """{(x, y): N[x][y]} for the pairs y <= x inside block with
    planes[x][y] None, from the Verlinde formula in F_p, each value its
    least nonnegative residue and each value at an object outside block 0;
    None when S is not integral or some D S[0][c] is 0 mod p.  The
    other planes[x][y] must be the simple products, duals[z] the row of S
    equal to conj(S[z]), and block a sorted sequence; a value whose dual
    object lies outside block is read as 0, so a block not closed under
    duals gets rows that the certificate rejects.

    With N the lcm of the S conductors and (p, z) from `_candidate_prime`,
    zeta_N -> z is a ring map Z[zeta_N] -> F_p: Phi_N(z) = 0 in F_p, since
    z^N = 1, x^N - 1 is the product of the Phi_d over d | N, and
    Phi_d(z) = 0 would give z^d = 1, which the order of z rules out for
    d < N.  Multiplied by the product of the D S[0][s], the sum M below
    is an identity in Z[zeta_N], so when none of them maps to 0, a
    multiplicity n with 0 <= n < p is returned as n.  An S that is not
    integral has no integral fusion rules: S[x][c] / S[0][c] is an
    eigenvalue of the matrix N[x], so S[x][0] and then S[x][c] =
    S[0][c] S[x][c] / S[0][c] are algebraic integers.

    The loop evaluates

        M[a][b][c] = sum_s S[a][s] S[b][s] S[c][s] / (D S[0][s])

    for c <= b only at the pairs b <= a left over, b + 1 dot products of
    length r each.  M is symmetric in a, b and c.  With
    conj(S[z][s]) = S[z*][s] for z* = duals[z], M[a][b][c] = N[a][b][c*],
    the coefficient N_abc of Bakalov and Kirillov ("Lectures on tensor
    categories and modular functors", 2001, 3.1), which is invariant under
    all of S_3.  So N[x][y][z] = M[x][y][z*] is read from the sorted
    store, and at a simple pair a tensor b = u nothing is evaluated:
    M[a][b][c] = planes[a][b][c*].  The formula over the same pairs takes
    r dot products per pair.

    None of this is assumed: `verlinde_fusion` accepts the values only
    after `_verlinde_certified`.
    """
    r = md.rank
    # the position of each object in block, and of every other object the
    # position of the 0 appended to each line below
    pos = dict.fromkeys(range(r), len(block)) | {z: i for i, z in enumerate(block)}
    left = [(x, y) for i, x in enumerate(block) for y in block[: i + 1] if planes[x][y] is None]
    if not left:
        return {}
    fp = _fp_weights(md)
    if fp is None:
        return None
    p, A, W = fp
    # M[a, b] holds M[a][b][c] for c <= b in block, at the pairs left over
    M: dict[tuple[int, int], list[int]] = {}
    for a, b in left:
        pab = [u * v % p for u, v in zip(A[a], A[b])]
        M[a, b] = [sum(map(operator.mul, pab, W[c])) % p for c in block[: pos[b] + 1]]

    def line(x, y):
        """M at the sorted (x, y, w) for every w in block, given y <= x, and
        a final 0."""
        iy, dy = pos[y], duals[y]
        px = planes[x]
        return (
            M[x, y]
            + [M[x, w][iy] if px[w] is None else px[w][dy] for w in block[iy + 1 : pos[x] + 1]]
            + [M[w, x][iy] if planes[w][x] is None else planes[w][x][dy] for w in block[pos[x] + 1 :]]
            + [0]
        )

    # N[x][y][z] = M[x][y][z*]; a value at z or z* outside block is the 0
    # at the end of each line
    take = [len(block)] * r
    for z in block:
        take[z] = pos[duals[z]]
    return {(x, y): tuple(map(line(x, y).__getitem__, take)) for x, y in left}


def _verlinde_certified(md: ModularDatum, rows) -> bool:
    """Whether S[0][c] * sum_z N[x][y][z] S[z][c] == S[x][c] S[y][c] holds
    exactly for every (x, y): N[x][y] in rows and every column c.

    With A = L S integral, each equation is decided in Z/m (see
    `ResidueMap`) as sum_z N[x][y][z] A[0][c] A[z][c] - A[x][c] A[y][c] = 0.
    Its bound is the largest row sum in rows times max ||A[0][c]||_1 times
    max ||A[z][c]||_1, plus max ||A[x][c]||_1^2.
    """
    r = md.rank
    L, N, norms = _integral_s(md)
    top = max(map(max, norms))
    fused = max(map(sum, rows.values()), default=0)
    ring = ResidueMap(N, fused * max(norms[0]) * top + top * top)
    m = ring.modulus
    a = _per_entry(md, lambda e: ring(e, L))
    # A[z][c] is the image of A[0][c] A[z][c]; all columns go at once
    A = [[a[0][c] * a[z][c] % m for c in range(r)] for z in range(r)]
    mod = repeat(m)
    for (x, y), row in rows.items():
        terms = [A[z] if k == 1 else [k * v for v in A[z]] for z, k in enumerate(row) if k]
        lhs = map(sum, zip(*terms)) if terms else repeat(0, r)
        diff = map(operator.sub, lhs, map(operator.mul, a[x], a[y]))
        if any(map(operator.mod, diff, mod)):
            return False
    return True


def _verlinde_exact(md: ModularDatum) -> FusionTensor:
    """The Verlinde formula evaluated exactly in the field, r^4 / 2 field
    multiplications; the reference for `verlinde_fusion`."""
    r = md.rank
    S = md.S
    D = global_dim(md)
    inv_cols = []
    for c in range(r):
        if S[0][c].is_zero():
            raise NotModularError(f"S[0][{md.labels[c]}] is zero; Verlinde weights undefined")
        inv_cols.append((D * S[0][c]).inverse())
    cbar = [[S[z][c].conj() * inv_cols[c] for c in range(r)] for z in range(r)]
    N = []
    for x in range(r):
        plane = []
        for y in range(x + 1):
            row = []
            pxy = [S[x][c] * S[y][c] for c in range(r)]
            for z in range(r):
                acc = rational(0)
                for c in range(r):
                    acc = acc + pxy[c] * cbar[z][c]
                if not acc.is_rational():
                    raise NotModularError(
                        f"fusion multiplicity N({md.labels[x]},{md.labels[y]};{md.labels[z]}) = {acc} is irrational"
                    )
                v = acc.as_fraction()
                if v.denominator != 1 or v < 0:
                    raise NotModularError(
                        f"fusion multiplicity N({md.labels[x]},{md.labels[y]};{md.labels[z]}) = {v} is not a nonnegative integer"
                    )
                row.append(int(v))
            plane.append(tuple(row))
        N.append(plane)
    return _fusion_from_planes(md, N)


# ---------------------------------------------------------------------------
# verification


def _balancing_witness(md: ModularDatum, N) -> str:
    """The first (x, y), y >= x, at which the balancing relation

        theta_x theta_y S[x][y] = sum_z N[x][y][z] dim(z) theta_z

    fails, as a witness, or "" when it holds everywhere; theta is the
    inverse of T.  This is the trace of the ribbon axiom on x tensor y;
    stating it with the dual of x on the right requires S[x*][y] on the
    left, so the undualized form is the one that holds for every datum.

    With A = L S integral, each relation is decided in Z/m (see
    `ResidueMap`) at the lcm of the S conductors and the T orders.
    A twist has norm 1, so max ||A[x][y]||_1 plus the largest fusion row
    sum times max ||A[0][z]||_1 bounds every relation.

    Each sum runs over the support of N[x][y] only.  A mirrored pair shares
    its row object, and so does every simple product with one result, so
    each distinct row object is scanned once for its support.
    """
    r = md.rank
    L, n_s, norms = _integral_s(md)
    terms = {}
    for plane in N:
        for row in plane:
            if id(row) not in terms:
                terms[id(row)] = [(z, row[z]) for z in compress(range(r), row)]
    fused = max(sum(k for _, k in t) for t in terms.values())
    ring = ResidueMap(
        math.lcm(n_s, *(t.order for t in md.T)),
        max(map(max, norms)) + fused * max(norms[0]),
    )
    m = ring.modulus
    theta = [ring.root(t.inverse()) for t in md.T]
    a = _per_entry(md, lambda e: ring(e, L))
    dim_theta = [d * t % m for d, t in zip(a[0], theta)]
    for x, Nx in enumerate(N):
        for y in range(x, r):
            rhs = sum(k * dim_theta[z] for z, k in terms[id(Nx[y])])
            if (theta[x] * theta[y] * a[x][y] - rhs) % m:
                return f"balancing fails at ({md.labels[x]}, {md.labels[y]})"
    return ""


def verify(md: ModularDatum) -> VerificationReport:
    """Run the consistency battery and report named checks.

    Checks: S symmetry, the unitarity relation S Sbar = D I, charge
    conjugation (conjugating the columns of S permutes them by an involution
    C fixing the unit, which given the first two is S^2 = D C), Verlinde
    integrality, duality against the fusion rules, the balancing relation,
    the modulus of the Gauss sum, and finiteness of the T orders.

    Two checks hold by type: S symmetry, which ModularDatum enforces on
    construction, and finiteness of the T orders.  Duality is decided by
    its prerequisites: it passes exactly when charge conjugation and
    Verlinde integrality both pass.

    Unitarity, charge conjugation, the Verlinde certificate and balancing
    are decided in Z/m, one integer per field element, with L S integral
    and a bound on each relation taken through its factors; `ResidueMap`
    proves that this is exact.  The first failing index is reported.  The
    Verlinde candidates are computed in F_p, so no check uses a float.
    """
    checks: list[Check] = []
    labels = md.labels

    # ModularDatum rejects an asymmetric S, so symmetry holds by type
    checks.append(Check("s-symmetric", True))

    try:
        D = global_dim(md)
    except NotModularError as e:
        checks.append(Check("s-unitary-scale", False, str(e)))
        return VerificationReport(tuple(checks))

    unitary_bad = _unitarity_witness(md)
    checks.append(Check("s-unitary-scale", not unitary_bad, unitary_bad))

    # given symmetry and S Sbar = D I, S^2 = D C exactly when Sbar = S C,
    # that is when conjugating column j of S gives column C(j); S is
    # symmetric, so its rows serve as its columns.  Rows are matched by
    # their residues in the unitarity ring, which decides entry equality
    # exactly (see `_unitarity_images`)
    charge_bad = "prerequisite check failed"
    if not unitary_bad:
        miss = _charge_conjugation(md)[1]
        # with no miss, C is an involution fixing the unit: S Sbar = D I
        # makes the columns distinct, and sum |d|^2 = sum d^2 makes d real
        charge_bad = (
            None if miss is None
            else f"the conjugate of column {labels[miss]} is not a column of S"
        )
    checks.append(Check("charge-conjugation", charge_bad is None, charge_bad or ""))

    ft = None
    try:
        ft = verlinde_fusion(md)
        checks.append(Check("verlinde-integrality", True))
    except (NotModularError, DataFormatError) as e:
        checks.append(Check("verlinde-integrality", False, str(e)))

    # the fusion duals are C whenever both exist: the dimensions are real,
    # and Sbar = S C with S = S^T turns the Verlinde formula at z = 0 into
    # N[x][y][0] = (S Sbar^T)[x][C(y)] / D, which is 1 when x = C(y) and 0
    # otherwise
    duality_ok = ft is not None and charge_bad is None
    checks.append(
        Check("duality-match", duality_ok, "" if duality_ok else "prerequisite check failed")
    )

    if ft is not None:
        bal_bad = _balancing_witness(md, ft.N)
        checks.append(Check("balancing", not bal_bad, bal_bad))
    else:
        checks.append(Check("balancing", False, "fusion rules unavailable"))

    tau = gauss_sum(md, 1)
    gm_ok = tau * tau.conj() == D
    checks.append(
        Check("gauss-sum-modulus", gm_ok, "" if gm_ok else "tau+ conj(tau+) != global dimension")
    )

    # T entries are RootOfUnity instances, so finite order holds by type
    checks.append(Check("t-finite-order", True))

    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# the normalized T matrix


@_kept_on_datum
def normalized_t(md: ModularDatum) -> tuple[RootOfUnity, tuple[RootOfUnity, ...]]:
    """A scalar gamma with gamma^3 = tau+ / sqrt(D), and the normalized T,
    t = T * gamma, which obeys sigma^2(t[X]) = t[sigma-hat X] (Dong, Lin, Ng,
    "Congruence property in conformal field theory", 2015).  This is the
    only place t is formed.

    Each sixth root g of the anomaly has (tau+ g^(-3))^2 = D, and
    g^3 sqrt(D) = tau+ exactly when tau+ g^(-3) is totally real and
    positive; of the three such g, gamma has the smallest (order, exponent).
    The sixth roots are g_j = g_0 zeta_6^j, and g_j^(-3) = (-1)^j g_0^(-3),
    so the one value tau+ g_0^(-3) decides all six: g_j passes for the j
    of one parity, or for none.  The order of t is checked to be a
    multiple of the T order and a divisor of 12 times it.
    """
    xi = anomaly(md)
    M = xi.order
    root = gauss_sum(md, 1) * (RootOfUnity.make(6 * M, xi.exponent) ** -3).to_cyc()
    sign = root.sign() if root.is_totally_real() else 0
    if not sign:
        raise NotModularError("no sixth root of the anomaly matches the Gauss sum")
    winners = [RootOfUnity.make(6 * M, xi.exponent + j * M) for j in range(sign < 0, 6, 2)]
    gamma = min(winners, key=lambda g: (g.order, g.exponent))
    t = tuple(x * gamma for x in md.T)
    n_t = math.lcm(*(x.order for x in t))
    fs = fs_exponent(md)
    if n_t % fs != 0 or (12 * fs) % n_t != 0:
        raise NotModularError(
            f"normalized T order {n_t} is not between the T order {fs} and 12 times it"
        )
    return gamma, t


@_kept_on_datum
def normalized_t_order(md: ModularDatum) -> tuple[RootOfUnity, int]:
    """gamma and the order n_t of the normalized T, t = T * gamma: the lcm of
    the orders of the entries of `normalized_t`."""
    gamma, t = normalized_t(md)
    return gamma, math.lcm(*(x.order for x in t))


# ---------------------------------------------------------------------------
# Frobenius-Perron dimensions, read exactly off one column of S


def fpdim_pseudounitary(md: ModularDatum) -> tuple[float, bool]:
    """Frobenius-Perron dimension of the whole datum (sum over objects of
    FPdim(X)^2) and whether it equals the global dimension D.

    The characters of the fusion ring are the column ratios S[X][c] / S[0][c],
    and FPdim is the only one positive on every object (Etingof, Nikshych,
    Ostrik, "On fusion categories", 2005).  Its column c0 is the one in which
    every S[X][c0] S[0][c0] is real and positive, decided exactly by
    `Cyc.sign`.  Then FPdim(X) = S[X][c0] / S[0][c0], the total is
    D / S[0][c0]^2, and the datum is pseudo-unitary exactly when
    S[0][c0]^2 = 1.  Only the returned total is rounded to a float.
    """
    verlinde_fusion(md)  # NotModularError unless the fusion rules are integral
    S = md.S
    r = md.rank
    for c in range(r):
        products = (S[x][c] * S[0][c] for x in range(r))
        if all(p.is_totally_real() and p.sign() > 0 for p in products):
            sq = S[0][c] * S[0][c]
            total = complex(global_dim(md).embed()).real / complex(sq.embed()).real
            return total, sq == 1
    raise NotModularError("no column of S is positive on every object")


# ---------------------------------------------------------------------------
# structure carried by the fusion rules


def invertibles(ft: FusionTensor) -> set[str]:
    """Labels whose fusion matrix is a permutation (dimension one objects)."""
    out = set()
    r = ft.rank
    for x in range(r):
        if all(sum(ft.N[x][y]) == 1 for y in range(r)):
            out.add(ft.labels[x])
    return out


def subcategory_generated(ft: FusionTensor, seed) -> set[str]:
    """Labels of the smallest fusion subcategory containing the seed set:
    close under fusion products and duals, always including the unit."""
    idx = {lab: i for i, lab in enumerate(ft.labels)}
    current = {0}
    for lab in seed:
        if lab not in idx:
            raise KeyError(f"no object labeled {lab!r}")
        current.add(idx[lab])
    changed = True
    while changed:
        changed = False
        for x in list(current):
            d = ft.dual(x)
            if d not in current:
                current.add(d)
                changed = True
        for x in list(current):
            for y in list(current):
                for z in range(ft.rank):
                    if ft.N[x][y][z] and z not in current:
                        current.add(z)
                        changed = True
    return {ft.labels[i] for i in current}


def centralizes(md: ModularDatum, x: str, y: str) -> bool:
    """Whether S[x][y] = dim(x) dim(y), the exact transparency condition."""
    i, j = md.index(x), md.index(y)
    d = dims(md)
    return md.S[i][j] == d[i] * d[j]


def symmetric_center(md: ModularDatum) -> set[str]:
    """Labels transparent against every object.  Exactly the unit label for
    data whose S matrix is nondegenerate."""
    out = set()
    for x in md.labels:
        if all(centralizes(md, x, y) for y in md.labels):
            out.add(x)
    return out


def data_equal(a: ModularDatum, b: ModularDatum) -> bool:
    """Entrywise equality of labels, S and T (names are ignored)."""
    if a.labels != b.labels or a.T != b.T:
        return False
    return all(
        a.S[i][j] == b.S[i][j] for i in range(a.rank) for j in range(a.rank)
    )
