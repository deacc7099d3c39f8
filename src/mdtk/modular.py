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


def _sub_entries(md: ModularDatum, f, rows, cols) -> list[list]:
    """[[f(S[x][c]) for c in cols] for x in rows], calling f once per
    distinct value among them."""
    values, cells = _entries(md)
    lines = [[cells[x][c] for c in cols] for x in rows]
    images = {i: f(values[i]) for i in set().union(*lines)}
    return [list(map(images.__getitem__, line)) for line in lines]


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
def _pair_ring(md: ModularDatum):
    """The ring that decides a b' = a' b for entries of A = L S or their
    Galois conjugates, and the residues of A at the distinct S values (see
    `_entries`), for the simple products of `verlinde_fusion` and for
    `galois._ratio_classes`.  Each difference has every |sigma| at most
    2 top^2, with top the largest ||A[x][y]||_1, since sigma_k keeps the
    1-norm.  It decides charge conjugation too (see
    `_charge_conjugation`)."""
    L, N, norms = _integral_s(md)
    top = max(map(max, norms))
    ring = ResidueMap(N, 2 * top * top)
    return ring, tuple(ring(e, L) for e in _entries(md)[0])


@_kept_on_datum
def _charge_conjugation(md: ModularDatum):
    """(C, None) with conj(S[j]) = S[C[j]] for every row j, or (None, j) for
    the first row j whose conjugate is no row of S.

    Rows are matched by their residues in the pair ring (see `_pair_ring`),
    each distinct S value mapped once more for its conjugate.  With
    A = L S and top the largest ||A[x][y]||_1, A[i][k] - conj(A[j][k]) has
    every |sigma| at most ||A[i][k]||_1 + ||A[j][k]||_1 <= 2 top, since
    conjugation keeps the 1-norm, and 2 top <= 2 top^2, the ring's bound,
    as top >= ||A[0][0]||_1 = L >= 1.  So the ring decides entry equality,
    and two rows are equal exactly when their residue tuples are."""
    ring, residues = _pair_ring(md)
    L = _integral_s(md)[0]
    values, cells = _entries(md)
    conj = tuple(ring(e, L, -1) for e in values)
    rows = {tuple(map(residues.__getitem__, row)): z for z, row in enumerate(cells)}
    C = []
    for j, row in enumerate(cells):
        z = rows.get(tuple(map(conj.__getitem__, row)))
        if z is None:
            return None, j
        C.append(z)
    return tuple(C), None


@_kept_on_datum
def _unitarity_witness(md: ModularDatum) -> str:
    """The first entry of S Sbar^T that differs from D I, as a witness, or
    "" when S Sbar^T = D I holds exactly.

    A datum with a split tree (see `_split_tree`) is unitary when the Gram
    scan of every leaf passes (see `verify`); otherwise, or when a leaf
    fails, the scan runs on all objects, which gives the verdict and the
    first failing entry (see `_gram_miss`).  Only that entry is computed in
    the field, for the witness.
    """
    tree = _split_tree(md)
    if tree.parts and all(_gram_miss(md, node.block) is None for node in _nodes(tree) if not node.parts):
        return ""
    miss = _gram_miss(md, range(md.rank))
    if miss is None:
        return ""
    S = md.S
    i, j = miss
    acc = rational(0)
    for k in range(md.rank):
        acc = acc + S[i][k] * S[j][k].conj()
    return f"(S Sbar)[{md.labels[i]}][{md.labels[j]}] = {acc}"


def _gram_miss(md: ModularDatum, block):
    """The first (i, j), j >= i, of the block B, sorted with the unit first,
    in row-major order with
    sum_{k in B} S[i][k] conj(S[j][k]) != D_B [i = j], D_B the sum of
    dim(k)^2 over B, or None; at B = all objects, D_B = D.  The sums form
    a Hermitian matrix, so the first failure always has j >= i, and only
    the upper triangle is checked.

    With A = L S integral, each relation is decided in Z/m (see
    `ResidueMap`) as sum_k A[i][k] conj(A[j][k]) - L^2 D_B [i = j] = 0,
    with L^2 D_B = sum_k A[0][k]^2.  By Cauchy-Schwarz the largest row sum
    of ||A[i][k]||_1^2 over B bounds every |sigma| of either term, so twice
    it bounds each relation."""
    L, N, norms = _integral_s(md)
    ring = ResidueMap(N, 2 * max(sum(norms[i][k] ** 2 for k in block) for i in block))
    m = ring.modulus
    a = _sub_entries(md, lambda e: ring(e, L), block, block)
    abar = _sub_entries(md, lambda e: ring(e, L, -1), block, block)
    d = sum(v * v for v in a[0])
    for i, ai in enumerate(a):
        for j in range(i, len(a)):
            if (sum(map(operator.mul, ai, abar[j])) - (d if i == j else 0)) % m:
                return block[i], block[j]
    return None


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
    `_pair_ring` and `ResidueMap`).  This is the match (see `_match`).

    The objects are split first, from S alone, into a tree of tensor
    factors (see `_split_tree`).  At each split of a block B into R1 and
    R2, `_product_table` has checked that every u in R1 centralizes every
    v in R2, S[u][v] = dim(u) dim(v), and that the u v = u tensor v are
    simple by the match in the columns of B and are B's objects, each
    once.  Then, for u, u' in R1 and v, v' in R2,

        S[u v][u' v'] = S[u][u'] S[v][v'].                          (K)

    Proof: the match at the unit column gives dim(u v) = dim(u) dim(v).
    S is symmetric and v' centralizes u, so the match of u' v' at column u
    gives S[u][u' v'] = S[u'][u] S[v'][u] / dim(u) = S[u][u'] dim(v'), and
    likewise S[v][u' v'] = dim(u') S[v][v']; the match of u v at column
    u' v' divides their product by dim(u') dim(v').  With v = v' the unit,
    (K) reads S[u][c1 c2] = S[u][c1] dim(c1 c2) / dim(c1); so, by
    induction from the root, for each block B of the tree every column c
    has a column b(c) in B with S[x][c] = S[x][b(c)] dim(c) / dim(b(c))
    for every x in B.  An equation in objects of B whose sides are sums of
    products of two S entries of one column, such as the match and the
    certificate below, holds at c once it holds at b(c): it is that
    equation times (dim(c) / dim(b(c)))^2.  So a block's matches and
    certificates are decided in the block's columns only.

    Only the pairs inside the leaves need values.  Every other pair is
    filled by N[u1 v1][u2 v2][p q] = N[u1][u2][p] N[v1][v2][q], which
    needs no further check.  Let
    l_x(c) = S[x][c] / S[0][c].  By the formula,
    sum_z N[x][y][z] l_z = l_x l_y, and the l_x are linearly independent,
    since S is unitary, which is decided first; so N[x][y] is the unique
    decomposition of l_x l_y.  Every row inside R1 is known with support
    inside R1: a simple product of a leaf is matched only against the
    leaf's objects, a candidate row is 0 outside its leaf and certified
    below, and a Kronecker row of a split of R1 holds by this same
    argument.  So l_u1 l_u2 = sum_{p in R1} N[u1][u2][p] l_p, and the same
    holds for R2.  A simple product u v = w gives l_u l_v = l_w, as shown
    above, so l_x = l_u1 l_v1 and l_y = l_u2 l_v2.  So
    l_x l_y = (l_u1 l_u2)(l_v1 l_v2) = sum_{p, q} N[u1][u2][p]
    N[v1][v2][q] l_{p q}, and the p q are distinct objects: this is the
    decomposition, and the Kronecker row is N[x][y].

    The pairs of a leaf left over by the match get candidate values from
    the formula in F_p for a prime p = 1 mod N, one value per sorted
    triple they need, with the duals C read off the charge conjugation
    conj(S[z]) = S[C(z)] (see `_verlinde_candidates`); an object outside
    the leaf gets 0.  The candidates are accepted only after an exact
    certificate:

        S[0][c] * sum_z N[x][y][z] S[z][c] == S[x][c] S[y][c]

    for every such pair and every column c of the leaf, and so, as shown
    above, of the datum.  Since S^-1 = Sbar^T / D, this proves that the
    candidates equal the formula.  It is decided exactly in Z/m (see
    `_verlinde_certified`).  When S is not unitary, a column has
    S[0][c] = 0, pairs are left over and S has no charge conjugation, some
    D S[0][c] is 0 mod p, or the certificate fails, the formula is
    evaluated exactly instead, which returns the same tensor or raises the
    witness.
    """
    if any(e.is_zero() for e in md.S[0]) or _unitarity_witness(md):
        return _verlinde_exact(md)
    r = md.rank
    planes = [[None] * (x + 1) for x in range(r)]
    if not _fill(md, _split_tree(md), planes, _unit_rows(r)):
        return _verlinde_exact(md)
    return _fusion_from_planes(md, planes)


def _fusion_from_planes(md: ModularDatum, planes) -> FusionTensor:
    """The tensor with N[x][y] = planes[x][y] for y <= x, completed by
    commutativity."""
    r = md.rank
    full = tuple((*planes[x], *(planes[y][x] for y in range(x + 1, r))) for x in range(r))
    return FusionTensor(md.labels, full)


def _unit_rows(r: int) -> list[tuple[int, ...]]:
    """The unit vectors of length r, shared by every simple product."""
    zeros = (0,) * r
    return [zeros[:z] + (1,) + zeros[z + 1 :] for z in range(r)]


def _fill(md: ModularDatum, node, planes, units) -> bool:
    """Set planes[x][y] = N[x][y] for every pair y <= x in the block of a
    split tree node; False when a leaf's candidate step has no values or
    its certificate fails (see `verlinde_fusion`).  A cross row whose two
    factor rows are unit vectors is the shared unit row."""
    block = node.block
    if not node.parts:
        if _match(md, planes, block, units):
            return True
        duals = _charge_conjugation(md)[0]
        rows = None if duals is None else _verlinde_candidates(md, planes, duals, block)
        if rows is None or not _verlinde_certified(md, rows, block):
            return False
        for (x, y), row in rows.items():
            planes[x][y] = row
        return True
    if not all(_fill(md, part, planes, units) for part in node.parts):
        return False
    R1, R2 = (part.block for part in node.parts)
    s1, s2 = _supports(planes, R1), _supports(planes, R2)
    table = node.table
    where = {z: (u, v) for u, line in zip(R1, table) for v, z in zip(R2, line)}
    r = md.rank
    for a, x in enumerate(block):
        u1, v1 = where[x]
        px = planes[x]
        for y in block[: a + 1]:
            if px[y] is None:
                u2, v2 = where[y]
                p = s1[id(planes[max(u1, u2)][min(u1, u2)])]
                q = s2[id(planes[max(v1, v2)][min(v1, v2)])]
                if len(p) == len(q) == 1 and p[0][1] == q[0][1] == 1:
                    px[y] = units[table[p[0][0]][q[0][0]]]
                    continue
                row = [0] * r
                for i, n in p:
                    line = table[i]
                    for j, k in q:
                        row[line[j]] = n * k
                px[y] = tuple(row)
    return True


def _supports(N, block) -> dict:
    """{id(row): [(position in block, multiplicity)] over the support of
    row} for the rows N[x][y] at every y <= x in block, which must be
    sorted, and whose rows must have their support inside block.  N is the
    planes of `_fill` or a fusion tensor, read in the lower triangle only.
    A mirrored pair shares its row object, and so does every simple product
    with one result, so each distinct row object is read once."""
    n = len(block)
    out = {}
    for i, x in enumerate(block):
        Nx = N[x]
        for y in block[: i + 1]:
            row = Nx[y]
            if id(row) not in out:
                out[id(row)] = [(k, row[block[k]]) for k in compress(range(n), map(row.__getitem__, block))]
    return out


def _pair_rows(md: ModularDatum, block):
    """The modulus of the pair ring and {x: the residues of A[x][c] for c
    in block} for every x in block (see `_pair_ring`)."""
    ring, residues = _pair_ring(md)
    cells = _entries(md)[1]
    return ring.modulus, {
        x: list(map(residues.__getitem__, map(cells[x].__getitem__, block))) for x in block
    }


def _match(md: ModularDatum, planes, block, units) -> bool:
    """Set planes[x][y] = units[z] for the pairs y <= x in block whose
    product is an object z of block by the match in the columns of block
    (see `verlinde_fusion`); True when every pair matched.  The key of z is
    the residues of A[0][c] A[z][c]; a pair forms its products only when
    A[x][0] A[y][0] is the unit-column residue of some key."""
    m, a = _pair_rows(md, block)
    mod = repeat(m)
    keys = {tuple(map(operator.mod, map(operator.mul, a[0], a[z]), mod)): z for z in block}
    firsts = {key[0] for key in keys}
    every = True
    for i, x in enumerate(block):
        ax, px = a[x], planes[x]
        for y in block[: i + 1]:
            ay = a[y]
            z = None
            if ax[0] * ay[0] % m in firsts:
                z = keys.get(tuple(map(operator.mod, map(operator.mul, ax, ay), mod)))
            if z is None:
                every = False
            else:
                px[y] = units[z]
    return every


# a node of a split tree: a sorted block of objects, and either no parts
# (a leaf) or the nodes of R1 and R2 with table[i][j] = R1[i] tensor R2[j]
_Split = namedtuple("_Split", "block parts table")


def _nodes(tree: _Split):
    """The nodes of a split tree, each before its parts."""
    yield tree
    for part in tree.parts:
        yield from _nodes(part)


@_kept_on_datum
def _split_tree(md: ModularDatum) -> _Split:
    """The objects split into tensor factors from S alone, in the pair
    ring: each block that `_centralizer_split` splits and `_product_table`
    checks is split again, and the others are leaves.  A datum with some
    S[0][c] zero is one leaf, since the match then decides nothing (see
    `verlinde_fusion`)."""
    def split(block):
        found = _centralizer_split(md, block)
        table = found and _product_table(md, block, *found)
        if not table:
            return _Split(block, (), None)
        return _Split(block, tuple(map(split, found)), table)

    if any(e.is_zero() for e in md.S[0]):
        return _Split(range(md.rank), (), None)
    return split(range(md.rank))


def _centralizer_split(md: ModularDatum, block):
    """A proposed split (R1, R2) of block into two sorted lists of more
    than one object, with |R1| |R2| = |block| and only the unit in both, or
    None, as always when block has fewer than 4 objects or a prime number
    of them.  Nothing is assumed of it: `_product_table` checks it.

    The centralizer of a set U in block is the y in block with
    S[u][y] S[0][0] = S[u][0] S[0][y] for every u in U, decided in the pair
    ring.  R2 is the centralizer of one object, and R1 the centralizer of
    R2.  For a modular datum, when R2 meets R1 only in the unit, R2 is a
    modular subcategory and the block is R1 tensor R2 (Mueger, Proc.
    London Math. Soc. 87 (2003)).  Single-object centralizers are tried
    from the smallest, sizes first: twelve 4-object ones in so5level9-1
    tensor so5level9-2 meet their own centralizer only in the unit, but
    give an R1 of 4 objects.
    """
    n = len(block)
    if n < 4 or _is_prime(n):
        return None
    m, a = _pair_rows(md, block)
    d = a[0]
    one = d[0]
    # the positions in block of the objects that centralize each object
    central = [
        frozenset(j for j, (v, e) in enumerate(zip(ax, d)) if (v * one - ax[0] * e) % m == 0)
        for ax in a.values()
    ]
    for R2 in sorted(set(central), key=lambda R: (len(R), sorted(R))):
        if 1 < len(R2) < n and n % len(R2) == 0:
            R1 = frozenset.intersection(*(central[j] for j in R2))
            if len(R1) * len(R2) == n and len(R1 & R2) == 1:
                return [block[i] for i in sorted(R1)], [block[j] for j in sorted(R2)]
    return None


def _product_table(md: ModularDatum, block, R1, R2):
    """table[i][j] = the object R1[i] tensor R2[j], when every object of
    R1 centralizes every object of R2, every such product is simple by the
    match in the columns of block, and the products are the objects of
    block, each once; else None.  Decided in the pair ring; these are the
    facts that (K) of `verlinde_fusion` rests on."""
    m, a = _pair_rows(md, block)
    pos = {z: k for k, z in enumerate(block)}
    d = a[0]
    one = d[0]
    if any((a[u][pos[v]] * one - a[u][0] * d[pos[v]]) % m for u in R1 for v in R2):
        return None
    mod = repeat(m)
    keys = {tuple(map(operator.mod, map(operator.mul, d, a[z]), mod)): z for z in block}
    table = [
        [keys.get(tuple(map(operator.mod, map(operator.mul, a[u], a[v]), mod))) for v in R2]
        for u in R1
    ]
    if any(None in line for line in table) or sorted(z for line in table for z in line) != list(block):
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


def _verlinde_certified(md: ModularDatum, rows, columns) -> bool:
    """Whether S[0][c] * sum_z N[x][y][z] S[z][c] == S[x][c] S[y][c] holds
    exactly for every (x, y): N[x][y] in rows and every c in columns.  For
    the rows of a leaf of the split tree, the leaf's columns decide every
    column (see `verlinde_fusion`); any other rows need every column.

    With A = L S integral, each equation is decided in Z/m (see
    `ResidueMap`) as sum_z N[x][y][z] A[0][c] A[z][c] - A[x][c] A[y][c] = 0.
    Its bound is the largest row sum in rows times max ||A[0][c]||_1 times
    max ||A[z][c]||_1, plus max ||A[x][c]||_1^2, over c in columns.
    """
    r = md.rank
    L, N, norms = _integral_s(md)
    top = max(norms[z][c] for z in range(r) for c in columns)
    fused = max(map(sum, rows.values()), default=0)
    ring = ResidueMap(N, fused * max(norms[0][c] for c in columns) * top + top * top)
    m = ring.modulus
    a = _sub_entries(md, lambda e: ring(e, L), range(r), columns)
    # A[z][c] is the image of A[0][c] A[z][c]; all columns go at once
    A = [[u * v % m for u, v in zip(a[0], az)] for az in a]
    mod = repeat(m)
    for (x, y), row in rows.items():
        terms = [A[z] if k == 1 else [k * v for v in A[z]] for z, k in enumerate(row) if k]
        lhs = map(sum, zip(*terms)) if terms else repeat(0, len(columns))
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


def _balancing_witness(md: ModularDatum, N, block) -> str:
    """The first (x, y) of block, y >= x, at which the balancing relation

        theta_x theta_y S[x][y] = sum_z N[x][y][z] dim(z) theta_z

    fails, as a witness, or "" when it holds on every pair of block;
    theta is the inverse of T, and every row N[x][y] must have its support
    inside block.  This is the trace of the ribbon axiom on x tensor y;
    stating it with the dual of x on the right requires S[x*][y] on the
    left, so the undualized form is the one that holds for every datum.

    With A = L S integral, each relation is decided in Z/m (see
    `ResidueMap`) at the lcm of the S conductors and the T orders in
    block.  A twist has norm 1, so max ||A[x][y]||_1 plus the largest
    fusion row sum times max ||A[0][z]||_1, over block, bounds every
    relation.

    Each sum runs over the support of N[x][y] only, read once per distinct
    row object (see `_supports`); N is commutative, so each row is looked
    up in the lower triangle, as N[y][x].
    """
    n = len(block)
    L, n_s, norms = _integral_s(md)
    terms = _supports(N, block)
    fused = max(sum(k for _, k in t) for t in terms.values())
    ring = ResidueMap(
        math.lcm(n_s, *(md.T[x].order for x in block)),
        max(norms[x][y] for x in block for y in block) + fused * max(norms[0][z] for z in block),
    )
    m = ring.modulus
    theta = [ring.root(md.T[x].inverse()) for x in block]
    a = _sub_entries(md, lambda e: ring(e, L), block, block)
    dim_theta = [d * t % m for d, t in zip(a[0], theta)]
    for i, x in enumerate(block):
        ax, tx = a[i], theta[i]
        for j in range(i, n):
            rhs = sum(k * dim_theta[z] for z, k in terms[id(N[block[j]][x])])
            if (tx * theta[j] * ax[j] - rhs) % m:
                return f"balancing fails at ({md.labels[x]}, {md.labels[block[j]]})"
    return ""


def _factors_balanced(md: ModularDatum) -> bool:
    """Whether the split tree proves the balancing relation for the tensor
    of `verlinde_fusion`, which must exist, on a unitary S: T[u v] =
    T[u] T[v] at every split, and the relation holds on the pairs inside
    every leaf (see `verify`)."""
    tree = _split_tree(md)
    if not tree.parts:
        return False
    N, T = verlinde_fusion(md).N, md.T
    for node in _nodes(tree):
        if node.parts:
            R1, R2 = (part.block for part in node.parts)
            if any(T[z] != T[u] * T[v] for u, line in zip(R1, node.table) for v, z in zip(R2, line)):
                return False
        elif _balancing_witness(md, N, node.block):
            return False
    return True


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

    Unitarity is one Gram scan per block (see `_gram_miss`), and charge
    conjugation matches rows in the pair ring (see `_charge_conjugation`).
    On data with a split tree (see `_split_tree`), unitarity and balancing
    are decided inside its leaves first.  At a split of a block B into R1
    and R2, (K) of `verlinde_fusion` gives, for x = u v and x' = u' v',

        sum_{c in B} S[x][c] conj(S[x'][c]) = G1[u][u'] G2[v][v'],

    with G_i the same sum over the columns of R_i, and D_B = D_R1 D_R2 for
    D_B the sum of dim(c)^2 over B, since dimensions multiply.  So
    G_i = D_Ri I on both factors gives the relation on B, and, by
    induction, S Sbar^T = D I at the root.  On a unitary S, (K) at u = u'
    the unit makes G2 a multiple of I, so the formula's rows at pairs
    inside R1, which by (K) are the formula over R1 times G2[0] / D_R2,
    lie inside R1; the tensor is then the Kronecker product of its rows
    inside the factors (see `verlinde_fusion`).  With T[u v] = T[u] T[v],
    checked exactly at every split, both sides of the balancing relation
    at (u v, u' v') are the products of the two sides at (u, u') and at
    (v, v'), so balancing inside every leaf gives balancing everywhere.
    When a leaf or a T product fails, or S has no split, the same scan
    runs on the whole datum, which gives the verdict and the first witness.
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
    # their residues in the pair ring, which decides entry equality
    # exactly (see `_charge_conjugation`)
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
        bal_bad = "" if not unitary_bad and _factors_balanced(md) else _balancing_witness(md, ft.N, range(md.rank))
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
