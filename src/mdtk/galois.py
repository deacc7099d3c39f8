"""Galois action on modular data.

Every automorphism zeta -> zeta^k of a cyclotomic field containing the S
entries and the normalized T entries permutes the objects of a modular
datum.  The permutation is recovered by matching conjugated ratio columns
S[x][y] / S[0][y] against the original ones; the working conductor is the
lcm of 12 times the T order with the conductors of the stored S entries,
which contains every value the identities mention.

The ratio columns lie in Q(zeta_m), m the lcm of the S entry conductors,
which divides the working conductor N.  So sigma-hat_k depends only on
k mod m (Coste-Gannon, Phys. Lett. B 1994; Dong-Lin-Ng, ANT 2015): it is
computed once per residue mod m and shared by every unit mod N in that
class.  The dimensions and D lie in Q(zeta_m) too, so the dimension
identity is checked once per residue, which still covers every unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclo import Cyc, rational, unit_group_generators, units_mod
from .construct import deligne_product
from .modular import (
    Check,
    DegenerateDataError,
    ModularDatum,
    NotModularError,
    VerificationReport,
    _kept_on_datum,
    dims,
    fs_exponent,
    global_dim,
    ndim,
    normalized_t,
    verify,
)

__all__ = [
    "GaloisPermutation",
    "working_conductor",
    "galois_permutation",
    "orbit",
    "orbit_t",
    "conjugate_category",
    "bar_category",
    "verify_galois_identities",
]


@dataclass(frozen=True)
class GaloisPermutation:
    """The permutation of objects induced by zeta -> zeta^k."""

    k: int
    mapping: tuple[int, ...]
    labels: tuple[str, ...]

    def index(self, i: int) -> int:
        return self.mapping[i]

    def __call__(self, label: str) -> str:
        return self.labels[self.mapping[self.labels.index(label)]]


@_kept_on_datum
def working_conductor(md: ModularDatum) -> int:
    """Conductor of a cyclotomic field containing the S entries and every
    normalized T entry: lcm of 12 * (T order) and the stored S conductors."""
    N = 12 * fs_exponent(md)
    for row in md.S:
        for e in row:
            N = math.lcm(N, e.n)
    return N


@dataclass(frozen=True)
class _RatioColumns:
    """The ratio columns S[x][y] / S[0][y] over a table of their distinct
    values.  Every value is lifted once to `conductor`, the lcm of the S
    entry conductors, so equal values have equal (den, num); `ids` maps that
    key to the value's position in `values`, `columns[y]` holds the ids of
    column y, and `carriers` maps an id tuple to the columns carrying it, in
    increasing order."""

    conductor: int
    values: tuple[Cyc, ...]
    ids: dict
    columns: tuple[tuple[int, ...], ...]
    carriers: dict


@_kept_on_datum
def _ratio_columns(md: ModularDatum) -> _RatioColumns:
    r = md.rank
    S = md.S
    m = math.lcm(*(e.n for row in S for e in row))
    values: list[Cyc] = []
    ids: dict = {}
    columns = []
    for y in range(r):
        if S[0][y].is_zero():
            raise NotModularError(
                f"S[0][{md.labels[y]}] is zero; ratio columns undefined"
            )
        inv = S[0][y].inverse()
        col = []
        for x in range(r):
            v = (S[x][y] * inv).lift(m)
            key = (v.den, v.num)
            if key not in ids:
                ids[key] = len(values)
                values.append(v)
            col.append(ids[key])
        columns.append(tuple(col))
    carriers: dict = {}
    for y, col in enumerate(columns):
        carriers[col] = carriers.get(col, ()) + (y,)
    return _RatioColumns(m, tuple(values), ids, tuple(columns), carriers)


@_kept_on_datum
def _matching_at(md: ModularDatum, j: int) -> tuple[tuple[int, ...], ...]:
    """For each column y, the columns whose ratio column is the image of
    column y under zeta_m -> zeta_m^j, with m the ratio conductor.  The
    automorphism is applied once per distinct value, and each image column
    is looked up by its ids; an image outside the table has no id and so
    matches no column."""
    table = _ratio_columns(md)
    image = [table.ids.get((w.den, w.num)) for w in (v.galois(j) for v in table.values)]
    return tuple(
        table.carriers.get(tuple(image[i] for i in col), ()) for col in table.columns
    )


@_kept_on_datum
def galois_permutation(md: ModularDatum, k: int) -> GaloisPermutation:
    """The permutation sigma-hat with
    sigma_k(S[x][y] / S[0][y]) = S[x][sigma-hat(y)] / S[0][sigma-hat(y)].

    The ratio columns lie in Q(zeta_m), m the lcm of the S entry conductors,
    so sigma-hat depends only on k mod m (Coste-Gannon, Phys. Lett. B 1994):
    the matching is computed once per residue and kept on the datum, and
    every unit k mod the working conductor reads the one for its residue.

    Raises NotModularError when some conjugated column matches no object
    and DegenerateDataError when it matches more than one.
    """
    N = working_conductor(md)
    k %= N
    if math.gcd(k, N) != 1:
        raise ValueError(f"{k} is not a unit mod {N}")
    hits = _matching_at(md, k % _ratio_columns(md).conductor)
    for y, h in enumerate(hits):
        if not h:
            raise NotModularError(
                f"no object realizes the conjugate of column {md.labels[y]} under k = {k}"
            )
        if len(h) > 1:
            raise DegenerateDataError(
                f"columns {[md.labels[i] for i in h]} coincide; Galois matching is ambiguous"
            )
    # every column's image is a column that occurs once, and sigma_k is
    # injective, so every column occurs once and the mapping is a permutation
    return GaloisPermutation(k, tuple(h[0] for h in hits), md.labels)


def _first_per_class(ks, m: int):
    """The first k of each residue class mod m, in the order given."""
    seen = set()
    for k in ks:
        if k % m not in seen:
            seen.add(k % m)
            yield k


def _distinct_permutations(md: ModularDatum, squares: bool) -> list[GaloisPermutation]:
    """sigma-hat at the first unit k mod N of each class mod the ratio
    conductor (at k^2 with squares), which are all the distinct ones; a
    failure is raised at the same k as a sweep over every unit would."""
    N = working_conductor(md)
    m = _ratio_columns(md).conductor
    ks = ((k * k) % N for k in units_mod(N)) if squares else units_mod(N)
    return [galois_permutation(md, k) for k in _first_per_class(ks, m)]


def orbit(md: ModularDatum, label: str) -> set[str]:
    """Labels reachable from the given object under all sigma-hat."""
    x = md.index(label)
    return {md.labels[p.index(x)] for p in _distinct_permutations(md, False)}


def orbit_t(md: ModularDatum, label: str) -> tuple[set[str], Cyc]:
    """The suborbit of the object under the squared units (the image of
    sigma-hat restricted to k^2) and the sum of squared dimensions over it."""
    x = md.index(label)
    idxs = {p.index(x) for p in _distinct_permutations(md, True)}
    d = dims(md)
    total = rational(0)
    for i in idxs:
        total = total + d[i] * d[i]
    return {md.labels[i] for i in idxs}, total


def conjugate_category(md: ModularDatum, k: int) -> ModularDatum:
    """Entrywise Galois conjugate: sigma_k on S and exponent scaling on T.
    The result is verified; failure means the input was not modular."""
    N = working_conductor(md)
    k %= N
    if math.gcd(k, N) != 1:
        raise ValueError(f"{k} is not a unit mod {N}")
    if k == 1:
        return md
    S = [[e.galois(k) for e in row] for row in md.S]
    T = [t**k for t in md.T]
    name = f"{md.name or 'datum'}^s{k}"
    out = ModularDatum(md.labels, S, T, name=name)
    rep = verify(out)
    if not rep.ok:
        raise NotModularError(
            f"Galois conjugate k = {k} fails verification: "
            + "; ".join(c.name for c in rep.failures)
        )
    return out


def bar_category(md: ModularDatum) -> ModularDatum:
    """Product of one conjugate per embedding of Q(global dim): the result
    has global dimension equal to the integer norm of the original and the
    same T order."""
    D = global_dim(md)
    N = working_conductor(md)
    reps = []
    seen: list[Cyc] = []
    # D.galois(k) depends only on k mod the conductor of D
    for k in _first_per_class(units_mod(N), D.n):
        v = D.galois(k)
        if not any(v == w for w in seen):
            seen.append(v)
            reps.append(k)
    out = None
    for k in reps:
        c = conjugate_category(md, k)
        out = c if out is None else deligne_product(out, c)
    if len(reps) > 1:
        out.name = f"bar({md.name or 'datum'})"
    if global_dim(out) != ndim(md):
        raise NotModularError("product over conjugates does not have norm dimension")
    if fs_exponent(out) != fs_exponent(md):
        raise NotModularError("product over conjugates changed the T order")
    return out


def verify_galois_identities(
    md: ModularDatum, generators_only: bool = False
) -> VerificationReport:
    """Check the Galois identities: existence of the permutation,
    multiplicativity, the dimension identity

        dim(sigma-hat X)^2 = (D / sigma(D)) * sigma(dim(X)^2)

    and the squared action on the normalized T:

        sigma^2(t[X]) = t[sigma-hat X].

    By default every unit of the working conductor is swept.  The
    dimension identity at k involves only d, D and sigma-hat_k, which all
    depend on k through k mod m, the lcm of the S entry conductors
    (Coste-Gannon, Phys. Lett. B 1994), so it runs on the first unit of
    each class mod m: this covers every unit, and the first failure is
    reported at the same k as a check of every unit would report it.  The
    t-squared identity runs on every unit.  With generators_only the
    pointwise identities run on the unit group generators alone; since
    each identity for a product of units follows from the identities for
    the factors, this is a sound spot check.

    Multiplicativity is decided by its prerequisite: once the permutation
    exists at the units swept, sigma-hat_jk = sigma-hat_j sigma-hat_k for
    all units j, k, so the check passes whenever it is reached.
    """
    checks: list[Check] = []
    N = working_conductor(md)
    units = (
        unit_group_generators(N) or (1,) if generators_only else units_mod(N)
    )
    r = md.rank

    missing = None
    for k in units:
        try:
            galois_permutation(md, k)
        except (NotModularError, DegenerateDataError) as e:
            missing = f"k = {k}: {e}"
            break
    checks.append(Check("permutation-exists", missing is None, missing or ""))
    if missing is not None:
        return VerificationReport(tuple(checks))

    # sigma_jk = sigma_j sigma_k on Q(zeta_m) carries column y to column
    # sigma-hat_j(sigma-hat_k(y)), and matches are unique, so
    # sigma-hat_jk = sigma-hat_j sigma-hat_k
    checks.append(Check("homomorphism", True))

    D = global_dim(md)
    d2 = [dx * dx for dx in dims(md)]
    dim_bad = None
    for k in _first_per_class(units, _ratio_columns(md).conductor):
        perm = galois_permutation(md, k)
        Dk = D.galois(k)
        for x in range(r):
            # D != 0, so this is d[sigma-hat X]^2 = (D / sigma(D)) sigma(d_X^2)
            if d2[perm.index(x)] * Dk != D * d2[x].galois(k):
                dim_bad = f"dimension identity fails at k = {k}, X = {md.labels[x]}"
                break
        if dim_bad:
            break
    checks.append(Check("dim-identity", dim_bad is None, dim_bad or ""))

    try:
        # ord(t[X]) divides 12 FSexp, which divides N, so sigma_k2 acts on
        # t[X] as the power k2
        t = normalized_t(md)[1]
        t_bad = None
        for k in units:
            perm = galois_permutation(md, k)
            k2 = (k * k) % N
            for x in range(r):
                if t[x] ** k2 != t[perm.index(x)]:
                    t_bad = f"t identity fails at k = {k}, X = {md.labels[x]}"
                    break
            if t_bad:
                break
        checks.append(Check("t-squared-identity", t_bad is None, t_bad or ""))
    except NotModularError as e:
        checks.append(Check("t-squared-identity", False, str(e)))

    return VerificationReport(tuple(checks))
