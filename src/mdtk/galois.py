"""Galois action on modular data.

Every automorphism zeta -> zeta^k of a cyclotomic field containing the S
entries and the normalized T entries permutes the objects of a modular
datum.  The permutation is recovered by matching conjugated ratio columns
S[x][y] / S[0][y] against the original ones; the working conductor is the
lcm of 12 times the T order with the conductors of the stored S entries,
which contains every value the identities mention.

Every identity and every orbit is decided on the generators of (Z/N)*, N
the working conductor; the other units are swept only to locate the first
failure (see `_first_failure`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cyclo import Cyc, rational, unit_group_generators, units_mod
from .modular import (
    Check,
    DegenerateDataError,
    ModularDatum,
    NotModularError,
    VerificationReport,
    _kept_on_datum,
    _s_conductor,
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


class GaloisPermutation(namedtuple("GaloisPermutation", "k mapping labels")):
    """The permutation of objects induced by zeta -> zeta^k."""

    __slots__ = ()

    def index(self, i: int) -> int:
        return self.mapping[i]

    def __call__(self, label: str) -> str:
        return self.labels[self.mapping[self.labels.index(label)]]


@_kept_on_datum
def working_conductor(md: ModularDatum) -> int:
    """Conductor of a cyclotomic field containing the S entries and every
    normalized T entry: lcm of 12 * (T order) and the stored S conductors."""
    return math.lcm(12 * fs_exponent(md), _s_conductor(md))


class _RatioColumns(namedtuple("_RatioColumns", "conductor values ids columns carriers")):
    """The ratio columns S[x][y] / S[0][y] over a table of their distinct
    values.  Every value is lifted once to `conductor`, the lcm of the S
    entry conductors, so equal values have equal (den, num); `ids` maps that
    key to the value's position in `values`, `columns[y]` holds the ids of
    column y, and `carriers` maps an id tuple to the columns carrying it, in
    increasing order."""

    __slots__ = ()


@_kept_on_datum
def _ratio_columns(md: ModularDatum) -> _RatioColumns:
    r = md.rank
    S = md.S
    m = _s_conductor(md)
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


def _first_failure(md: ModularDatum, fails):
    """The first unit k mod N, the working conductor, at which fails(k)
    returns a witness, or None.  fails runs at the generators of (Z/N)*,
    and at every unit, in increasing order, only once one of them fails.

    Each fails used here passes on a set of units closed under products,
    which in a finite group is a subgroup, so the generators decide it.
    - sigma-hat exists.  Coinciding columns fail at every g: sigma_g
      permutes the distinct column values (or some image is no column), so
      some image hits the repeated value and matches twice.  Otherwise
      sigma_jk = sigma_j sigma_k maps column y to the one column
      sigma-hat_j(sigma-hat_k(y)), so sigma-hat_jk = sigma-hat_j sigma-hat_k.
    - sigma-hat exists at k^2: the k with k^2 in a subgroup form one.
    - The identities, once sigma-hat exists everywhere: with
      f(X) = dim(X)^2 / D, sigma_jk(f(X)) = sigma_j(f(sigma-hat_k X)) =
      f(sigma-hat_jk X), and t[X]^((jk)^2) = t[sigma-hat_k X]^(j^2) =
      t[sigma-hat_jk X].
    - Orbits: the sigma-hat_g generate the image of sigma-hat, and the
      sigma-hat_(g^2) that of the squares; an orbit is the closure under
      the generators.
    """
    N = working_conductor(md)
    if not any(map(fails, unit_group_generators(N) or (1,))):
        return None
    return next(filter(None, map(fails, units_mod(N))))


def _permutation_error(md: ModularDatum, k: int):
    """The error galois_permutation(md, k) raises, or None."""
    try:
        galois_permutation(md, k)
    except (NotModularError, DegenerateDataError) as e:
        return e


def _closure(md: ModularDatum, label: str, power: int) -> set[int]:
    """The objects reached from the given one by sigma-hat at the k^power,
    as the closure under the generators (see `_first_failure`)."""
    x = md.index(label)
    N = working_conductor(md)
    error = _first_failure(md, lambda k: _permutation_error(md, pow(k, power, N)))
    if error:
        raise error
    gens = unit_group_generators(N) or (1,)
    perms = [galois_permutation(md, pow(g, power, N)).mapping for g in gens]
    reached = frontier = {x}
    while frontier:
        frontier = {p[y] for p in perms for y in frontier} - reached
        reached = reached | frontier
    return reached


def orbit(md: ModularDatum, label: str) -> set[str]:
    """Labels reachable from the given object under all sigma-hat."""
    return {md.labels[i] for i in _closure(md, label, 1)}


def orbit_t(md: ModularDatum, label: str) -> tuple[set[str], Cyc]:
    """The suborbit of the object under the squared units (the image of
    sigma-hat restricted to k^2) and the sum of squared dimensions over it."""
    idxs = _closure(md, label, 2)
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
    for k in units_mod(N):
        v = D.galois(k)
        if not any(v == w for w in seen):
            seen.append(v)
            reps.append(k)
    from .construct import deligne_product

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

    Each check holds at every unit of the working conductor exactly when
    it holds at the generators of the unit group, so it runs there, and a
    failure is reported at the first failing unit (see `_first_failure`).
    generators_only is accepted and has no effect.

    Multiplicativity is decided by its prerequisite: once the permutation
    exists at every unit, sigma-hat_jk = sigma-hat_j sigma-hat_k for all
    units j, k, so the check passes whenever it is reached.
    """
    checks: list[Check] = []
    N = working_conductor(md)
    r = md.rank

    def no_permutation(k):
        error = _permutation_error(md, k)
        return error and f"k = {k}: {error}"

    missing = _first_failure(md, no_permutation)
    checks.append(Check("permutation-exists", missing is None, missing or ""))
    if missing is not None:
        return VerificationReport(tuple(checks))
    checks.append(Check("homomorphism", True))

    def identity(name, holds):
        """The first failure of holds(k, x, sigma-hat_k x), as a witness."""
        def fails(k):
            perm = galois_permutation(md, k)
            for x in range(r):
                if not holds(k, x, perm.index(x)):
                    return f"{name} identity fails at k = {k}, X = {md.labels[x]}"
        return _first_failure(md, fails)

    D = global_dim(md)
    d2 = [dx * dx for dx in dims(md)]
    # D != 0, so this is d[sigma-hat X]^2 = (D / sigma(D)) sigma(d_X^2)
    dim_bad = identity("dimension", lambda k, x, y: d2[y] * D.galois(k) == D * d2[x].galois(k))
    checks.append(Check("dim-identity", dim_bad is None, dim_bad or ""))

    try:
        # ord(t[X]) divides 12 FSexp, which divides N, so sigma_(k^2) acts on
        # t[X] as the power k^2
        t = normalized_t(md)[1]
        t_bad = identity("t", lambda k, x, y: t[x] ** (k * k % N) == t[y])
        checks.append(Check("t-squared-identity", t_bad is None, t_bad or ""))
    except NotModularError as e:
        checks.append(Check("t-squared-identity", False, str(e)))

    return VerificationReport(tuple(checks))
