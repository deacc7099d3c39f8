"""Galois action on modular data.

Every automorphism zeta -> zeta^k of a cyclotomic field containing the S
entries and the normalized T entries permutes the objects of a modular
datum.  The permutation is recovered by matching conjugated ratio columns
S[x][y] / S[0][y] against the original ones; the working conductor is the
lcm of 12 times the T order with the conductors of the stored S entries,
which contains every value the identities mention.

No field division is formed.  The distinct ratio values are keyed in F_p
and told apart by cross-multiplying in Z/m (see `_ratio_classes`); a
conjugated value is looked up by its key and accepted on the same exact
certificate (see `_matching_at`).  The dimension identity is decided in
Z/m too.

Every identity and every orbit is decided on the generators of (Z/N)*, N
the working conductor; the other units are swept only to locate the first
failure (see `_first_failure`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cyclo import Cyc, ResidueMap, rational, unit_group_generators, units_mod
from .modular import (
    Check,
    DegenerateDataError,
    ModularDatum,
    NotModularError,
    VerificationReport,
    _entries,
    _fp_image,
    _integral_s,
    _kept_on_datum,
    _norm1,
    _pair_ring,
    _per_entry,
    _prime_powers,
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


class _RatioClasses(namedtuple("_RatioClasses", "prime powers reps buckets columns carriers")):
    """The distinct values of the ratio columns S[x][y] / S[0][y], built by
    `_ratio_classes`.  (prime, powers) is `_prime_powers` at the S
    conductor; with A = L S, class c is the value A[e] / A[n] of the pair
    reps[c] of entry numbers (see `_entries`);
    `buckets` maps an F_p key to the classes that have it, or is None when
    the classes are not keyed; `columns[y]` holds the classes of column y,
    and `carriers` maps a class tuple to the columns carrying it, in
    increasing order."""

    __slots__ = ()


@_kept_on_datum
def _ratio_classes(md: ModularDatum) -> _RatioClasses:
    """The ratio values of md as exact classes, keyed in F_p.

    With A = L S integral, m the lcm of the S conductors and (p, z) from
    `_candidate_prime(m)`, phi: zeta_m -> z is a ring map Z[zeta_m] -> F_p
    (see `_verlinde_candidates`).  The ratio A[x][y] / A[0][y] is the pair
    (A[x][y], A[0][y]) of distinct entries, and when phi(A[0][y]) != 0 its
    key is phi(A[x][y]) / phi(A[0][y]) in F_p.  Equal ratios have equal
    keys, since a/b = a'/b' gives a b' = a' b and phi is a ring map.  So
    each pair is compared only with the classes of its key, by
    cross-multiplying: a b' - a' b has every |sigma| at most 2 top^2, with
    top the largest ||A[x][y]||_1, and the pair ring decides it exactly
    (see `_pair_ring`).  The classes are the distinct ratio values.  When some
    normalizer maps to 0, no pair is keyed and each is compared with every
    class, which is exact too.
    """
    r = md.rank
    for y, e in enumerate(md.S[0]):
        if e.is_zero():
            raise NotModularError(
                f"S[0][{md.labels[y]}] is zero; ratio columns undefined"
            )
    L, m, _ = _integral_s(md)
    ring, residues = _pair_ring(md)
    M = ring.modulus
    p, powers = _prime_powers(m)
    values, cells = _entries(md)
    images = [_fp_image(e, L, p, powers) for e in values]
    keyed = all(images[n] for n in cells[0])
    inverses = {n: pow(images[n], -1, p) for n in cells[0]} if keyed else {}
    reps: list[tuple[int, int]] = []
    buckets: dict = {}
    pairs: dict = {}
    columns = []
    for y in range(r):
        n = cells[0][y]
        col = []
        for x in range(r):
            pair = (cells[x][y], n)
            c = pairs.get(pair)
            if c is None:
                e = pair[0]
                key = images[e] * inverses[n] % p if keyed else 0
                bucket = buckets.setdefault(key, [])
                c = _equal_class(bucket, reps, residues, residues[e], residues[n], M)
                if c is None:
                    c = len(reps)
                    reps.append(pair)
                    bucket.append(c)
                pairs[pair] = c
            col.append(c)
        columns.append(tuple(col))
    carriers: dict = {}
    for y, col in enumerate(columns):
        carriers[col] = carriers.get(col, ()) + (y,)
    return _RatioClasses(
        p, powers, tuple(reps), buckets if keyed else None, tuple(columns), carriers,
    )


def _equal_class(candidates, reps, residues, a, b, M):
    """The first class c among the candidates whose ratio equals a / b, or
    None: with reps[c] = (e, n), a residues[n] - residues[e] b = 0 mod M."""
    for c in candidates:
        e, n = reps[c]
        if not (a * residues[n] - residues[e] * b) % M:
            return c
    return None


@_kept_on_datum
def _matching_at(md: ModularDatum, j: int) -> tuple[tuple[int, ...], ...]:
    """For each column y, the columns whose ratio column is the image of
    column y under sigma_j: zeta_m -> zeta_m^j, with m the ratio conductor.

    Each S value and each class a / b is mapped once.  phi o sigma_j sends
    zeta_m to z^j, so when phi(sigma_j(b)) != 0 the image has the F_p key
    phi(sigma_j(a)) / phi(sigma_j(b)), and a class a' / b' equal to it has
    that key too (see `_ratio_classes`): only the classes of that key are
    candidates.  Otherwise, or when the classes are not keyed, every class
    is.  A candidate is accepted only when sigma_j(a) b' - a' sigma_j(b) is
    0 in the ring, which is exact: sigma_j permutes the powers of zeta_m,
    so it keeps every 1-norm and the bound 2 top^2 holds.  The classes are
    distinct values, so at most one candidate passes.  An image that is no
    class matches no column.
    """
    t = _ratio_classes(md)
    values = _entries(md)[0]
    ring, residues = _pair_ring(md)
    L, p = _integral_s(md)[0], t.prime
    every = range(len(t.reps))
    fp = [_fp_image(v, L, p, t.powers, j) for v in values]
    res = [ring(v, L, j) for v in values]
    image = []
    for e, n in t.reps:
        if t.buckets is None or not fp[n]:
            candidates = every
        else:
            candidates = t.buckets.get(fp[e] * pow(fp[n], -1, p) % p, ())
        image.append(_equal_class(candidates, t.reps, residues, res[e], res[n], ring.modulus))
    return tuple(
        t.carriers.get(tuple(image[c] for c in col), ()) for col in t.columns
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
    hits = _matching_at(md, k % _s_conductor(md))
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
    S = _per_entry(md, lambda e: e.galois(k))
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

    def identity(name, holds_at):
        """The first failure of holds_at(k)(x, sigma-hat_k x), as a witness."""
        def fails(k):
            perm = galois_permutation(md, k)
            holds = holds_at(k)
            for x in range(r):
                if not holds(x, perm.index(x)):
                    return f"{name} identity fails at k = {k}, X = {md.labels[x]}"
        return _first_failure(md, fails)

    # D != 0, so the dimension identity is d[sigma-hat X]^2 sigma(D) =
    # D sigma(d_X^2); with A = L S integral it is decided in Z/m as
    # A[0][y]^2 sigma(L^2 D) - L^2 D sigma(A[0][x])^2 = 0, bounded by
    # 2 max ||A[0][x]||_1^2 ||L^2 D||_1 (see `ResidueMap`)
    D = global_dim(md)
    L, m, norms = _integral_s(md)
    ring = ResidueMap(m, 2 * max(norms[0]) ** 2 * _norm1(D, L * L))
    M = ring.modulus
    d2 = [ring(e, L) ** 2 % M for e in md.S[0]]
    dim = ring(D, L * L)

    def dims_at(k):
        dim_k = ring(D, L * L, k)
        d2_k = [ring(e, L, k) ** 2 for e in md.S[0]]
        return lambda x, y: not (d2[y] * dim_k - dim * d2_k[x]) % M

    dim_bad = identity("dimension", dims_at)
    checks.append(Check("dim-identity", dim_bad is None, dim_bad or ""))

    try:
        # ord(t[X]) divides 12 FSexp, which divides N, so sigma_(k^2) acts on
        # t[X] as the power k^2
        t = normalized_t(md)[1]
        t_bad = identity("t", lambda k: lambda x, y: t[x] ** (k * k % N) == t[y])
        checks.append(Check("t-squared-identity", t_bad is None, t_bad or ""))
    except NotModularError as e:
        checks.append(Check("t-squared-identity", False, str(e)))

    return VerificationReport(tuple(checks))
