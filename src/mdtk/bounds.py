"""Arithmetic bounds on modular data.

The central statement: when the T order is a power of an odd prime it is
at most the integer norm of the global dimension, and when it is a power
of two it is at most four times that norm.  `bound_check` evaluates this
and flags the extremal cases; `extremal_classify` matches the fusion ring
of an extremal datum against the short list of shapes that can occur, each
the Verlinde fusion ring of a datum the library builds.
`lemma_orbit_bound` and `siegel_check` expose the two ingredients the
bound rests on, per object: a Galois orbit sum against a trace measure,
claimed on data whose dimensions are all integers, and the trace lower
bound for totally positive algebraic integers.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .cyclo import Cyc, _factorize, rational, units_mod
from .modular import (
    FusionTensor,
    ModularDatum,
    NotModularError,
    dims,
    fs_exponent,
    global_dim,
    invertibles,
    ndim,
    normalized_t,
    verlinde_fusion,
)

__all__ = [
    "BoundVerdict",
    "prime_power",
    "LemmaVerdict",
    "bound_check",
    "lemma_orbit_bound",
    "key_object",
    "siegel_check",
    "extremal_classify",
]


def prime_power(n: int) -> int | None:
    """The prime p when n = p^a with a >= 1, else None."""
    if n < 2:
        return None
    factors = _factorize(n)
    return factors[0][0] if len(factors) == 1 else None


class BoundVerdict(namedtuple(
    "BoundVerdict", "name fsexp ndim prime bound_holds extremal tier extremal_class",
    defaults=(None,),
)):
    """Outcome of the T order bound for one datum.

    prime is None when the T order is not a prime power (the bound is then
    vacuous and holds by convention).  tier records which multiple of the
    norm is attained in the extremal case: 1, 2 or 4 for p = 2 and always
    1 for odd p.  extremal_class, when asked for, names the fusion ring of
    an extremal datum as `extremal_classify` does; "unclassified" on data
    that are not pseudo-unitary is outside the classified case, not a gap.
    """

    __slots__ = ()

    def __str__(self):
        if self.prime is None:
            shape = "not a prime power; bound vacuous"
        else:
            cap = 4 * self.ndim if self.prime == 2 else self.ndim
            rel = "<=" if self.bound_holds else ">"
            shape = f"p = {self.prime}: {self.fsexp} {rel} {cap}"
        extra = ""
        if self.extremal:
            extra = f"  extremal (tier {self.tier})"
            if self.extremal_class:
                extra += f" class {self.extremal_class}"
        status = "ok" if self.bound_holds else "VIOLATED"
        return f"[{status}] {self.name}: FSexp = {self.fsexp}, Ndim = {self.ndim}; {shape}{extra}"


def _verdict(name: str, fs: int, nd: int) -> BoundVerdict:
    """The unclassified verdict for T order fs and norm nd: the prime of fs
    (None when fs is not a prime power), whether fs <= nd (odd p) or
    fs <= 4 nd (p = 2) holds, and the extremal tier: the t in (1, 2, 4) for
    p = 2, or 1 for odd p, with fs = t nd."""
    p = prime_power(fs)
    if p is None:
        holds, tier = True, None
    elif p == 2:
        holds, tier = fs <= 4 * nd, next((t for t in (1, 2, 4) if fs == t * nd), None)
    else:
        holds, tier = fs <= nd, 1 if fs == nd else None
    return BoundVerdict(name=name, fsexp=fs, ndim=nd, prime=p, bound_holds=holds,
                        extremal=tier is not None, tier=tier)


def bound_check(md: ModularDatum, classify: bool = False) -> BoundVerdict:
    """Evaluate the prime power bound FSexp <= Ndim (odd p) or
    FSexp <= 4 Ndim (p = 2) and detect equality tiers."""
    v = _verdict(md.name or "datum", fs_exponent(md), ndim(md))
    if classify and v.extremal:
        v = v._replace(extremal_class=extremal_classify(md))
    return v


# ---------------------------------------------------------------------------
# the per-object orbit bound


class LemmaVerdict(namedtuple(
    "LemmaVerdict", "label applicable note orbit_labels orbit_sum degree m_value holds",
    defaults=("", (), None, None, None, None),
)):
    """Result of the orbit bound for one object: the sum of squared
    dimensions over the squared-Galois suborbit must be at least
    [Q(t[X]) real part : Q] * M(dim X), where M is the mean squared
    conjugate.

    The bound is claimed only for data whose dimensions are all integers.
    `applicable` records the weaker fact that the global dimension is a
    rational integer, so holds=False on other data with integer global
    dimension, such as the unit of Ising, is not a violation."""

    __slots__ = ()

    def __str__(self):
        if not self.applicable:
            return f"[skip] {self.label}: {self.note}"
        status = "ok" if self.holds else "FAIL"
        return (
            f"[{status}] {self.label}: orbit sum {self.orbit_sum} vs "
            f"{self.degree} * {self.m_value}"
        )


def _square_galois_degree(m: int) -> int:
    # number of distinct squares in the unit group mod m, which is the
    # size of the image of squaring on Gal(Q(zeta_m)/Q); the squared
    # orbit of an object with twist of order m is separated by at least
    # this many distinct twist values, so it is the factor the orbit
    # bound can support.  It equals phi(m)/2 exactly when the unit
    # group has a single element of order two (m = 4, p^k, 2p^k) and is
    # smaller otherwise, e.g. 1 at m = 12 and phi(m)/4 at 2-powers >= 8
    return len({k * k % m for k in units_mod(m)})


def lemma_orbit_bound(md: ModularDatum, label: str) -> LemmaVerdict:
    """Evaluate the orbit bound at one object.  The degree is read off the
    order of t[X] in the normalized T, t = T * gamma (`normalized_t`).  The
    comparison is exact: the orbit sum is totally real and is compared with
    the rational bound through a certified sign computation.

    The bound is claimed only when every dimension of md is an integer;
    see `LemmaVerdict`.  Raises KeyError when md has no object label."""
    x = md.index(label)
    D = global_dim(md)
    if not (D.is_rational() and D.as_fraction().denominator == 1):
        return LemmaVerdict(
            label=label,
            applicable=False,
            note="global dimension is not a rational integer",
        )
    from .galois import orbit_t

    deg = _square_galois_degree(normalized_t(md)[1][x].order)
    m_val = dims(md)[x].m_measure()
    labels, total = orbit_t(md, label)
    bound = Fraction(deg) * m_val
    holds = total.compare_real(rational(bound)) >= 0
    return LemmaVerdict(
        label=label,
        applicable=True,
        orbit_labels=tuple(sorted(labels)),
        orbit_sum=total,
        degree=deg,
        m_value=m_val,
        holds=holds,
    )


def key_object(md: ModularDatum) -> str:
    """For data whose T order is a prime power, a label X with
    FSexp | ord(t[X]) for the normalized T, t = T * gamma (`normalized_t`);
    such an object always exists because the lcm of the normalized orders is
    a multiple of FSexp."""
    fs = fs_exponent(md)
    if prime_power(fs) is None:
        raise NotModularError(f"T order {fs} is not a prime power")
    for i, t in enumerate(normalized_t(md)[1]):
        if t.order % fs == 0:
            return md.labels[i]
    raise NotModularError("no object attains the full T order after normalization")


def siegel_check(alpha) -> bool:
    """Trace bound for a totally positive algebraic integer alpha: either
    alpha = 1 or Tr(alpha) >= (3/2) [Q(alpha):Q].  Raises ValueError when
    alpha is not a totally positive algebraic integer."""
    a = alpha if isinstance(alpha, Cyc) else rational(alpha)
    if not a.is_totally_real():
        raise ValueError("siegel_check requires a totally real argument")
    if not a.is_totally_positive():
        raise ValueError("siegel_check requires a totally positive argument")
    if not a.is_algebraic_integer():
        raise ValueError("siegel_check requires an algebraic integer")
    if a == 1:
        return True
    tr, _ = a.trace_norm()
    return tr >= Fraction(3, 2) * a.degree()


# ---------------------------------------------------------------------------
# classification of the extremal fusion rings


@lru_cache(maxsize=None)
def _templates(rank: int) -> tuple[tuple[str, FusionTensor], ...]:
    """The Verlinde fusion rings of the template data of this rank; data of
    other ranks are not built."""
    from .construct import MetricGroup, deligne_product, fibonacci, ising, pointed

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


def _invertible_group_cyclic(ft: FusionTensor) -> bool:
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


def extremal_classify(md: ModularDatum) -> str:
    """Name the fusion ring of an extremal datum.

    Returns one of pointed-cyclic, pointed-other, fibonacci, ising-x-ising,
    ising-x-pointed(1), ising-x-pointed(2), ising-x-pointed(4), or
    unclassified when the ring matches none of the shapes.  The name is
    that of a fusion ring, not of a datum: the Galois conjugate fibonacci-2,
    which is not pseudo-unitary, is named fibonacci too.

    The paper describes the extremal cases completely only for
    pseudo-unitary data, and the shapes follow that description.  So
    unclassified on data that are not pseudo-unitary, such as the
    so5level9 family (FSexp 9 = Ndim 9, FPdim about 74.6), is outside the
    classified case and is not a gap in the shapes; no hypothesis is
    checked here, and `fpdim_pseudounitary` tells the two apart."""
    ft = verlinde_fusion(md)
    r = md.rank
    if len(invertibles(ft)) == r:
        return "pointed-cyclic" if _invertible_group_cyclic(ft) else "pointed-other"
    for name, tmpl in _templates(r):
        if _fusion_isomorphic(ft, tmpl):
            return name
    return "unclassified"
