"""Arithmetic bounds on modular data.

The central statement: when the T order is a power of an odd prime it is
at most the integer norm of the global dimension, and when it is a power
of two it is at most four times that norm.  `bound_check` evaluates this
and flags the extremal cases; `extremal_classify` names the fusion ring
of an extremal datum among the short list of shapes that can occur, from
the tensor factors that the split tree finds in S.
`lemma_orbit_bound` and `siegel_check` expose the two ingredients the
bound rests on, per object: a Galois orbit sum against a trace measure,
claimed on data whose dimensions are all integers, and the trace lower
bound for totally positive algebraic integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .cyclo import Cyc, _factorize, rational, units_mod
from .modular import (
    FusionTensor,
    ModularDatum,
    NotModularError,
    _nodes,
    _split_tree,
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


def _invertible_group_cyclic(ft: FusionTensor) -> bool:
    """Whether some object of a pointed ring has order equal to the rank."""
    r = ft.rank
    for x in range(r):
        order = 1
        y = x
        while y != 0:
            y = ft.N[x][y].index(1)
            order += 1
        if order == r:
            return True
    return False


def _leaf_kind(N, block, invertible) -> str:
    """pointed, ising, fibonacci or other: the subring on a leaf block of
    the split tree, read in the fusion tensor N.  The block is sorted with
    the unit first.  ising has one object x that is not invertible, and
    x x = 1 + psi for the other object psi; fibonacci has tau tau =
    1 + tau.  Either ring is fixed by these products."""
    rest = [x for x in block if x not in invertible]
    if not rest:
        return "pointed"
    if len(rest) == 1:
        x = rest[0]
        square = [N[x][x][z] for z in block]
        if len(block) == 2 and square == [1, 1]:
            return "fibonacci"
        if len(block) == 3 and square == [int(z != x) for z in block]:
            return "ising"
    return "other"


def extremal_classify(md: ModularDatum) -> str:
    """Name the fusion ring of an extremal datum.

    Returns one of pointed-cyclic, pointed-other, fibonacci, ising-x-ising,
    ising-x-pointed(1), ising-x-pointed(2), ising-x-pointed(4), or
    unclassified when the ring matches none of the shapes.  The name is
    that of a fusion ring, not of a datum: the Galois conjugate fibonacci-2,
    which is not pseudo-unitary, is named fibonacci too.

    A ring that is not pointed is named by the leaves of the split tree
    (see `modular._split_tree`), each named by `_leaf_kind`: fibonacci is
    one fibonacci leaf alone, ising-x-pointed(n) one ising leaf and
    pointed leaves whose sizes multiply to n in (1, 2, 4), and
    ising-x-ising two ising leaves alone.  This is sound without
    unitarity.  At each split of a block into R1 and R2, (K) of
    `verlinde_fusion` holds: `_product_table` checks the facts it rests
    on, and its proof assumes no unitarity.  So dimensions multiply, the
    global dimension is D = D_R1 D_R2 with D_R the sum of dim(x)^2 over
    R, and the Verlinde formula factors:

        N[u v][u' v'][u'' v''] = N1[u][u'][u''] N2[v][v'][v'']

    with N_i the same sum over the columns of R_i, divided by D_Ri.  N[0][0]
    is the unit row (see `FusionTensor`), so N2[0][0] is a multiple of the
    unit row; hence the product of two objects of R1 lies in R1, and N is
    the Kronecker product of its restrictions to R1 and R2.  By induction
    the ring is the tensor product of the subrings on its leaves.

    The paper describes the extremal cases completely only for
    pseudo-unitary data, and the shapes follow that description.  So
    unclassified on data that are not pseudo-unitary, such as the
    so5level9 family (FSexp 9 = Ndim 9, FPdim about 74.6), is outside the
    classified case and is not a gap in the shapes; no hypothesis is
    checked here, and `fpdim_pseudounitary` tells the two apart."""
    ft = verlinde_fusion(md)
    labels = invertibles(ft)
    if len(labels) == md.rank:
        return "pointed-cyclic" if _invertible_group_cyclic(ft) else "pointed-other"
    invertible = {x for x, label in enumerate(ft.labels) if label in labels}
    leaves = [node.block for node in _nodes(_split_tree(md)) if not node.parts]
    kinds = [_leaf_kind(ft.N, block, invertible) for block in leaves]
    n = math.prod(len(block) for block, kind in zip(leaves, kinds) if kind == "pointed")
    named = sorted(kind for kind in kinds if kind != "pointed")
    if named == ["fibonacci"] and n == 1:
        return "fibonacci"
    if named == ["ising"] and n in (1, 2, 4):
        return f"ising-x-pointed({n})"
    if named == ["ising", "ising"] and n == 1:
        return "ising-x-ising"
    return "unclassified"
