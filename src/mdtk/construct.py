"""Constructors for the families of modular data this library ships.

Pointed data come from a finite abelian group with a nondegenerate
quadratic form; the remaining families (two-dimensional Ising-shaped data,
Fibonacci-shaped data, a rank six family at conductor nine, and hyperbolic
doubles) are written down entry by entry.  Everything returns a
ModularDatum whose entries are exact.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .cyclo import Cyc, RootOfUnity, rational, root_of_unity
from .modular import DataFormatError, ModularDatum, _entries

__all__ = [
    "MetricGroup",
    "CocycleSpec",
    "pointed",
    "ising",
    "fibonacci",
    "so5_level9",
    "double_abelian",
    "deligne_product",
    "fsexp_vec_g_omega",
]


# ---------------------------------------------------------------------------
# pointed data


class MetricGroup(namedtuple("MetricGroup", "orders q")):
    """A finite abelian group prod_i Z/orders[i] together with a quadratic
    form q into the roots of unity, tabulated on the elements in row major
    order (itertools.product order)."""

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...], q: tuple[RootOfUnity, ...]):
        if not orders or any(n < 1 for n in orders):
            raise DataFormatError(f"bad group orders {orders}")
        size = math.prod(orders)
        if len(q) != size:
            raise DataFormatError(f"q has {len(q)} values for a group of size {size}")
        return tuple.__new__(cls, (orders, q))

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.orders)))

    def index(self, g: tuple[int, ...]) -> int:
        idx = 0
        for gi, n in zip(g, self.orders):
            idx = idx * n + (gi % n)
        return idx

    def add(self, g, h) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.orders))

    def neg(self, g) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(g, self.orders))

    def q_at(self, g) -> RootOfUnity:
        return self.q[self.index(g)]

    @staticmethod
    def generator_form(orders, exps) -> "MetricGroup":
        """q(g) = prod_i zeta^(exps[i] * g_i^2) where the i-th root is of
        order orders[i] for odd orders[i] and 2*orders[i] for even."""
        orders = tuple(int(n) for n in orders)
        exps = tuple(int(a) for a in exps)
        if len(exps) != len(orders):
            raise DataFormatError("one exponent per cyclic factor is required")
        moduli = tuple(n if n % 2 else 2 * n for n in orders)
        M = math.lcm(*moduli)
        return _tabulated(
            orders, M, lambda g: sum(a * x * x * M // m for x, a, m in zip(g, exps, moduli))
        )


def _tabulated(orders: tuple[int, ...], M: int, exponent) -> MetricGroup:
    """The MetricGroup on prod_i Z/orders[i] with q(g) = zeta_M^exponent(g)."""
    elems = itertools.product(*(range(n) for n in orders))
    return MetricGroup(orders, tuple(RootOfUnity.make(M, exponent(g)) for g in elems))


def _pairing(mg: MetricGroup) -> tuple[int, list[list[int]]]:
    """The pairing b(g, h) = q(g + h) / (q(g) q(h)) of mg on the generators,
    as integers: M, the lcm of the orders of the q values, and chi with
    b(g, e_i) = zeta_M^chi[i][g] for the k generators e_i.  Raises
    DataFormatError unless q(-g) = q(g) for every g, b is bimultiplicative
    and b is nondegenerate, checked in that order.

    With Q[g] the exponent of q(g) in zeta_M, chi[i][g] = Q[g + e_i] - Q[g]
    - Q[e_i] mod M.  b is bimultiplicative exactly when every chi[i] is
    additive on generator steps, chi[i][g + e_j] = chi[i][g] + chi[i][e_j]:
    restricting b(g + e_j, h) = b(g, h) b(e_j, h) to h = e_i gives it.
    Conversely, additivity makes each b(., e_i) a character, and g = 0
    gives chi[i][0] = 0, so Q[0] = 0 and b(g, 0) = 1.  By the definition of
    b, q(y + e_i) = q(y) q(e_i) b(y, e_i) for every y; with y = g + h and
    y = h this gives b(g, h + e_i) = b(g, h) b(g + h, e_i) / b(h, e_i) =
    b(g, h) b(g, e_i).  Hence b(g, h) = prod_i b(g, e_i)^(h_i), a character
    in h, and b is symmetric, so b is bimultiplicative.  For the same
    reason b(g, .) is trivial exactly when every b(g, e_i) is, so the
    first g != 0 with every chi[i][g] = 0 is the first degenerate element.
    The checks take O(|A| k^2) integer operations for |A| = mg.size.
    """
    elems = mg.elements()
    for g in elems:
        if mg.q_at(mg.neg(g)) != mg.q_at(g):
            raise DataFormatError(f"q({g}) differs from q(-{g}); not a quadratic form")
    M = math.lcm(*(r.order for r in mg.q))
    Q = [r.exponent * (M // r.order) for r in mg.q]
    k = len(mg.orders)
    # steps[i][g] is the index of g + e_i, so steps[i][0] is that of e_i
    steps = [[mg.index(g[:i] + (g[i] + 1,) + g[i + 1 :]) for g in elems] for i in range(k)]
    chi = [[(Q[s] - Q[g] - Q[st[0]]) % M for g, s in enumerate(st)] for st in steps]
    for c in chi:
        for st in steps:
            if any(c[s] != (c[g] + c[st[0]]) % M for g, s in enumerate(st)):
                raise DataFormatError(
                    "q is not a quadratic form: the associated b is not bimultiplicative"
                )
    for g in range(1, mg.size):
        if not any(c[g] for c in chi):
            raise DataFormatError(
                f"the form is degenerate: {elems[g]} pairs trivially with everything"
            )
    return M, chi


def _element_label(g: tuple[int, ...], single: bool) -> str:
    if all(v == 0 for v in g):
        return "1"
    if single:
        return f"g{g[0]}"
    return "g(" + ",".join(str(v) for v in g) + ")"


def pointed(mg: MetricGroup, name: str | None = None) -> ModularDatum:
    """Modular data of a pointed fusion ring: S[g][h] = b(g, h) and
    T[g] = q(g)^(-1), for a nondegenerate quadratic form q."""
    M, chi = _pairing(mg)
    zeta = [root_of_unity(M, e) for e in range(M)]
    S = []
    for g in range(mg.size):
        # the exponents sum_i h_i chi[i][g] for h in row major order
        row = [0]
        for n, c in zip(mg.orders, chi):
            row = [v + t * c[g] for v in row for t in range(n)]
        S.append([zeta[v % M] for v in row])
    T = [r.inverse() for r in mg.q]
    single = len(mg.orders) == 1
    labels = [_element_label(g, single) for g in mg.elements()]
    if name is None:
        name = "pointed-" + "x".join(f"c{n}" for n in mg.orders)
    return ModularDatum(labels, S, T, name=name)


def double_abelian(orders, name: str | None = None) -> ModularDatum:
    """The hyperbolic double of an abelian group A: the group is A x A with
    q((g, h)) = prod_i zeta_{n_i}^(g_i h_i).  Always modular, with trivial
    anomaly and global dimension |A|^2."""
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 1 for n in orders):
        raise DataFormatError(f"bad group orders {orders}")
    k = len(orders)
    M = math.lcm(*orders)
    mg = _tabulated(
        orders + orders, M, lambda gh: sum(g * h * M // n for g, h, n in zip(gh, gh[k:], orders))
    )
    if name is None:
        name = "double-" + "x".join(f"c{n}" for n in orders)
    return pointed(mg, name=name)


# ---------------------------------------------------------------------------
# named small families


def ising(j: int = 1, eps: int = 1) -> ModularDatum:
    """Rank three data with objects 1, psi, sigma and S built from
    d = zeta_16^j + zeta_16^(-j) (j odd mod 16, eps = +-1):

        S = [[1, 1, e*d], [1, 1, -e*d], [e*d, -e*d, 0]]
        T = diag(1, -1, eps * zeta_16^(-j))
    """
    j %= 16
    if j % 2 == 0:
        raise ValueError(f"j must be odd mod 16, got {j}")
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    d = root_of_unity(16, 2 * j) + root_of_unity(16, -2 * j)
    ed = d if eps == 1 else -d
    one = rational(1)
    S = [
        [one, one, ed],
        [one, one, -ed],
        [ed, -ed, rational(0)],
    ]
    t_sigma = RootOfUnity.make(16, -j if eps == 1 else 8 - j)
    T = [RootOfUnity.one(), RootOfUnity.make(2, 1), t_sigma]
    tag = "p" if eps == 1 else "m"
    return ModularDatum(["1", "psi", "sigma"], S, T, name=f"ising-{j}-{tag}")


def fibonacci(j: int = 1) -> ModularDatum:
    """Rank two data with objects 1, tau:

        S = [[1, d], [d, -1]],  d = 1 + zeta_5^j + zeta_5^(-j)
        T = diag(1, zeta_5^(2j))

    for j not divisible by 5.  j = 1, 4 give the golden ratio for d; j = 2, 3
    give its conjugate 1 - 1/phi, which is negative.
    """
    if j % 5 == 0:
        raise ValueError(f"j must be a unit mod 5, got {j}")
    d = rational(1) + root_of_unity(5, j) + root_of_unity(5, -j)
    S = [[rational(1), d], [d, rational(-1)]]
    T = [RootOfUnity.one(), RootOfUnity.make(5, 2 * j)]
    return ModularDatum(["1", "tau"], S, T, name=f"fibonacci-{j % 5}")


def so5_level9(j: int = 1) -> ModularDatum:
    """A rank six family at conductor nine built from
    u = zeta_9^j - zeta_9^(2j) - zeta_9^(5j) and its images u1, u2 under
    doubling the exponent.  Global dimension 9 with all T orders dividing 9.
    """
    if math.gcd(j, 9) != 1:
        raise ValueError(f"j must be a unit mod 9, got {j}")

    def z(e: int) -> Cyc:
        return root_of_unity(9, j * e)

    u = [z(2**m) - z(2 * 2**m) - z(5 * 2**m) for m in range(3)]
    u0, u1, u2 = u
    one = rational(1)
    S = [
        [one, -one, one, u0, u1, u2],
        [-one, one, -one, -u1, -u2, -u0],
        [one, -one, one, u2, u0, u1],
        [u0, -u1, u2, one, one, one],
        [u1, -u2, u0, one, one, one],
        [u2, -u0, u1, one, one, one],
    ]
    T = [
        RootOfUnity.one(),
        RootOfUnity.make(9, 6 * j),
        RootOfUnity.make(9, 3 * j),
        RootOfUnity.make(9, 5 * j),
        RootOfUnity.make(9, 8 * j),
        RootOfUnity.make(9, 2 * j),
    ]
    labels = ["1", "a", "b", "u0", "u1", "u2"]
    return ModularDatum(labels, S, T, name=f"so5level9-{j % 9}")


# ---------------------------------------------------------------------------
# products


def deligne_product(a: ModularDatum, b: ModularDatum) -> ModularDatum:
    """Tensor (Kronecker) product of two modular data.  S is the Kronecker
    product of the S matrices, T multiplies entrywise, and labels pair up.
    Each pair of distinct factor values is multiplied once (see
    `_entries`), so mirror entries of the product are one object."""
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    va, ca = _entries(a)
    vb, cb = _entries(b)
    products = [[x * y for y in vb] for x in va]
    S = [[row[j] for row in map(products.__getitem__, ra) for j in rb] for ra in ca for rb in cb]
    T = [ta * tb for ta in a.T for tb in b.T]
    na = a.name or "a"
    nb = b.name or "b"
    return ModularDatum(labels, S, T, name=f"({na})x({nb})")


# ---------------------------------------------------------------------------
# twisted group data without a full construction


class CocycleSpec(namedtuple("CocycleSpec", "orders exps")):
    """A 3-cocycle on prod_i Z/orders[i], the product of the type-I cocycles

        omega_a(x, y, z) = exp(2 pi i a x (y + z - [y + z]_n) / n^2)

    on the factors Z/n, with a = exps[i] and [.]_n the residue in [0, n)."""

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...], exps: tuple[int, ...]):
        if len(exps) != len(orders):
            raise DataFormatError("one exponent per cyclic factor is required")
        for a, n in zip(exps, orders):
            if not 0 <= a < n:
                raise DataFormatError(f"exponent {a} out of range for Z/{n}")
        return tuple.__new__(cls, (orders, exps))


def fsexp_vec_g_omega(spec: CocycleSpec) -> int:
    """The invariant lcm_g |g| * ord(omega restricted to <g>) for graded
    vector spaces twisted by the cocycle described by spec.

    The restriction of omega to <g>, g of order d, has the class
    prod_k omega(g, kg, g) in H^3(Z/d) = Z/d.  On the factor Z/n_i the
    carries [k g_i] + g_i - [(k + 1) g_i] telescope to d g_i over
    k = 0 .. d - 1, so that factor contributes a_i (g_i d / n_i)^2 / d to
    the exponent.  The class is sum_i a_i (g_i d / n_i)^2 mod d, and the
    restriction has order d / gcd(d, that sum).
    """
    acc = 1
    for g in itertools.product(*(range(n) for n in spec.orders)):
        d = 1
        for gi, n in zip(g, spec.orders):
            d = math.lcm(d, n // math.gcd(n, gi))
        cls = sum(a * (gi * d // n) ** 2 for a, gi, n in zip(spec.exps, g, spec.orders))
        acc = math.lcm(acc, d * (d // math.gcd(d, cls)))
    return acc
