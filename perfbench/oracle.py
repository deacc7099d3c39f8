"""Expected outputs that do not come from the code under test.

Fusion tables of the Ising and Fibonacci families and of abelian groups are
written out here; a product's table is the Kronecker product of its factors'
tables.  The T order of each family is pinned, and the T order of a product
is the lcm of its factors' orders.  Nothing here imports mdtk.
"""

from __future__ import annotations

import itertools
import math

# T order of each family; pointed and double data on Z/n (n odd) have order n
FAMILY_FSEXP = {"ising": 16, "fib": 5, "so5": 9}

# labels 1, psi, sigma: psi psi = 1, psi sigma = sigma, sigma sigma = 1 + psi
ISING_FUSION = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 0, 1), (1, 1, 0)),
)
# labels 1, tau: tau tau = 1 + tau
FIB_FUSION = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 1)),
)


def family_fsexp(spec: tuple) -> int:
    if spec[0] == "prod":
        return math.lcm(family_fsexp(spec[1]), family_fsexp(spec[2]))
    if spec[0] in ("pointed", "double"):
        return spec[1]
    return FAMILY_FSEXP[spec[0]]


def group_fusion(orders: tuple[int, ...]) -> tuple:
    """N[x][y][z] = 1 when z = x + y in prod Z/orders (elements in
    itertools.product order), else 0."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elems)}
    size = len(elems)
    out = []
    for g in elems:
        plane = []
        for h in elems:
            s = index[tuple((a + b) % n for a, b, n in zip(g, h, orders))]
            plane.append(tuple(int(z == s) for z in range(size)))
        out.append(tuple(plane))
    return tuple(out)


def kron_fusion(a: tuple, b: tuple) -> tuple:
    """Fusion table of a Deligne product, index x = xa * rank(b) + xb."""
    ra, rb = len(a), len(b)
    return tuple(
        tuple(
            tuple(
                a[xa][ya][za] * b[xb][yb][zb]
                for za in range(ra)
                for zb in range(rb)
            )
            for ya in range(ra)
            for yb in range(rb)
        )
        for xa in range(ra)
        for xb in range(rb)
    )


def split_index(x: int, ranks: list[int]) -> list[int]:
    """Factor indices of object x of a product with the given factor ranks."""
    out = []
    for r in reversed(ranks):
        x, i = divmod(x, r)
        out.append(i)
    return out[::-1]


def orbit_errors(
    orbits: list[set[int]],
    squared: list[set[int]],
    factor_orbits: list[list[set[int]]] | None = None,
) -> str:
    """Structural checks on Galois orbits given as index sets: each object
    lies in its own orbit and squared orbit, orbits are symmetric, the
    squared orbit lies in the orbit, and a product object's orbit lies in
    the product of its factors' orbits.  Returns "" when all hold."""
    r = len(orbits)
    ranks = [len(f) for f in factor_orbits] if factor_orbits else None
    for x in range(r):
        if x not in orbits[x] or x not in squared[x]:
            return f"object {x} is missing from its own orbit"
        if not squared[x] <= orbits[x]:
            return f"squared orbit of {x} leaves its orbit"
        if any(x not in orbits[y] for y in orbits[x]):
            return f"orbit of {x} is not symmetric"
        if ranks:
            parts = split_index(x, ranks)
            for y in orbits[x]:
                for fo, i, j in zip(factor_orbits, parts, split_index(y, ranks)):
                    if j not in fo[i]:
                        return f"orbit of {x} leaves the product of factor orbits"
    return ""
