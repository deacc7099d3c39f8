"""Seeded inputs for the benchmark workloads.

This module does not import mdtk.  It turns a workload name and a seed into
plain specs; `worker.build` turns a spec into a datum through the public
`mdtk.construct` functions.  A spec is one of

    ("ising", j, eps)    ("fib", j)    ("so5", j)
    ("pointed", n, a)    cyclic group Z/n with q(g) = zeta^(a g^2)
    ("double", n, a)     hyperbolic form q(g, h) = zeta_n^(a g h) on Z/n x Z/n
    ("prod", left, right)

The seed picks only Galois twists (j, eps, a).  Rank and conductor are fixed
per rung, so the work done by one item does not depend on the seed.
"""

from __future__ import annotations

import math
import random

ISING, FIB, SO5 = ("ising",), ("fib",), ("so5",)


def _pointed(n: int) -> tuple:
    return ("pointed", n)


def _prod(*factors) -> tuple:
    out = factors[0]
    for f in factors[1:]:
        out = ("prod", out, f)
    return out


# (label, template); the rank and stored S conductor of each rung are noted
VERIFY_LADDER = (
    ("ising*ising", _prod(ISING, ISING)),  # rank 9, conductor 8
    ("fib*so5", _prod(FIB, SO5)),  # rank 12, conductor 45
    ("ising*so5", _prod(ISING, SO5)),  # rank 18, conductor 72
    ("ising*pointed-c7", _prod(ISING, _pointed(7))),  # rank 21, conductor 56
    ("double-c5", ("double", 5)),  # rank 25, conductor 5
    ("pointed-c27", _pointed(27)),  # rank 27, conductor 27
    ("ising*pointed-c9", _prod(ISING, _pointed(9))),  # rank 27, conductor 72
    ("so5*so5", _prod(SO5, SO5)),  # rank 36, conductor 9
)

# (label, template, full); full=False runs the generators-only spot check
GALOIS_SWEEP = (
    ("ising*fib", _prod(ISING, FIB), True),  # rank 6, working conductor 960
    ("ising*fib*fib", _prod(ISING, FIB, FIB), True),  # rank 12, 960
    ("fib*pointed-c7", _prod(FIB, _pointed(7)), True),  # rank 14, 420
    ("ising*pointed-c7", _prod(ISING, _pointed(7)), True),  # rank 21, 1344
    ("ising*so5", _prod(ISING, SO5), True),  # rank 18, 1728
    ("ising*fib*pointed-c3", _prod(ISING, FIB, _pointed(3)), True),  # rank 18, 2880
    ("ising*fib*so5", _prod(ISING, FIB, SO5), False),  # rank 36, 8640
)

ISING_J = tuple(range(1, 16, 2))
FIB_J = (1, 2, 3, 4)
SO5_J = (1, 2, 4, 5, 7, 8)


def rng_for(workload: str, seed: int) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def unit(rng: random.Random, n: int) -> int:
    return rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1])


def draw(template: tuple, rng: random.Random) -> tuple:
    """Fill the Galois twists of a template."""
    kind = template[0]
    if kind == "prod":
        return ("prod", draw(template[1], rng), draw(template[2], rng))
    if kind == "ising":
        return ("ising", rng.choice(ISING_J), rng.choice((1, -1)))
    if kind == "fib":
        return ("fib", rng.choice(FIB_J))
    if kind == "so5":
        return ("so5", rng.choice(SO5_J))
    n = template[1]
    return (kind, n, unit(rng, n))


def factors(spec: tuple) -> list[tuple]:
    """The family members of a spec, in Kronecker order."""
    if spec[0] == "prod":
        return factors(spec[1]) + factors(spec[2])
    return [spec]


def verify_ladder(seed: int) -> list[tuple[str, tuple]]:
    rng = rng_for("verify-ladder", seed)
    return [(label, draw(t, rng)) for label, t in VERIFY_LADDER]


def galois_sweep(seed: int) -> list[tuple[str, tuple, bool]]:
    rng = rng_for("galois-sweep", seed)
    return [(label, draw(t, rng), full) for label, t, full in GALOIS_SWEEP]


def cli_params(seed: int) -> dict:
    """Twists and names used by one scripted CLI session."""
    rng = rng_for("cli-session", seed)
    ij, ie = rng.choice(ISING_J), rng.choice((1, -1))
    bj, be = rng.choice(ISING_J), rng.choice((1, -1))
    return {
        "pointed81_exp": unit(rng, 81),
        "ising_j": ij,
        "ising_eps": ie,
        "fib_j": rng.choice(FIB_J),
        "so5_j": rng.choice(SO5_J),
        # ising * fib has T order 80, so working conductor 960
        "conj_k": unit(rng, 960),
        "builtin_ising": f"ising-{bj}-{'p' if be == 1 else 'm'}",
        "builtin_fib": f"fibonacci-{rng.choice(FIB_J)}",
        "builtin_so5": f"so5level9-{rng.choice(SO5_J)}",
    }
