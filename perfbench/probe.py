"""Kernel probe of the cyclo layer: the public `Cyc` operations at fixed
conductors, on seeded elements with small coefficients.

mul, add, galois and embed use dense elements: every power-basis
coefficient is drawn from -3..3 and is never 0.  inverse uses a rational
plus one primitive power, because inverting a dense element at conductor
720 with the extended-gcd inverse takes over a minute, longer than a run.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from mdtk import euler_phi, rational, root_of_unity

CONDUCTORS = (5, 16, 27, 108, 720)
BATCHES = 5
BATCH_SECONDS = 0.02


def _element(rng: random.Random, n: int, dense: bool):
    """A dense element has every power-basis coefficient nonzero; a sparse
    one is a rational plus one primitive power.  Both lie at conductor n."""
    phi = euler_phi(n)
    if dense:
        powers = range(phi)
    else:
        powers = [rng.choice([i for i in range(1, phi) if math.gcd(i, n) == 1])]
    x = rational(0)
    for i in powers:
        x = x + rng.choice((-3, -2, -1, 1, 2, 3)) * root_of_unity(n, i)
    return x if dense else x + rng.choice((1, 2, 3))


def _per_call_us(fn) -> float:
    """Median over batches of the mean time per call; a batch repeats the
    call until it has run BATCH_SECONDS."""
    per_call = []
    for _ in range(BATCHES):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            dt = time.perf_counter() - t0
            if dt >= BATCH_SECONDS:
                break
        per_call.append(dt / calls * 1e6)
    return statistics.median(per_call)


def run(seed: int) -> dict:
    rng = random.Random(f"probe:{seed}")
    out = {}
    for n in CONDUCTORS:
        a, b = _element(rng, n, True), _element(rng, n, True)
        sparse = _element(rng, n, False)
        k = next(k for k in (7, 11, 13) if n % k)
        ops = {
            "mul": lambda: a * b,
            "add": lambda: a + b,
            "inverse": sparse.inverse,
            "galois": lambda: a.galois(k),
            "embed": lambda: a.embed(64),
        }
        for op, fn in ops.items():
            out[f"cyclo.probe.{op}_us.c{n}"] = _per_call_us(fn)
    return out
