"""Cyc.embed, Cyc.sign and Cyc.compare_real against mpmath, and a guard that
no mdtk command imports mpmath.

mpmath is a test dependency only: it is the independent oracle for the
integer fixed-point evaluator in `Cyc.embed`."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import mdtk
from mdtk.cyclo import Cyc, euler_phi, rational, root_of_unity

CONDUCTORS = (1, 2, 3, 4, 5, 8, 9, 12, 16, 27, 45, 72, 108, 720, 960, 8640)
PRECISIONS = (53, 64, 200, 1024)

# derandomized, so that every run draws the same examples
examples = settings(derandomize=True, max_examples=4, deadline=None)


@st.composite
def elements(draw, n):
    """A value at conductor n over a denominator in 1..10**6; about a third
    of the coefficients are 0, the rest in -9..9 or up to 2**40 in size.
    The coefficients come from a drawn seed: at conductor 8640 a drawn list
    of phi(n) = 2304 entries is too large for hypothesis."""
    den = draw(st.integers(1, 10**6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = (0, 9, 2**40)
    nums = [rng.randint(-size, size) for size in rng.choices(sizes, k=euler_phi(n))]
    return Cyc.from_json({"n": n, "c": [[v, den] for v in nums]})


def oracle(x: Cyc, bits: int):
    """sum v_i exp(2 pi i i/n) / den by Horner's rule in mpmath at bits."""
    with mpmath.workprec(bits):
        zeta = mpmath.expjpi(mpmath.mpf(2) / x.n)
        return mpmath.polyval(list(reversed(x.num)), zeta) / x.den


def is_dyadic(q: Fraction) -> bool:
    return q.denominator & (q.denominator - 1) == 0


def assert_ball_holds(x: Cyc, precision: int):
    box = x.embed(precision)
    assert all(isinstance(q, Fraction) and is_dyadic(q) for q in (box.re, box.im, box.radius))
    assert 0 <= box.radius <= Fraction(1, 2 ** (precision + 1))
    bits = 4 * precision + 64
    truth = oracle(x, bits)
    with mpmath.workprec(bits):
        mid = mpmath.mpc(
            mpmath.mpf(box.re.numerator) / box.re.denominator,
            mpmath.mpf(box.im.numerator) / box.im.denominator,
        )
        assert abs(truth - mid) <= mpmath.mpf(box.radius.numerator) / box.radius.denominator


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("n", CONDUCTORS)
@examples
@given(data=st.data())
def test_embed_ball_holds_the_value(n, precision, data):
    assert_ball_holds(data.draw(elements(n)), precision)


@pytest.mark.parametrize("precision", (0, 1, 2))
@pytest.mark.parametrize("n", (3, 5, 16, 108))
@examples
@given(data=st.data())
def test_embed_ball_at_low_precision(n, precision, data):
    # at these precisions the first working precision is often too small
    # for the radius bound, so this covers the loop in embed that raises it
    assert_ball_holds(data.draw(elements(n)), precision)


# ------------------------------------------------ sign near zero


def sqrt2() -> Cyc:
    return root_of_unity(8, 1) + root_of_unity(8, 7)


def golden() -> Cyc:
    return rational(1) + root_of_unity(5, 1) + root_of_unity(5, 4)


def pell(count: int):
    """Convergents p/q of sqrt(2), p^2 - 2q^2 = +-1."""
    p, q = 1, 1
    for _ in range(count):
        p, q = p + 2 * q, p + q
        yield Fraction(p, q)


def fibonacci_ratios(count: int):
    """F(k+1)/F(k) for k = 1..count."""
    a, b = 1, 1
    for _ in range(count):
        yield Fraction(b, a)
        a, b = b, a + b


def mp_sign(value) -> int:
    return int(mpmath.sign(value))


def test_sign_matches_mpmath_near_sqrt2():
    assert Fraction(665857, 470832) in set(pell(20))
    with mpmath.workprec(2000):
        root = mpmath.sqrt(2)
        for q in pell(40):
            x = sqrt2() - rational(q)
            mq = mpmath.mpf(q.numerator) / q.denominator
            conj = [c for c in x.conjugates() if c != x]
            assert len(conj) == 1
            assert x.sign() == mp_sign(root - mq)
            assert conj[0].sign() == mp_sign(-root - mq) == -1
            assert sqrt2().compare_real(q) == mp_sign(root - mq)
            assert sqrt2().compare_real(rational(q)) == mp_sign(root - mq)


def test_sign_matches_mpmath_near_golden():
    with mpmath.workprec(2000):
        phi = (1 + mpmath.sqrt(5)) / 2
        for q in fibonacci_ratios(60):
            x = golden() - rational(q)
            mq = mpmath.mpf(q.numerator) / q.denominator
            # the other embedding of Q(sqrt 5) sends golden to 1 - golden
            conj = [c for c in x.conjugates() if c != x]
            assert len(conj) == 1
            assert x.sign() == mp_sign(phi - mq)
            assert conj[0].sign() == mp_sign(1 - phi - mq)
            assert golden().compare_real(q) == mp_sign(phi - mq)
            assert conj[0].compare_real(0) == mp_sign(1 - phi - mq)


def test_sign_near_zero_needs_the_doubling_loop():
    # sign starts at 64 bits; these differences are below 2**-64, so
    # embed(64) cannot decide them and sign must raise the precision
    deep = [
        sqrt2() - rational(list(pell(40))[-1]),
        golden() - rational(list(fibonacci_ratios(60))[-1]),
    ]
    for x in deep:
        box = x.embed(64)
        assert abs(box.re) <= box.radius
        assert x.sign() != 0


# ------------------------------------------------ no mpmath at run time

GUARD = """
import contextlib, io, sys
import mdtk
from mdtk import catalog_cli
for argv in (
    ["report", "ising-1-p", "--json"],
    ["catalog", "--all", "--json"],
    ["bound-check", "so5level9-1", "--classify", "--json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert catalog_cli.main(argv) == 0, argv
assert "mpmath" not in sys.modules, "mdtk imported mpmath"
"""


def test_commands_do_not_import_mpmath():
    src = str(Path(mdtk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
