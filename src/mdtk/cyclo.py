"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored on the power basis {zeta_n^i : 0 <= i < phi(n)} with
rational coefficients, reduced modulo the n-th cyclotomic polynomial.
Internally a Cyc keeps one common positive denominator and an integer
numerator vector; the public `coeffs` view is a tuple of Fractions.

Every rewrite of a sum of powers of zeta_n on the power basis goes through
one helper, `_reduced`, which looks each power up in `_power_basis(n)`:
zeta_n^e for 0 <= e < n, kept as the nonzero (index, coefficient) pairs.
Inversion and conductor descent are built on it and on `Cyc.galois`: an
inverse is a product of Galois images over a rational norm, and a value
drops to a subfield by a stride of the power basis or by a relative trace.

`ResidueMap` sends Z[zeta_N] to Z/m by zeta_N -> 2^b, one integer per
element; with m chosen from an a-priori bound on the values, it decides
equality exactly with big-integer products instead of field products.

All arithmetic is exact, and there is no floating point.  `Cyc.embed`
evaluates the principal embedding in integer fixed point and returns an
exact dyadic ball (midpoint plus radius, with a proven error bound) used for
sign decisions; every sign decision first runs an exact zero test, so the
interval loop terminates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Cyc",
    "RootOfUnity",
    "ComplexInterval",
    "ResidueMap",
    "root_of_unity",
    "rational",
    "euler_phi",
    "divisors",
    "units_mod",
    "unit_group_generators",
    "cyclotomic_poly",
    "real_subfield_degree",
]


# ---------------------------------------------------------------------------
# elementary number theory


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    assert n >= 1
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, which is exact for every
    n below 3,215,031,751 (Pomerance, Selfridge and Wagstaff, 1980)."""
    if n < 2 or math.gcd(n, 210) != 1:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in (2, 3, 5, 7):
        # n passes base a when a^d = 1 or some a^(d 2^j), j < s, is -1
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for p, e in _factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def units_mod(n: int) -> tuple[int, ...]:
    """Representatives of (Z/n)*, with (1,) for n <= 2 kept nonempty."""
    if n <= 2:
        return (1,)
    return tuple(k for k in range(1, n) if math.gcd(k, n) == 1)


def _primitive_root(q: int) -> int:
    # q an odd prime power
    p = _factorize(q)[0][0]
    phi = euler_phi(q)
    prime_divs = [f for f, _ in _factorize(phi)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // f, q) != 1 for f in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root mod {q}")


@lru_cache(maxsize=None)
def unit_group_generators(n: int) -> tuple[int, ...]:
    """Generators of (Z/n)*, assembled by CRT from prime power parts."""
    if n <= 2:
        return ()
    gens = []
    for p, e in _factorize(n):
        q = p**e
        rest = n // q
        if p == 2:
            local = [] if e == 1 else ([3] if e == 2 else [q - 1, 5])
        else:
            local = [_primitive_root(q)]
        for g in local:
            # lift to be g mod q and 1 mod rest
            if rest == 1:
                gens.append(g % n)
            else:
                inv = pow(q, -1, rest)
                x = (g + q * ((1 - g) * inv % rest)) % n
                gens.append(x)
    return tuple(gens)


def real_subfield_degree(n: int) -> int:
    """Degree of the maximal real subfield of Q(zeta_n) over Q.

    Complex conjugation is the automorphism k = -1, which is trivial exactly
    for n <= 2, so the degree is phi(n)/2 once n >= 3.
    """
    if n <= 2:
        return 1
    return euler_phi(n) // 2


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the reduction table


def _polydiv_exact(a: list[int], b: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, b monic; raises if inexact
    a = list(a)
    db = len(b) - 1
    assert b[-1] == 1
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            out[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first.

    For a prime p dividing n, Phi_n(x) = Phi_{n/p}(x^p) when p^2 divides n,
    and Phi_{n/p}(x^p) / Phi_{n/p}(x) otherwise.  Repeated primes are peeled
    first, so the exact division only ever happens at the squarefree part.
    """
    if n == 1:
        return (-1, 1)
    p, e = max(_factorize(n), key=lambda pe: pe[1])
    low = cyclotomic_poly(n // p)
    poly = [0] * ((len(low) - 1) * p + 1)
    poly[::p] = low
    return tuple(poly) if e > 1 else tuple(_polydiv_exact(poly, low))


@lru_cache(maxsize=None)
def _power_basis(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e is zeta_n^e on the power basis, as the (index, coefficient)
    pairs of its nonzero entries in increasing index order.

    Since Phi_n divides x^n - 1, exponents only matter mod n and n rows
    suffice.  Rows below phi(n) are basis vectors; row e + 1 is x times row
    e, with a carry c into x^phi(n) replaced by -c * (Phi_n - x^phi(n)).
    """
    phi = euler_phi(n)
    low = [(i, c) for i, c in enumerate(cyclotomic_poly(n)[:phi]) if c]
    rows = [((e, 1),) for e in range(phi)]
    for _ in range(phi, n):
        nxt = {i + 1: v for i, v in rows[-1]}
        carry = nxt.pop(phi, 0)
        for i, c in low:
            nxt[i] = nxt.get(i, 0) - carry * c
        rows.append(tuple(sorted((i, v) for i, v in nxt.items() if v)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# certified embeddings


class ComplexInterval(namedtuple("ComplexInterval", "re im radius")):
    """Exact dyadic complex ball: re, im and radius are Fractions whose
    denominators are powers of 2, and |true value - (re + i*im)| <= radius."""

    __slots__ = ()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def _arctan_inv(x: int, w: int) -> tuple[int, int]:
    """(a, k): a is within 2k + 1 of 2**w * arctan(1/x), summing k terms of
    its series with floor division (proof in `Cyc.embed`, step 1)."""
    a = k = 0
    p = (1 << w) // x
    while p:
        t = p // (2 * k + 1)
        a += -t if k & 1 else t
        p //= x * x
        k += 1
    return a, k


def _unit_root(n: int, w: int) -> tuple[int, int, int]:
    """(c, s, e): |(c + i*s) / 2**w - exp(2*pi*i/n)| <= e / 2**w for n >= 3
    and w >= 8 (proof in `Cyc.embed`, steps 1 to 3)."""
    a5, k5 = _arctan_inv(5, w)
    a239, k239 = _arctan_inv(239, w)
    e_pi = 32 * k5 + 8 * k239 + 20
    theta = (32 * a5 - 8 * a239) // n
    c = s = k = 0
    r = 1 << w
    while r:
        t = -r if k & 2 else r
        if k & 1:
            s += t
        else:
            c += t
        k += 1
        r = r * theta // (k << w)
    tau = 4 * k + 81
    return c, s, (3 * tau + 1) // 2 - (-2 * e_pi // n) + 1


# ---------------------------------------------------------------------------
# field elements


def _normalize(n: int, den: int, num: list[int]) -> "Cyc":
    if not any(num):
        return Cyc(n, 1, (0,) * len(num))
    g = den
    for v in num:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [v // g for v in num]
    return Cyc(n, den, tuple(num))


def _reduced(n: int, den: int, acc: list[int], terms: Iterable[tuple[int, int]]) -> "Cyc":
    """(acc + sum of v * zeta_n^e over the (e, v) in terms) / den, where acc
    holds power-basis numerators at conductor n and is updated in place."""
    rows = _power_basis(n)
    for e, v in terms:
        if v:
            for i, c in rows[e % n]:
                acc[i] += v * c
    return _normalize(n, den, acc)


class Cyc:
    """An element of Q(zeta_n) in reduced power-basis form.

    Mixed-conductor arithmetic lifts both operands to the least common
    conductor before operating; results are not automatically pushed down
    to their minimal conductor (call `reduce_conductor` for that).
    Equality is semantic: values are compared after lifting.
    """

    __slots__ = ("n", "den", "num")

    def __init__(self, n: int, den: int, num: tuple[int, ...]):
        self.n = n
        self.den = den
        self.num = num

    # -- constructors

    @staticmethod
    def from_rational(q) -> "Cyc":
        q = Fraction(q)
        return Cyc(1, q.denominator, (q.numerator,))

    # -- views

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self.num[0], self.den)

    # -- conductor changes

    def lift(self, m: int) -> "Cyc":
        """Rewrite at conductor m, a multiple of the current one."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift conductor {self.n} to {m}")
        step = m // self.n
        return _reduced(m, self.den, [0] * euler_phi(m), zip(range(0, m, step), self.num))

    def _below(self, p: int) -> "Cyc | None":
        """The value at conductor d = n/p, p a prime dividing n, or None when
        it is not in Q(zeta_d).  If p | d, Q(zeta_d) has the stride-p
        sub-basis zeta_d^j = zeta_n^(pj).  Otherwise the candidate is the
        trace to Q(zeta_d) over p - 1: with zeta_n = zeta_d^a zeta_p^b and
        ap = 1 mod d, zeta_n^i traces to (p - 1) zeta_d^(ai) when p | i and to
        -zeta_d^(ai) when not.  A candidate is kept only if it lifts back."""
        n, d = self.n, self.n // p
        if d % p == 0:
            low = Cyc(d, self.den, self.num[::p])
        else:
            a = pow(p, -1, d)
            terms = ((a * i, v * (p - 1 if i % p == 0 else -1)) for i, v in enumerate(self.num))
            low = _reduced(d, self.den * (p - 1), [0] * euler_phi(d), terms)
        up = low.lift(n)
        return low if (up.den, up.num) == (self.den, self.num) else None

    def reduce_conductor(self) -> "Cyc":
        """Rewrite at the smallest conductor containing the value.  The d | n
        with the value in Q(zeta_d) are closed under gcd, so the least is
        reached by dropping primes one at a time, each as often as it goes."""
        if self.n == 1:
            return self
        if self.is_rational():
            return Cyc(1, self.den, (self.num[0],))
        x = self
        for p, _ in _factorize(self.n):
            while x.n % p == 0 and (low := x._below(p)) is not None:
                x = low
        return x

    # -- ring operations

    def _coerce(self, other):
        if isinstance(other, Cyc):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(other)
        return None

    def _common(self, other: "Cyc"):
        if self.n == other.n:
            return self, other
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        num = [x * fa + y * fb for x, y in zip(a.num, b.num)]
        return _normalize(a.n, a.den * fa, num)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, self.den, tuple(-v for v in self.num))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = Fraction(o.num[0], o.den)
            return _normalize(
                self.n, self.den * q.denominator, [v * q.numerator for v in self.num]
            )
        if self.is_rational():
            return o * self
        a, b = self._common(o)
        la, lb = a.num, b.num
        raw = [0] * (len(la) + len(lb) - 1)
        for i, v in enumerate(la):
            if v:
                for j, w in enumerate(lb):
                    if w:
                        raw[i + j] += v * w
        phi = len(la)
        return _reduced(a.n, a.den * b.den, raw[:phi], enumerate(raw[phi:], phi))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """1 / self by Galois norms.

        For each generator g of (Z/n)* in turn, y is multiplied by its other
        images g(y), g^2(y), ... until the orbit returns to y, which leaves a
        value fixed by g.  The generators commute, so after the last one y is
        fixed by every automorphism: a rational q, nonzero as no image of a
        nonzero value is 0.  With c the product of the images, 1/self = c/q.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return Cyc.from_rational(Fraction(self.den, self.num[0]))
        y, cofactor = self, Cyc.from_rational(1)
        for g in unit_group_generators(self.n):
            images = Cyc.from_rational(1)
            image = y.galois(g)
            while image != y:
                images = images * image
                image = image.galois(g)
            y, cofactor = y * images, cofactor * images
        return cofactor * (1 / y.as_fraction())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            q = Fraction(o.num[0], o.den)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / q)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "Cyc":
        if e < 0:
            return self.inverse() ** (-e)
        result = Cyc.from_rational(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.n == o.n:
            return self.den == o.den and self.num == o.num
        a, b = self._common(o)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # semantic equality across conductors; not hashable

    # -- Galois action

    def galois(self, k: int) -> "Cyc":
        """Image under the automorphism zeta_n -> zeta_n^k; k must be a unit."""
        n = self.n
        k %= n
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit mod {n}")
        if n <= 2 or k == 1:
            return self
        return _reduced(n, self.den, [0] * len(self.num), zip(range(0, k * n, k), self.num))

    def conj(self) -> "Cyc":
        """Complex conjugation, the automorphism k = -1."""
        if self.n <= 2:
            return self
        return self.galois(self.n - 1)

    def is_totally_real(self) -> bool:
        return self.conj() == self

    def conjugates(self) -> list["Cyc"]:
        """The distinct Galois conjugates (one per embedding of Q(self))."""
        out: list[Cyc] = []
        for k in units_mod(self.n):
            v = self.galois(k)
            if not any(v == w for w in out):
                out.append(v)
        return out

    def degree(self) -> int:
        """Degree of Q(self) over Q."""
        return len(self.conjugates())

    def trace_norm(self) -> tuple[Fraction, Fraction]:
        """Trace and norm of self over Q(self)/Q (sum and product of the
        distinct conjugates)."""
        cs = self.conjugates()
        tr = cs[0]
        nm = cs[0]
        for c in cs[1:]:
            tr = tr + c
            nm = nm * c
        return tr.as_fraction(), nm.as_fraction()

    def m_measure(self) -> Fraction:
        """Normalized second moment Tr(a^2 over Q(a)) / [Q(a):Q] for totally
        real a; this is the mean square of the conjugates."""
        if not self.is_totally_real():
            raise ValueError("m_measure requires a totally real argument")
        cs = self.conjugates()
        s = cs[0] * cs[0]
        for c in cs[1:]:
            s = s + c * c
        return s.as_fraction() / len(cs)

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        """Coefficients of the minimal polynomial over Q, monic, low degree
        first: the product of (x - c) over the distinct conjugates c."""
        poly = [Cyc.from_rational(1)]
        for c in self.conjugates():
            nxt = [Cyc.from_rational(0)] * (len(poly) + 1)
            for i, p in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + p
                nxt[i] = nxt[i] - c * p
            poly = nxt
        return tuple(p.as_fraction() for p in poly)

    def is_algebraic_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.minimal_polynomial())

    def is_root_of_unity(self):
        """Multiplicative order when self is a root of unity, else None."""
        r = _as_root_of_unity(self)
        return None if r is None else r.order

    # -- analytic layer

    def embed(self, precision: int = 53) -> ComplexInterval:
        """Certified complex ball around the principal embedding
        zeta_n -> exp(2*pi*i/n), with radius at most 2**-(precision+1).

        The ball is exact and dyadic, and it is computed with Python
        integers only: every integer X below stands for X * u, u = 2**-w,
        and errors are counted in ulps u.  The value is sum v_i zeta**i / den
        over the numerators v_i; top is the last i with v_i != 0 and
        weight = sum i * |v_i|.  precision is a nonnegative integer.

        1. pi.  `_arctan_inv(x, w)` adds t_k = floor(p_k / (2k+1)) with
           alternating signs, where p_k = floor(2**w / x**(2k+1)) (repeated
           floor division by x**2 composes exactly), and stops at the first
           p_K = 0.  Each t_k lies below the true term
           T_k = 2**w / ((2k+1) x**(2k+1)) by less than 1/(2k+1) + 1 <= 2.
           p_K = 0 gives T_K < 1, and the terms decrease, so the tail from
           k = K is at most T_K < 1.
           The sum is within 2K + 1 of 2**w arctan(1/x).  By Machin's
           formula pi = 16 arctan(1/5) - 4 arctan(1/239), so
           Pi = 16 a_5 - 4 a_239 is within e_pi = 32 K_5 + 8 K_239 + 20 of
           2**w pi.
        2. theta = 2 pi / n, n >= 3.  Theta = floor(2 Pi / n) is within
           delta < 2 e_pi / n + 1 of 2**w theta.  As x**(2k+1) <= 2**w for
           k < K, K_5 <= w / 4.6 + 1/2 and K_239 <= w / 15.8 + 1/2, so
           e_pi <= 7.5 w + 40 < 2**w / 2 when w >= 8.  The evaluated angle
           t = Theta * u then satisfies 0 < t < (2/3)(pi + 1/2) < 3.
        3. exp(i t).  r_0 = 2**w and r_k = floor(r_{k-1} Theta / (k 2**w))
           until r_K = 0; r_k goes to the real part c or the imaginary part
           s with the sign of i**k.  The true term R_k = 2**w t**k / k!
           exceeds r_k by d_k < d_{k-1} t / k + 1, so with t < 3:
           d_1 < 1, d_2 < 2.5, d_3 < 3.5, d_4 < 3.7, and d_k < 1 + 4 * 3/5
           < 4 from k = 5 on.  As r_K = 0, R_K < 4 and the tail is
           sum_{k >= K} R_k <= R_K e**t < 4 e**3 < 81.  So c and s are each
           within tau = 4K + 81 of 2**w cos t and 2**w sin t.  Since
           |exp(i t) - exp(i theta)| <= |t - theta|, c + i*s is within
           e_1 = ceil(3 tau / 2) + ceil(2 e_pi / n) + 1 >= sqrt(2) tau + delta
           of 2**w zeta.
        4. Powers.  z_0 = 2**w and z_{k+1} = z_k z_1 / 2**w, each part
           floored (under sqrt(2) ulps in all).  With eps_k the error of
           z_k and |zeta**k| = 1,
           eps_{k+1} <= eps_k (1 + e_1 u) + e_1 + sqrt(2).
           If top (e_1 + 2) e_1 <= 2**(w-1), induction gives
           eps_k <= k (e_1 + 2) for k <= top: eps_k e_1 u <= 1/2, and
           1/2 + sqrt(2) < 2.
        5. Sum.  X = sum v_i z_i is within sum |v_i| eps_i
           <= (e_1 + 2) weight of 2**w den * value, and flooring
           X / den adds under sqrt(2) < 2.  The ball around the floored
           midpoint with radius err * u,
           err = ceil((e_1 + 2) weight / den) + 2, holds the value.

        A rational value (weight = 0) needs no zeta: err = 2 at
        w = precision + 2.  Otherwise top >= 1, so phi(n) >= 2 and n >= 3,
        and w starts from a guess of at least precision + 8 >= 8 and grows
        until err <= 2**(w - precision - 1) and top (e_1 + 2) e_1 <= 2**(w-1).
        Both hold for large w, because r_k = 0 once 3**k / k! < 2**-w, so
        K and e_1 grow like w.  The radius bound therefore holds on
        return.
        """
        num, den = self.num, self.den
        weight = sum(i * abs(v) for i, v in enumerate(num))
        top = max((i for i, v in enumerate(num) if v), default=0)
        w, c1, s1, err = precision + 2, 0, 0, 2
        if weight:
            w += 6 + precision.bit_length() + (weight // den).bit_length()
            while True:
                c1, s1, e1 = _unit_root(self.n, w)
                err = -(-(e1 + 2) * weight // den) + 2
                if err <= 1 << (w - precision - 1) and top * (e1 + 2) * e1 <= 1 << (w - 1):
                    break
                w += 8
        re = im = 0
        c, s = 1 << w, 0
        for v in num[: top + 1]:
            if v:
                re += v * c
                im += v * s
            c, s = (c * c1 - s * s1) >> w, (c * s1 + s * c1) >> w
        one = 1 << w
        return ComplexInterval(
            Fraction(re // den, one), Fraction(im // den, one), Fraction(err, one)
        )

    def sign(self) -> int:
        """Sign of a totally real value under the principal embedding.

        Exact zero test first, then interval evaluation at doubling
        precision; the loop terminates because a nonzero algebraic number
        is bounded away from zero.
        """
        if not self.is_totally_real():
            raise ValueError("sign requires a totally real argument")
        if self.is_zero():
            return 0
        prec = 64
        while prec <= 1 << 16:
            iv = self.embed(prec)
            if abs(iv.re) > iv.radius:
                return 1 if iv.re > 0 else -1
            prec *= 2
        raise ArithmeticError(f"sign of {self} unresolved at precision {prec}")

    def compare_real(self, other) -> int:
        """Exact three-way comparison of totally real values."""
        diff = self - (other if isinstance(other, Cyc) else Cyc.from_rational(other))
        return diff.sign()

    def is_totally_positive(self) -> bool:
        """True when every real embedding of the value is positive."""
        if not self.is_totally_real():
            raise ValueError("is_totally_positive requires a totally real argument")
        if self.is_zero():
            return False
        return all(c.sign() > 0 for c in self.conjugates())

    # -- presentation and serialization

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, v in enumerate(self.num):
            if not v:
                continue
            coeff = Fraction(v, self.den)
            if i == 0:
                parts.append(str(coeff))
                continue
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            power = f"z{self.n}" if i == 1 else f"z{self.n}^{i}"
            term = f"{mag}{power}"
            parts.append(f"-{term}" if coeff < 0 else (f"+{term}" if parts else term))
        s = parts[0]
        for p in parts[1:]:
            s += f" {p[0]} {p[1:]}" if p[0] in "+-" else f" + {p}"
        return s

    def __repr__(self) -> str:
        return f"Cyc({self})"

    def to_json(self) -> dict:
        """{"n": n, "den": den, "terms": [[i, num_i], ...]}: the reduced
        common denominator and the nonzero power-basis numerators, as
        decimal strings, at strictly increasing indices i.  Zero is
        {"n": n, "den": "1", "terms": []}."""
        return {
            "n": self.n,
            "den": str(self.den),
            "terms": [[i, str(v)] for i, v in enumerate(self.num) if v],
        }

    @staticmethod
    def from_json(obj: dict) -> "Cyc":
        """Read the form `to_json` writes, or the dense form of older files,
        {"n": n, "c": [[num, den], ...]} with all phi(n) coefficients.  The
        value is stored densely, phi(n) integers, so a reader of untrusted
        input caps n first, as `catalog_cli.from_dict` does."""
        if not isinstance(obj, dict):
            raise ValueError(
                "field element must be {'n': ..., 'den': ..., 'terms': [[i, num], ...]}"
            )
        dense = "c" in obj
        if dense and ("den" in obj or "terms" in obj):
            raise ValueError("field element mixes the dense 'c' form with 'den' and 'terms'")
        for key in ("n", "c") if dense else ("n", "den", "terms"):
            if key not in obj:
                raise ValueError(f"field element has no {key!r}")
        n = obj["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"bad conductor {n!r}")
        den, num = _dense_json(n, obj["c"]) if dense else _sparse_json(n, obj)
        return _normalize(n, den, num)


def _sparse_json(n: int, obj: dict) -> tuple[int, list[int]]:
    den = obj["den"]
    if type(den) is not str and type(den) is not int:
        raise ValueError(f"denominator {den!r} is not an integer")
    den = int(den)
    if den < 1:
        raise ValueError(f"denominator {den} is not positive")
    terms = obj["terms"]
    if type(terms) is not list:
        raise ValueError(f"terms must be a list, not {type(terms).__name__}")
    phi = euler_phi(n)
    num = [0] * phi
    last = -1
    for term in terms:
        if type(term) is not list or len(term) != 2:
            raise ValueError(f"term {term!r} is not an [index, numerator] pair")
        i, v = term
        if type(i) is not int:
            raise ValueError(f"term index {i!r} is not an integer")
        if not 0 <= i < phi:
            raise ValueError(f"term index {i} is outside 0 <= i < phi({n}) = {phi}")
        if i <= last:
            raise ValueError(f"term index {i} follows {last}: indices must increase")
        num[i] = _json_int(v)
        last = i
    return den, num


def _dense_json(n: int, c) -> tuple[int, list[int]]:
    if len(c) != euler_phi(n):
        raise ValueError(
            f"coefficient length {len(c)} does not match phi({n}) = {euler_phi(n)}"
        )
    nums, dens = [], []
    for pair in c:
        # a string or a dict of two items would unpack as a pair too
        if type(pair) is not list:
            raise ValueError(f"coefficient {pair!r} is not a [num, den] list")
        num, den = pair
        den = _json_int(den)
        if den == 0:
            raise ValueError("zero denominator in a coefficient")
        num = _json_int(num)
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        nums.append(num // g)
        dens.append(den // g)
    den = math.lcm(*dens)
    return den, [v * (den // d) for v, d in zip(nums, dens)]


def _json_int(v) -> int:
    # type(), not isinstance: JSON true and false load as bools, which are ints
    if type(v) is not int and not isinstance(v, str):
        raise ValueError(f"coefficient {v!r} is not an integer")
    return int(v)


def rational(q) -> Cyc:
    """The rational number q as a conductor-1 element."""
    return Cyc.from_rational(q)


def root_of_unity(n: int, k: int = 1) -> Cyc:
    """zeta_n^k as an exact element, stored at the reduced conductor
    n / gcd(n, k)."""
    r = RootOfUnity.make(n, k)
    return _reduced(r.order, 1, [0] * euler_phi(r.order), ((r.exponent, 1),))


def _as_root_of_unity(x: Cyc) -> "RootOfUnity | None":
    """x as a RootOfUnity, or None when it is not one.

    The roots of unity in Q(zeta_n) are the +-zeta_n^e, and the power basis
    form is unique, so x is one exactly when its denominator is 1 and its
    nonzero entries are a row of `_power_basis(n)` or the negation of one.
    """
    if x.den != 1:
        return None
    pairs = tuple((i, v) for i, v in enumerate(x.num) if v)
    negated = tuple((i, -v) for i, v in pairs)
    for e, row in enumerate(_power_basis(x.n)):
        if row == pairs:
            return RootOfUnity.make(x.n, e)
        if row == negated:
            return RootOfUnity.make(2 * x.n, 2 * e + x.n)
    return None


# ---------------------------------------------------------------------------
# roots of unity as (order, exponent) pairs


class RootOfUnity(namedtuple("RootOfUnity", "order exponent")):
    """zeta_order^exponent in lowest terms: gcd(exponent, order) = 1 and the
    stored order is the true multiplicative order."""

    __slots__ = ()

    def __new__(cls, order: int, exponent: int):
        if order < 1 or not 0 <= exponent < max(order, 1):
            raise ValueError(f"bad root of unity ({order}, {exponent})")
        if order == 1:
            if exponent != 0:
                raise ValueError("order 1 forces exponent 0")
        elif math.gcd(exponent, order) != 1:
            raise ValueError(f"({order}, {exponent}) is not in lowest terms")
        return tuple.__new__(cls, (order, exponent))

    @staticmethod
    def make(m: int, k: int) -> "RootOfUnity":
        if m < 1:
            raise ValueError(f"bad order {m}")
        k %= m
        if k == 0:
            return RootOfUnity(1, 0)
        g = math.gcd(k, m)
        return RootOfUnity(m // g, k // g)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(1, 0)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        L = self.order * other.order // math.gcd(self.order, other.order)
        return RootOfUnity.make(
            L, self.exponent * (L // self.order) + other.exponent * (L // other.order)
        )

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.make(self.order, -self.exponent)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.make(self.order, self.exponent * e)

    def to_cyc(self) -> Cyc:
        return root_of_unity(self.order, self.exponent)

    def __str__(self) -> str:
        if self.order == 1:
            return "1"
        if self.order == 2:
            return "-1"
        e = "" if self.exponent == 1 else f"^{self.exponent}"
        return f"z{self.order}{e}"

    def to_json(self) -> dict:
        return {"m": self.order, "k": self.exponent}

    @staticmethod
    def from_json(obj: dict) -> "RootOfUnity":
        if not isinstance(obj, dict) or "m" not in obj or "k" not in obj:
            raise ValueError("root of unity must be {'m': ..., 'k': ...}")
        m, k = obj["m"], obj["k"]
        if type(m) is not int or type(k) is not int:
            raise ValueError("root of unity fields must be integers")
        return RootOfUnity.make(m, k)


# ---------------------------------------------------------------------------
# exact residues


class ResidueMap:
    """The ring map Z[zeta_N] -> Z/m with zeta_N -> w = 2^bits and
    m = |Phi_N(w)|, chosen so that m > bound^phi(N).  It turns each field
    element into one integer (Kronecker substitution), and it decides
    equality exactly for values bounded by `bound` in every embedding.

    The map is well defined because Phi_N(w) = 0 mod m, and w^N = 1 mod m
    because Phi_N divides x^N - 1.  Proof of exactness: the map is onto, so
    its kernel is an ideal of norm m.  An integral x that maps to 0 lies in
    that ideal, so m divides the field norm N(x), the product of the phi(N)
    values sigma(x).  If x != 0 and every |sigma(x)| <= bound, then
    0 < |N(x)| <= bound^phi(N) < m, which is impossible.  So x maps to 0
    only when x = 0.  Since |w - zeta| >= w - 1 for every root of unity
    zeta, w >= bound + 2 gives m >= (bound + 1)^phi(N).

    The bound rule: |sigma(x)| is at most ||x||_1, the sum of the absolute
    coefficients of any expression of x in powers of zeta.  For
    x = sum_k a_k b_k - c, take sum_k ||a_k||_1 ||b_k||_1 + ||c||_1, from
    the factors; the coefficients of x after reduction mod Phi_N can be
    larger (Phi_105 has a coefficient -2).
    """

    __slots__ = ("conductor", "bits", "modulus")

    def __init__(self, conductor: int, bound: int):
        self.conductor = conductor
        self.bits = (bound + 1).bit_length()
        phi_n = cyclotomic_poly(conductor)
        self.modulus = abs(sum(c << (self.bits * i) for i, c in enumerate(phi_n)))

    def __eq__(self, other):
        return isinstance(other, ResidueMap) and (self.conductor, self.bits) == (other.conductor, other.bits)

    def __call__(self, x: Cyc, scale: int = 1, k: int = 1) -> int:
        """The image of scale * sigma_k(x), for x in Q(zeta_n) with n dividing
        the conductor N and scale * x integral.  zeta_n^i is zeta_N^(iN/n),
        so the entries of x pack at a stride of bits * N/n."""
        N, n = self.conductor, x.n
        q, rem = divmod(scale, x.den)
        if N % n or rem:
            raise ValueError(f"{scale} * ({x}) is not in Z[zeta_{N}]")
        stride = self.bits * (N // n)
        acc = 0
        for i, v in enumerate(x.num):
            if v:
                acc += v << (stride * (k * i % n))
        return acc * q % self.modulus

    def root(self, t: RootOfUnity) -> int:
        """The image of t = zeta_o^e, o dividing the conductor N: w^(eN/o)."""
        step, rem = divmod(self.conductor, t.order)
        if rem:
            raise ValueError(f"{t} is not in Q(zeta_{self.conductor})")
        return pow(2, self.bits * t.exponent * step, self.modulus)
