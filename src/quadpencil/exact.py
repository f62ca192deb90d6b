"""Exact arithmetic substrate.

Arbitrary-precision rationals (``fractions.Fraction``), univariate
polynomials over Q and over F_p, factorization, discriminants, square
tests, bad-prime sets with the walk over good primes, and a certified
square-root test in etale algebras Q[t]/(m).

Polynomials are coefficient tuples in low-to-high order with no trailing
zeros; the zero polynomial has an empty tuple.  A polynomial over Z/N is
the int list of its coefficients in [0, N), and `fp_reduce` is the one way
a rational polynomial gets there.  Determinants of integer matrices are
fraction-free Bareiss elimination, and a resultant is the determinant of
an integer Sylvester matrix.

This is the only module that calls sympy, for factorization and primes:
factorization over Q and over F_p, primality, the next prime and integer
factorization are delegated to it (exact, deterministic); everything the
certificates depend on is re-verified here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import sympy

_t = sympy.Symbol("t")

# The largest polynomial degree factor_q accepts; command-line polynomials
# are held to the same bound.
MAX_DEGREE = 16


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, sympy.Rational):
        return Fraction(int(x.p), int(x.q))
    raise TypeError(f"not an exact rational: {x!r}")


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class RatPoly:
    """Univariate polynomial over Q, coefficients low-to-high."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs) -> "RatPoly":
        return cls(_trim([_as_rat(c) for c in coeffs]))

    @classmethod
    def const(cls, c) -> "RatPoly":
        return cls.of([c])

    @classmethod
    def x(cls) -> "RatPoly":
        return cls.of([0, 1])

    @classmethod
    def from_roots(cls, roots) -> "RatPoly":
        f = cls.of([1])
        for r in roots:
            f = f * cls.of([-_as_rat(r), 1])
        return f

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(_trim([self[i] + other[i] for i in range(n)]))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(_trim([self[i] - other[i] for i in range(n)]))

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return RatPoly(_trim([ci * c for ci in self.coeffs]))
        if self.is_zero or other.is_zero:
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(_trim(out))

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.lc
        while len(r) - 1 >= d and _trim(r):
            r = list(_trim(r))
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
            r = list(_trim(r))
        return RatPoly(_trim(q)), RatPoly(_trim(r))

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __call__(self, x):
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "RatPoly":
        return self * (1 / self.lc)

    def derivative(self) -> "RatPoly":
        return RatPoly(_trim([i * c for i, c in enumerate(self.coeffs)][1:]))

    def gcd(self, other: "RatPoly") -> "RatPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def denominator_lcm(self) -> int:
        return math.lcm(*(c.denominator for c in self.coeffs)) if self.coeffs else 1

    def to_sympy(self):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(self.coeffs)]
        return sympy.Poly(coeffs, _t)

    @classmethod
    def from_sympy(cls, p) -> "RatPoly":
        return cls.of(list(reversed([_as_rat(c) for c in p.all_coeffs()])))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def _bareiss(a: list[list[int]], exchange: bool = True) -> tuple[int, list[int]]:
    """Bareiss elimination of the integer matrix a, in place; every division
    is exact.  Returns the sign of the row exchanges and the pivots, which
    stop at the first zero pivot; the last pivot times the sign is the
    determinant.  Without row exchanges the pivots are the leading
    principal minors."""
    n = len(a)
    sign, prev, pivots = 1, 1, []
    for k in range(n):
        if a[k][k] == 0 and exchange:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
        pivot = a[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        row_k = a[k]
        for i in range(k + 1, n):
            row_i, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return sign, pivots


def int_det(a: list[list[int]]) -> int:
    """Determinant of an integer matrix; the rows of a are overwritten."""
    sign, pivots = _bareiss(a)
    return sign * pivots[-1] if pivots else 1


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) = lc(f)^deg g lc(g)^deg f prod (alpha_i - beta_j) over the
    roots alpha of f and beta of g: with f = F/a and g = G/b for integer
    F and G, the determinant of the Sylvester matrix of F and G divided by
    a^deg g b^deg f."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of zero polynomial")
    m, n = f.degree, g.degree
    a, b = f.denominator_lcm(), g.denominator_lcm()
    F = [c.numerator * (a // c.denominator) for c in reversed(f.coeffs)]
    G = [c.numerator * (b // c.denominator) for c in reversed(g.coeffs)]
    rows = [[0] * i + F + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + G + [0] * (m - 1 - i) for i in range(m)]
    return Fraction(int_det(rows), a**n * b**m)


def crt_poly(residues: Sequence[RatPoly], moduli: Sequence[RatPoly]) -> RatPoly:
    """Element of Q[t]/(prod moduli) matching each residue; moduli pairwise coprime."""
    total = RatPoly.of([1])
    for m in moduli:
        total = total * m
    acc = RatPoly(())
    for r, m in zip(residues, moduli):
        other = total // m
        inv = inverse_mod(other % m, m)
        acc = (acc + r * other * inv) % total
    return acc


def inverse_mod(a: RatPoly, m: RatPoly) -> RatPoly:
    """Inverse of a modulo m via extended gcd; raises if not coprime."""
    r0, r1 = m, a % m
    s0, s1 = RatPoly(()), RatPoly.of([1])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ValueError(f"not invertible modulo {m}: gcd has degree {r0.degree}")
    return (s0 * (1 / r0.coeffs[0])) % m


@dataclass(frozen=True)
class Residue:
    """Element of Q[t]/(m), for exact arithmetic in an etale algebra."""

    poly: RatPoly
    modulus: RatPoly

    @classmethod
    def of(cls, poly: RatPoly, modulus: RatPoly) -> "Residue":
        return cls(poly % modulus, modulus)

    def _check(self, other: "Residue"):
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.poly + other.poly, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.poly - other.poly, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.poly, self.modulus)

    def __mul__(self, other) -> "Residue":
        if isinstance(other, (int, Fraction)):
            return Residue(self.poly * other, self.modulus)
        self._check(other)
        return Residue((self.poly * other.poly) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "Residue":
        return Residue(inverse_mod(self.poly, self.modulus), self.modulus)

    def __truediv__(self, other: "Residue") -> "Residue":
        return self * other.inverse()

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero


# ---------------------------------------------------------------------------
# Factorization over Q

def factor_q(f: RatPoly) -> list[tuple[RatPoly, int]]:
    """Monic irreducible factors of f over Q with multiplicities.

    The product of the factors (times the content f / prod) reproduces f.
    Factors are sorted by (degree, coefficient tuple) for determinism.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > MAX_DEGREE:
        raise ValueError(f"degree > {MAX_DEGREE} not supported")
    _, pairs = f.to_sympy().factor_list()
    out = []
    for p, mult in pairs:
        out.append((RatPoly.from_sympy(sympy.Poly(p, _t)).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def discriminant(f: RatPoly) -> Fraction:
    """Resultant-based discriminant, (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.lc


# ---------------------------------------------------------------------------
# Polynomials over F_p (dense int lists, low-to-high)

def fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return fp_trim(out)


def fp_rem(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    r = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(r) - 1 >= dm and fp_trim(r):
        r = fp_trim(r)
        if len(r) - 1 < dm:
            break
        c = r[-1] * inv % p
        k = len(r) - 1 - dm
        for i, mi in enumerate(m):
            r[k + i] = (r[k + i] - c * mi) % p
        r = fp_trim(r)
    return r


def fp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, fp_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def fp_powmod(base: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    b = fp_rem(base, m, p)
    while e:
        if e & 1:
            result = fp_rem(fp_mul(result, b, p), m, p)
        b = fp_rem(fp_mul(b, b, p), m, p)
        e >>= 1
    return result


def fp_eval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def fp_reduce(f: RatPoly, mod: int) -> list[int]:
    """The coefficients of f in Z/mod; every denominator of f must be a unit
    there."""
    return fp_trim([c.numerator * pow(c.denominator, -1, mod) % mod for c in f.coeffs])


def factor_fp(coeffs: Sequence[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors over F_p, with multiplicities, of the
    polynomial with these coefficients (low to high)."""
    cs = fp_trim([c % p for c in coeffs])
    if not cs:
        raise ValueError("cannot factor the zero polynomial")
    poly = sympy.Poly(cs[::-1], _t, modulus=p, symmetric=False)
    _, pairs = poly.factor_list()
    out = []
    for g, mult in pairs:
        cs = [int(c) % p for c in reversed(sympy.Poly(g, _t, modulus=p, symmetric=False).all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append((tuple(c * inv % p for c in cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def _fixed_part(m: Sequence[int], xq: Sequence[int], p: int) -> list[int]:
    """gcd(m, xq - x) over F_p for xq = x^(p^d) mod m: the product of the
    distinct monic irreducible factors of m whose degree divides d."""
    diff = list(xq) + [0] * (2 - len(xq))
    diff[1] = (diff[1] - 1) % p
    return fp_gcd(m, fp_trim(diff), p)


def cycle_type(f: RatPoly, p: int) -> tuple[int, ...]:
    """Factor degrees of f mod p (descending), by distinct-degree splitting.

    Requires f monic with p-integral coefficients and separable mod p.
    """
    m = fp_reduce(f, p)
    if len(m) - 1 != f.degree:
        raise ValueError("leading coefficient vanishes mod p")
    rem = m
    degrees: list[int] = []
    xq = [0, 1]
    d = 0
    while len(rem) - 1 > 0:
        d += 1
        if 2 * d > len(rem) - 1:
            # whatever is left is a single irreducible factor
            degrees.append(len(rem) - 1)
            break
        xq = fp_powmod(xq, p, rem, p)
        g = _fixed_part(rem, xq, p)
        if len(g) - 1 > 0:
            degrees.extend([d] * ((len(g) - 1) // d))
            rem = _fp_div_exact(rem, g, p)
            if len(rem) - 1 > 0:
                xq = fp_rem(xq, rem, p)
    return tuple(sorted(degrees, reverse=True))


def _fp_div_exact(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    inv = pow(b[-1], -1, p)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1] * inv % p
        q[k] = c
        for i, bi in enumerate(b):
            r[k + i] = (r[k + i] - c * bi) % p
    return fp_trim(q)


# ---------------------------------------------------------------------------
# Local places and square tests

@dataclass(frozen=True)
class LocalPlace:
    """A place of Q: the real place or a (verified) prime."""

    is_real: bool
    p: Optional[int] = None

    def __post_init__(self):
        if not self.is_real:
            if self.p is None or not sympy.isprime(self.p):
                raise ValueError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return "real" if self.is_real else str(self.p)


REAL_PLACE = LocalPlace(True)


def prime_place(p: int) -> LocalPlace:
    return LocalPlace(False, p)


def val_unit(a: Fraction, p: int) -> tuple[int, Fraction]:
    """p-adic valuation and unit part of a nonzero rational."""
    if a == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = a.numerator, a.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def is_square_q(a) -> bool:
    """True iff the nonzero rational a is a square in Q."""
    a = _as_rat(a)
    if a == 0:
        raise ValueError("square test on zero")
    if a < 0:
        return False
    return (
        math.isqrt(a.numerator) ** 2 == a.numerator
        and math.isqrt(a.denominator) ** 2 == a.denominator
    )


# ---------------------------------------------------------------------------
# Bad primes and the walk over good primes


@dataclass(frozen=True)
class BadSet:
    """A finite set of bad primes: 2, every prime below `margin`, and every
    prime dividing one of `integers`.

    Membership is a division test, so the integers are never factored.
    """

    integers: tuple[int, ...]
    margin: int

    def __post_init__(self):
        if 0 in self.integers:
            raise ValueError("prime divisors of zero")

    def __contains__(self, p: int) -> bool:
        return p == 2 or p < self.margin or any(n % p == 0 for n in self.integers)


def good_primes(bad: BadSet, start: int, stop: Optional[int] = None) -> Iterator[int]:
    """Primes p >= start outside `bad`, increasing.  A bounded walk ends
    after examining the first prime >= stop."""
    p = start - 1
    while stop is None or p < stop:
        p = int(sympy.nextprime(p))
        if p not in bad:
            yield p


# ---------------------------------------------------------------------------
# Square roots in etale algebras

def sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks; a must be a quadratic residue mod odd p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def rational_reconstruct(u: int, modulus: int) -> Optional[Fraction]:
    """n/d with n*d^-1 = u mod modulus, |n|, d <= sqrt(modulus/2), or None."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, u % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


@dataclass(frozen=True)
class SqrtEtaleResult:
    """Outcome of a square test in Q[t]/(m): square / nonsquare / undecided."""

    status: str
    root: Optional[RatPoly] = None
    certificate: Optional[tuple[int, int]] = None  # (p, root of m mod p) with nonresidue value
    split_primes_tried: int = 0


def lift_root(m: RatPoly, r: int, p: int, pk: int) -> int:
    """Hensel lift of a simple root of m from mod p to mod pk (pk a power of p)."""
    mk, mdk = fp_reduce(m, pk), fp_reduce(m.derivative(), pk)
    cur, mod = r, p
    while mod < pk:
        mod = min(mod * mod, pk)
        fr = fp_eval(mk, cur, mod)
        fdr = fp_eval(mdk, cur, mod)
        cur = (cur - fr * pow(fdr, -1, mod)) % mod
    return cur % pk


def unramified_prime(f: RatPoly) -> Optional[int]:
    """The least odd prime that does not divide disc(f), for a monic f in
    Z[t], or None when disc(f) = 0.

    p does not divide disc(f) iff f mod p is squarefree, so the first 10
    odd primes are tried mod p; the integer discriminant is computed only
    when every one of them divides it."""
    for p in itertools.islice(good_primes(BadSet((), 0), 3), 10):
        fp = fp_reduce(f, p)
        if len(fp_gcd(fp, fp_trim([i * c % p for i, c in enumerate(fp)][1:]), p)) == 1:
            return p
    disc = discriminant(f)
    return None if disc == 0 else next(good_primes(BadSet((disc.numerator,), 0), 3))


def integer_roots(f: RatPoly) -> list[int]:
    """The integer roots of a monic f in Z[t], sorted; they are all of its
    rational roots.

    p-adic lifting (Loos, SIAM J. Comput. 12, 1983): at the least odd prime
    p not dividing disc(f) every root of f is a simple root mod p, so each
    integer root is the symmetric residue of the Hensel lift of a root mod p
    to a p^k above twice Fujiwara's bound 2 max |c_i|^(1/(n - i)) on the
    roots.  A lift is kept only if it is a root of f exactly.  A repeated
    root is a root of the squarefree part f // gcd(f, f'), which is then
    lifted instead."""
    if f.is_zero or f.lc != 1 or any(c.denominator != 1 for c in f.coeffs):
        raise ValueError("monic integer polynomial required")
    if f.degree < 2:
        return [int(-f[0])] if f.degree == 1 else []
    p = unramified_prime(f)
    if p is None:
        return integer_roots(f // f.gcd(f.derivative()))
    fp = fp_reduce(f, p)
    g = _fixed_part(fp, fp_powmod([0, 1], p, fp, p), p)
    if len(g) < 2:
        return []
    n = f.degree
    bound = 2 << max(-(-c.numerator.bit_length() // (n - i)) for i, c in enumerate(f.coeffs[:-1]))
    pk = p
    while pk <= 2 * bound:
        pk *= pk
    roots = []
    for r in range(p):
        if fp_eval(g, r, p) == 0:
            x = lift_root(f, r, p, pk)
            if x > pk // 2:
                x -= pk
            v = 0
            for c in reversed(f.coeffs):
                v = v * x + c.numerator
            if v == 0:
                roots.append(x)
    return sorted(roots)


def sqrt_in_etale(d: RatPoly, m: RatPoly, prime_budget: int = 200) -> SqrtEtaleResult:
    """Decide whether d is a square in the etale algebra Q[t]/(m).

    m must be a monic squarefree modulus and d a unit mod m.  A positive
    answer carries a verified root y with y^2 = d mod m (found by Hensel
    lifting modulo a totally split prime and rational reconstruction).  A
    negative answer carries a certificate (p, r): p an odd prime, unramified
    for m, at which d is a unit, with m(r) = 0 mod p and d(r) a nonresidue
    mod p; the Hensel lift of r maps the algebra to Z_p, where d has no
    square root.  If neither is found within prime_budget split primes,
    returns "undecided" rather than guessing.
    """
    if m.is_zero or m.lc != 1:
        raise ValueError("modulus must be monic")
    d = d % m
    if d.is_zero:
        raise ValueError("d is zero modulo m")

    if m.degree == 1:
        val = d(-m[0])
        if is_square_q(val):
            num = math.isqrt(val.numerator)
            den = math.isqrt(val.denominator)
            return SqrtEtaleResult("square", RatPoly.const(Fraction(num, den)))
        return SqrtEtaleResult("nonsquare", certificate=None)

    disc_m = discriminant(m)
    if disc_m == 0:
        raise ValueError("modulus must be squarefree")
    if resultant(m, d) == 0:
        raise ValueError("d is not a unit modulo m")
    bad = BadSet((disc_m.numerator, disc_m.denominator, m.denominator_lcm(), d.denominator_lcm()), 0)
    primes = good_primes(bad, 3)
    deg = m.degree
    split_seen = 0
    while split_seen < prime_budget:
        p = next(primes)
        mp = fp_reduce(m, p)
        g = _fixed_part(mp, fp_powmod([0, 1], p, mp, p), p)
        nroots = len(g) - 1
        if nroots <= 0:
            continue
        roots = [r for r in range(p) if fp_eval(g, r, p) == 0]
        dp = fp_reduce(d, p)
        usable = []
        for r in roots:
            u = fp_eval(dp, r, p)
            if u == 0:
                continue
            if legendre(u, p) == -1:
                return SqrtEtaleResult("nonsquare", certificate=(p, r), split_primes_tried=split_seen)
            usable.append((r, u))
        if nroots == deg and len(usable) == deg:
            split_seen += 1
            y = _reconstruct_sqrt(d, m, p, usable)
            if y is not None:
                return SqrtEtaleResult("square", root=y, split_primes_tried=split_seen)
    return SqrtEtaleResult("undecided", split_primes_tried=split_seen)


def _reconstruct_sqrt(d: RatPoly, m: RatPoly, p: int, root_vals) -> Optional[RatPoly]:
    deg = m.degree
    for k_digits in (45, 130, 400):
        pk = p ** max(2, int(k_digits / math.log10(p)) + 1)
        roots_k = [lift_root(m, r, p, pk) for r, _ in root_vals]
        dk = fp_reduce(d, pk)
        sqrts_k = []
        for (r, u), rk in zip(root_vals, roots_k):
            # the square root of d(rk) mod pk lifting the one of u mod p
            y2 = RatPoly.of([-fp_eval(dk, rk, pk), 0, 1])
            sqrts_k.append(lift_root(y2, sqrt_mod_p(u, p), p, pk))
        for signs in range(1 << (deg - 1)):
            vals = [sqrts_k[0]]
            for i in range(1, deg):
                vals.append(sqrts_k[i] if not (signs >> (i - 1)) & 1 else (-sqrts_k[i]) % pk)
            y = interpolate_rational(roots_k, vals, pk)
            if y is not None and ((y * y - d) % m).is_zero:
                return y
    return None


def interpolate_rational(xs: Sequence[int], ys: Sequence[int], pk: int) -> Optional[RatPoly]:
    """The polynomial over Q of degree < len(xs) that takes the values ys at
    xs mod pk, each coefficient read back by rational reconstruction, or
    None when one has no reconstruction.  The xs must be distinct mod p, so
    that their differences are units; the caller checks the result exactly."""
    coeffs = []
    for c in _interpolate_mod(xs, ys, pk):
        if (rec := rational_reconstruct(c, pk)) is None:
            return None
        coeffs.append(rec)
    return RatPoly.of(coeffs)


def _interpolate_mod(xs: Sequence[int], ys: Sequence[int], mod: int) -> list[int]:
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        num = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            new = [0] * (len(num) + 1)
            for k, a in enumerate(num):
                new[k] = (new[k] - a * xs[j]) % mod
                new[k + 1] = (new[k + 1] + a) % mod
            num = new
            denom = denom * (xs[i] - xs[j]) % mod
        scale = ys[i] * pow(denom, -1, mod) % mod
        for k, a in enumerate(num):
            coeffs[k] = (coeffs[k] + a * scale) % mod
    return coeffs


def squarefree_part(n: int) -> int:
    """Squarefree kernel of a nonzero integer (sign preserved)."""
    if n == 0:
        raise ValueError("squarefree part of zero")
    out = -1 if n < 0 else 1
    for q, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= int(q)
    return out


def _square_or_prime(n: int) -> bool:
    return math.isqrt(n) ** 2 == n or sympy.isprime(n)


def strip_square_content(d: RatPoly, bound: int = 10**6) -> RatPoly:
    """Multiply d by the square of a rational so heights shrink.

    Clears denominators, then removes the even part of every prime <= bound
    from the integer content by trial division, and a cofactor left over
    that is a square.  Trial division stops early once the cofactor is a
    square or a prime: it would remove all of a square and none of a prime.
    The square class of d in Q[t]/(m) is unchanged.
    """
    if d.is_zero:
        return d
    den = d.denominator_lcm()
    e = d * den * den  # integer coefficients, same square class
    nums = [c.numerator for c in e.coeffs]
    g = 0
    for n in nums:
        g = math.gcd(g, n)
    if g > 1:
        sq = 1
        q = 2
        rem = g
        settled = _square_or_prime(rem)
        while not settled and q * q <= rem and q <= bound:
            if rem % q == 0:
                exp = 0
                while rem % q == 0:
                    rem //= q
                    exp += 1
                sq *= q ** (2 * (exp // 2))
                settled = _square_or_prime(rem)
            q += 1 if q == 2 else 2
        root = math.isqrt(rem)
        if root * root == rem:
            sq *= rem
        if sq > 1:
            e = e * Fraction(1, sq)
    return e
