"""Exact arithmetic substrate.

Arbitrary-precision rationals (``fractions.Fraction``), univariate
polynomials over Q and over F_p, factorization, discriminants, square
tests, bad-prime sets with the walk over good primes, and a square-root
test in etale algebras Q[t]/(m) that always decides.

A polynomial over Q that is known by its values at the p-adic roots of a
modulus split completely mod p is read back by `split_interpolations`:
Hensel lifts continued from one precision to the next, one Lagrange basis
per precision and rational reconstruction of each coefficient, up to a
precision at which a polynomial of bounded height is sure to come back
(Wang, Guy and Davenport, SIGSAM Bull. 16, 1982).  The bounds rest on
Fujiwara's root bound (`root_bound_bits`).  The automorphisms of
`galois._automorphism` and the square roots of `sqrt_in_etale` are found
this way, so a failure at that precision is a proof; only a d that is a
square in Q[t] already has its root read off its coefficients, from the
top down, with no prime.

A polynomial over Q (`RatPoly`) is a tuple of integer numerators, low to
high with no trailing zero, over one positive denominator, in lowest
terms, so that equal polynomials have equal fields; the zero polynomial
is ((), 1).  Its arithmetic runs on ints, one gcd per result, and
Fractions are built only for output (`RatPoly.coeffs`) and for single
values.  A caller that needs integer coefficients reads the numerators
and the denominator; none clears denominators by hand.  A polynomial over
Z/N is the int list of its coefficients in [0, N), and `fp_reduce`, with
one inverse of the denominator, is the one way a rational polynomial gets
there.  One product (`poly_mul`) serves Z, Q and F_p, Z and Q share one
long division (`pseudo_divmod`) and F_p has its own (`fp_divmod`).
Determinants of integer matrices are fraction-free Bareiss elimination
(Bareiss, Math. Comp. 22, 1968), and a resultant is the determinant of an
integer Sylvester matrix.  One fraction-free Gauss-Jordan elimination
gives a whole column of cofactors, the signed maximal minors of the other
columns (`adjugate_column`; a nonzero column of the adjugate of a
corank-1 symmetric matrix spans its kernel).

A polynomial over Z is an int list as well, with one long division,
`pseudo_divmod` (Collins, J. ACM 14, 1967).  It makes no rational
division: it is the division itself when the divisor is monic
(`factor_q`), and otherwise it divides the dividend times a power of the
divisor's leading coefficient (the Sturm chains of `localarith`, the
delta invariant, and `RatPoly.__divmod__`, which puts that power into the
denominators of the quotient and the remainder).  The delta invariant
(`pencil.delta_component`) works this way: each component is one diagonal
cofactor of a singular member, interpolated once per pencil and reduced
by one pseudo-remainder, and rationals are built only for its result.

The primes below 10^6 are one table (`small_primes`): the walk over good
primes, the primality test of a place and the square content of
`strip_square_content` read it, and a Miller-Rabin test with fixed bases,
exact below 3.3 * 10^24, runs only past its end.  `factor_q` takes the
separable polynomials of degree at most 5 that the pencils and quintics
have.  It finds the rational roots by a p-adic lift (`integer_roots`) and
factors the cofactor from the factor degrees mod good primes, trying the
quadratic factors read off the p-adic roots at a prime where it splits
completely.  Arithmetic over F_p is the repo's own: a distinct-degree split
(`_ddf`) gives cycle types, the factor degrees `factor_q` reads and signed
Frobenius classes, and its degree-one step (`fp_roots`) the roots mod p.
No third-party package is used.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class RatPoly:
    """Univariate polynomial over Q: integer numerators `num`, low to high
    with no trailing zero, over one denominator `den` > 0 with gcd(den,
    *num) = 1.  The form is unique, so == and hash are polynomial equality;
    the zero polynomial is ((), 1), and `over` brings any (num, den) to the
    form.  `coeffs` is the same polynomial as Fractions, for output."""

    num: tuple[int, ...]
    den: int = 1

    @classmethod
    def over(cls, num: Sequence[int], den: int = 1) -> "RatPoly":
        """(sum num_i t^i) / den for ints num_i, low to high, and an int den != 0."""
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        if not n:
            return cls(())
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        return cls(tuple(num[:n]) if g == 1 else tuple(c // g for c in num[:n]), den // g)

    @classmethod
    def of(cls, coeffs) -> "RatPoly":
        """The polynomial with these coefficients (ints, Fractions or "n/d"
        strings), low to high."""
        cs = [c if isinstance(c, int) else _as_rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return cls.over([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def const(cls, c) -> "RatPoly":
        return cls.of([c])

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots) -> "RatPoly":
        f = cls((1,))
        for r in roots:
            f = f * cls.of([-_as_rat(r), 1])
        return f

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Fraction(0)

    def _sum(self, other: "RatPoly", sign: int) -> "RatPoly":
        a, b, da, db = self.num, other.num, self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a, b, da = [c * (db // g) for c in a], [c * (da // g) for c in b], da // g * db
        return RatPoly.over([x + sign * y for x, y in itertools.zip_longest(a, b, fillvalue=0)], da)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        return self._sum(other, 1)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self._sum(other, -1)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.num), self.den)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly.over([c * other.numerator for c in self.num], self.den * other.denominator)
        return RatPoly.over(poly_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        # lc(B)^e A = Q B + R over Z for A = den_a a and B = den_b b, so
        # q = Q den_b / (den_a lc(B)^e) and r = R / (den_a lc(B)^e)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, e = pseudo_divmod(self.num, other.num)
        scale = self.den * other.num[-1] ** e
        return RatPoly.over([c * other.den for c in q], scale), RatPoly.over(r, scale)

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __call__(self, x) -> Fraction:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"not an exact rational: {x!r}")
        if self.is_zero:
            return Fraction(0)
        return Fraction(scaled_value(self.num, x), self.den * x.denominator**self.degree)

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return RatPoly.over(self.num, self.num[-1])

    def derivative(self) -> "RatPoly":
        return RatPoly.over([i * c for i, c in enumerate(self.num)][1:], self.den)

    def gcd(self, other: "RatPoly") -> "RatPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def denominator_lcm(self) -> int:
        return self.den

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
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


def adjugate_column(a: Sequence[Sequence[int]], k: int) -> list[int]:
    """The cofactors C_0k ... C_{n-1,k} of column k of the n x n integer
    matrix a, that is row k of adj(a) (its column k when a is symmetric);
    all zero when a has rank below n - 1.

    One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968), with row and column exchanges, of the (n-1) x n matrix B whose
    rows are the columns j != k of a.  It ends in [D I | y] up to the column
    order, and the kernel vector (-y, D) of B is, up to the sign of the
    exchanges, the vector of signed maximal minors m_i = (-1)^i det(B
    without column i).  B without column i is the transposed minor of a
    without row i and column k, so C_ik = (-1)^k m_i."""
    n = len(a)
    m = n - 1
    rows = [[a[i][j] for i in range(n)] for j in range(n) if j != k]
    order = list(range(n))  # the column of B standing at each position
    sign, prev = (-1) ** (m + k), 1
    for c in range(m):
        piv = next((r for r in range(c, m) if rows[r][c]), None)
        if piv is None:
            found = next(((r, j) for j in range(c + 1, n) for r in range(c, m) if rows[r][j]), None)
            if found is None:
                return [0] * n
            piv, j = found
            for row in rows:
                row[c], row[j] = row[j], row[c]
            order[c], order[j] = order[j], order[c]
            sign = -sign
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        row_c = rows[c]
        pivot = row_c[c]
        for r, row in enumerate(rows):
            if r != c:
                f = row[c]
                for j in range(c + 1, n):
                    row[j] = (row[j] * pivot - f * row_c[j]) // prev
        prev = pivot
    out = [0] * n
    for r, row in enumerate(rows):
        out[order[r]] = -sign * row[m]
    out[order[m]] = sign * prev
    return out


# ---------------------------------------------------------------------------
# Polynomials over Z (int lists, low-to-high)

def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two int coefficient lists, low to high."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, e) with lc(b)^e a = q b + r in Z[t], deg r < deg b and
    e = max(0, deg a - deg b + 1): the pseudo-division (Collins, J. ACM 14,
    1967), division-free, so over Q the quotient is q / lc(b)^e and the
    remainder r / lc(b)^e, and for a monic b it is the division itself.
    deg a is its formal degree len(a) - 1 (so a list padded with zeros
    raises e), b has no trailing zeros, and r is trimmed."""
    r, lb = list(a), b[-1]
    e = max(0, len(a) - len(b) + 1)
    q = [0] * e
    for _ in range(e):
        c = r.pop()
        k = len(r) - len(b) + 1
        if lb != 1:
            q = [lb * x for x in q]
            r = [lb * x for x in r]
        q[k] += c
        for i, bi in enumerate(b[:-1]):
            r[k + i] -= c * bi
    return q, fp_trim(r), e


def scaled_value(g: Sequence[int], x) -> int:
    """d^deg(g) g(x) at the int or Fraction x = n/d, d > 0, for a nonzero
    int list g: the integer sum of g_i n^i d^(deg g - i), which has the sign
    of g(x)."""
    n, d = x.numerator, x.denominator
    v, dk = g[-1], d
    for c in reversed(g[:-1]):
        v = v * n + c * dk
        dk *= d
    return v


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) = lc(f)^deg g lc(g)^deg f prod (alpha_i - beta_j) over the
    roots alpha of f and beta of g: with f = F/a and g = G/b for integer
    F and G, the determinant of the Sylvester matrix of F and G divided by
    a^deg g b^deg f."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of zero polynomial")
    m, n = f.degree, g.degree
    F, G = list(reversed(f.num)), list(reversed(g.num))
    rows = [[0] * i + F + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + G + [0] * (m - 1 - i) for i in range(m)]
    return Fraction(int_det(rows), f.den**n * g.den**m)


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
    return (s0 * Fraction(r0.den, r0.num[0])) % m


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

def factor_q(f: RatPoly) -> list[RatPoly]:
    """The monic irreducible factors over Q of a separable f of degree 1 to
    5, sorted by (degree, coefficient tuple) for determinism; their product
    is f / lc(f).  ValueError for any other f.

    With D the denominator lcm of f / lc(f) and n = deg f, Q(t) =
    D^n (f / lc(f))(t / D) is monic in Z[t], and a factor h of Q of degree
    k is the factor D^-k h(D t) of f.  Q loses its rational roots first:
    each integer root r (`integer_roots`) is the linear factor t - r/D.  The
    cofactor G, monic in Z[t], has no rational root, so it is irreducible
    when its degree is at most 3, and `_split_cofactor` factors it when its
    degree is 4 or 5.
    """
    if not 1 <= f.degree <= 5:
        raise ValueError(f"factor_q takes degree 1 to 5, not {f.degree}")
    Q, D = _monic_integer_form(f)
    p = unramified_prime(Q)
    if p is None:
        raise ValueError(f"{f} is not separable")
    G, factors = list(Q.num), []
    for r in integer_roots(Q, p):
        factors.append([-r, 1])
        G = pseudo_divmod(G, [-r, 1])[0]
    if len(G) > 1:
        factors += _split_cofactor(G) if len(G) > 4 else [G]
    out = [RatPoly.over([c * D**i for i, c in enumerate(h)], D ** (len(h) - 1)) for h in factors]
    return sorted(out, key=lambda g: (g.degree, g.coeffs))


def _monic_integer_form(f: RatPoly) -> tuple[RatPoly, int]:
    """(Q, D): Q(t) = D^n (f / lc(f))(t / D), monic in Z[t], for n = deg f and
    D the denominator lcm of f / lc(f); the roots of Q are D times those of f."""
    monic, n = f.monic(), f.degree
    D = monic.den
    return RatPoly(tuple(c * D ** (n - 1 - i) for i, c in enumerate(monic.num[:-1])) + (1,)), D


def linear_factors(f: RatPoly) -> list[RatPoly]:
    """The monic linear factors of f over Q, one per distinct rational root,
    in `factor_q`'s order: the integer roots of its monic integer form
    (`integer_roots`), without the factorization of the cofactor."""
    Q, D = _monic_integer_form(f)
    return [RatPoly.over([-r, D], D) for r in reversed(integer_roots(Q))]


def _split_cofactor(G: list[int]) -> list[list[int]]:
    """The monic irreducible factors in Z[t] of a monic squarefree G in Z[t]
    of degree k = 4 or 5 with no rational root.  Such a G is reducible
    exactly when it has a quadratic factor.

    The good primes p (odd, G mod p squarefree) are walked in order.  At
    each, the degree-set test (Musser, J. ACM 25, 1978): a factor of G over
    Q of degree d reduces mod p to a product of some of the irreducible
    factors of G mod p, so d is a sum of some of their degrees, which the
    distinct-degree split `_ddf` gives.  The possible degrees start as
    {0, 2, ..., k - 2, k} and lose every value that is not such a sum; once
    only {0, k} is left, G is irreducible.  The walk ends at the latest at
    the first good prime where G splits completely, which has density
    1/|Gal(G)| >= 1/120 (Chebotarev).  There every root of G lies in Z_p as
    the Hensel lift of a root mod p.  A quadratic factor t^2 - s t + q has
    two of them as roots, so with 2^e bounding the roots
    (`root_bound_bits`), |s| <= 2^(e+1) and |q| <= 2^(2e) are the symmetric
    residues mod p^n > 2^(2e+2) of the sum and product of a pair of lifts.
    Each pair is tried by exact division; when none divides, G is
    irreducible.
    """
    k = len(G) - 1
    # bit d of `possible` is set while a factor of degree d is not ruled out
    possible = ((1 << (k + 1)) - 1) & ~(2 | (1 << (k - 1)))
    for p in good_primes(BadSet((), 0), 3):
        m = [c % p for c in G]
        if not fp_is_squarefree(m, p):
            continue
        parts = _ddf(m, p)
        if len(parts) == 1 and parts[0][0] == 1:
            pk, bound = p, 1 << (2 * root_bound_bits(G) + 2)
            while pk <= bound:
                pk *= p
            for a, b in itertools.combinations(lift_roots(RatPoly.of(G), fp_roots(m, p), p, pk), 2):
                h = [c - pk if c > pk // 2 else c for c in (a * b % pk, -(a + b) % pk)] + [1]
                cofactor, rem, _ = pseudo_divmod(G, h)
                if not rem:
                    return [h, cofactor]
            return [G]
        sums = 1
        for d, part in parts:
            for _ in range((len(part) - 1) // d):
                sums |= sums << d
        possible &= sums
        if possible == 1 | (1 << k):
            return [G]


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
    return fp_trim([c % p for c in poly_mul(a, b)])


def fp_divmod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q m + r over F_p and deg r < deg m, both reduced and
    trimmed, for any int list a; m has no trailing zeros."""
    dm, r = len(m) - 1, list(a)
    if len(r) <= dm:
        return [], fp_trim([c % p for c in r])
    inv = pow(m[-1], -1, p)
    q = [0] * (len(r) - dm)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dm] * inv % p
        if c:
            for i, mi in enumerate(m):
                r[k + i] -= c * mi
    return fp_trim(q), fp_trim([c % p for c in r[:dm]])


def fp_rem(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    return fp_divmod(a, m, p)[1]


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
            result = fp_rem(poly_mul(result, b), m, p)
        b = fp_rem(poly_mul(b, b), m, p)
        e >>= 1
    return result


def fp_eval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def fp_reduce(f: RatPoly, mod: int) -> list[int]:
    """The coefficients of f in Z/mod; the denominator of f must be a unit
    there."""
    inv = pow(f.den, -1, mod)
    return fp_trim([c * inv % mod for c in f.num])


def _fixed_part(m: Sequence[int], xq: Sequence[int], p: int) -> list[int]:
    """gcd(m, xq - x) over F_p for xq = x^(p^d) mod m: the product of the
    distinct monic irreducible factors of m whose degree divides d."""
    diff = list(xq) + [0] * (2 - len(xq))
    diff[1] = (diff[1] - 1) % p
    return fp_gcd(m, fp_trim(diff), p)


def _ddf(m: Sequence[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree split of a monic m, squarefree over F_p: the pairs
    (d, product of the monic irreducible factors of m of degree d), d
    increasing, for each degree that occurs.  This is the first step of
    Cantor and Zassenhaus (Math. Comp. 36, 1981); the factors themselves
    are never separated."""
    out: list[tuple[int, list[int]]] = []
    rem, xq, d = list(m), [0, 1], 0
    while len(rem) > 1:
        d += 1
        if 2 * d > len(rem) - 1:
            # whatever is left is a single irreducible factor
            out.append((len(rem) - 1, rem))
            break
        xq = fp_powmod(xq, p, rem, p)
        g = _fixed_part(rem, xq, p)
        if len(g) > 1:
            out.append((d, g))
            rem = fp_divmod(rem, g, p)[0]
            if len(rem) > 1:
                xq = fp_rem(xq, rem, p)
    return out


def cycle_type(f: RatPoly, p: int) -> tuple[int, ...]:
    """Factor degrees of f mod p (descending), by distinct-degree splitting.

    Requires f monic with p-integral coefficients and separable mod p.
    """
    m = fp_reduce(f, p)
    if len(m) - 1 != f.degree:
        raise ValueError("leading coefficient vanishes mod p")
    return tuple(sorted((d for d, g in _ddf(m, p) for _ in range((len(g) - 1) // d)), reverse=True))


def fp_roots(m: Sequence[int], p: int) -> list[int]:
    """The distinct roots of m in F_p, increasing: the roots of the monic
    g = gcd(m, x^p - x), found by a scan that divides out each root it meets
    and reads the last one off the linear cofactor."""
    g = _fixed_part(m, fp_powmod([0, 1], p, m, p), p)
    roots: list[int] = []
    r = 0
    while len(g) > 2:
        if fp_eval(g, r, p) == 0:
            roots.append(r)
            g = fp_divmod(g, [-r % p, 1], p)[0]
        r += 1
    if len(g) == 2:
        roots.append(-g[0] % p)
    return roots


def fp_is_squarefree(m: Sequence[int], p: int) -> bool:
    """gcd(m, m') = 1 over F_p."""
    return len(fp_gcd(m, fp_trim([i * c % p for i, c in enumerate(m)][1:]), p)) == 1


# ---------------------------------------------------------------------------
# Local places and square tests

@dataclass(frozen=True)
class LocalPlace:
    """A place of Q: the real place or a (verified) prime."""

    is_real: bool
    p: Optional[int] = None

    def __post_init__(self):
        if not self.is_real:
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return "real" if self.is_real else str(self.p)


REAL_PLACE = LocalPlace(True)


def prime_place(p: int) -> LocalPlace:
    return LocalPlace(False, p)


def valuation(n: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_unit(a: Fraction, p: int) -> tuple[int, Fraction]:
    """p-adic valuation and unit part of a nonzero rational."""
    vn, vd = valuation(a.numerator, p), valuation(a.denominator, p)
    return vn - vd, Fraction(a.numerator // p**vn, a.denominator // p**vd)


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


# The primes below this bound are one table, built on first use by one
# sieve: the walk over good primes, `is_prime` and `strip_square_content`
# read it, and Miller-Rabin serves only past it.
SMALL_PRIME_END = 10**6

# Miller-Rabin with the first 13 primes as bases is exact below psi_13 =
# MILLER_RABIN_END (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_END = 3317044064679887385961981


@functools.cache
def small_primes() -> array:
    """The primes below SMALL_PRIME_END, increasing, as an array('I'): 2,
    then the odd primes from a sieve of Eratosthenes over the odd numbers."""
    half = SMALL_PRIME_END // 2  # sieve[i] stands for 2 i + 1, and sieve[0] for 2
    sieve = bytearray([1]) * half
    for i in range(1, (math.isqrt(SMALL_PRIME_END) + 1) // 2):
        if sieve[i]:
            q = 2 * i + 1
            sieve[q * q // 2::q] = bytes(len(range(q * q // 2, half, q)))
    return array("I", itertools.compress(itertools.chain((2,), range(3, SMALL_PRIME_END, 2)), sieve))


def is_prime(n: int) -> bool:
    """Primality of an integer below MILLER_RABIN_END: a lookup in
    `small_primes` below its end, the strong probable-prime test to every
    base of `_MILLER_RABIN_BASES` past it; ValueError at or above
    MILLER_RABIN_END, where that test is not proved exact."""
    if n < SMALL_PRIME_END:
        i = bisect.bisect_right(small_primes(), n)
        return i > 0 and small_primes()[i - 1] == n
    if n >= MILLER_RABIN_END:
        raise ValueError(f"primality of {n} is not decided at or above {MILLER_RABIN_END}")
    # an even n fails at base 2, where s = 0 and 2^(n-1) mod n is even
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def good_primes(bad: BadSet, start: int, stop: Optional[int] = None) -> Iterator[int]:
    """Primes p >= start outside `bad`, increasing.  A bounded walk ends
    after examining the first prime >= stop."""
    table = small_primes()
    p = start - 1
    i = bisect.bisect_right(table, p)
    while stop is None or p < stop:
        if i < len(table):
            p, i = table[i], i + 1
        else:
            p += 1
            while not is_prime(p):
                p += 1
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
    """Outcome of a square test in Q[t]/(m): square or nonsquare."""

    status: str
    root: Optional[RatPoly] = None
    certificate: Optional[tuple[int, int]] = None  # (p, root of m mod p) with nonresidue value


def root_bound_bits(f: Sequence[int]) -> int:
    """e with 2^e >= |r| for every complex root r of the monic integer
    polynomial with coefficients f, low to high: Fujiwara's bound
    2 max |f_i|^(1/(n - i)), in bit lengths."""
    n = len(f) - 1
    return 1 + max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(f[:-1]))


def lift_roots(m: RatPoly, roots: Sequence[int], mod: int, pk: int) -> list[int]:
    """Hensel lifts of simple roots of m from mod `mod` to mod pk (both
    powers of one prime); m is reduced mod pk once for all of them.  The
    inverse of m'(r) is inverted once, mod `mod`, and then lifted alongside
    r by its own Newton step v -> v (2 - m'(r) v)."""
    mk = fp_reduce(m, pk)
    mdk = fp_trim([i * c % pk for i, c in enumerate(mk)][1:])
    out = []
    for cur in roots:
        q = mod
        inv = pow(fp_eval(mdk, cur, q), -1, q)
        while q < pk:
            q = min(q * q, pk)
            cur = (cur - fp_eval(mk, cur, q) * inv) % q
            inv = inv * (2 - fp_eval(mdk, cur, q) * inv) % q
        out.append(cur % pk)
    return out


def split_interpolations(
    m: RatPoly, p: int, roots: Sequence[int], cap: int, candidates
) -> Iterator[Optional[RatPoly]]:
    """Interpolations on the p-adic roots of m, at a prime p where m splits
    into the simple roots `roots` mod p.

    For bits = 64, 128, ... up to cap, the roots are lifted from the
    previous precision to p^k >= 2^bits, their `lagrange_basis` is built,
    and for each value vector ys in candidates(roots mod p^k, previous
    precision, p^k) the polynomial of degree < deg m taking the values ys
    at them is yielded as `interpolate_rational` reads it back (None where
    a coefficient has no reconstruction).  A polynomial over Q whose
    coefficients are n/d with |n|, d <= sqrt(p^k / 2) comes back exactly."""
    prev = p
    for bits in sorted({min(64 << j, cap) for j in range(cap.bit_length())}):
        pk = p ** -(-bits // (p.bit_length() - 1))
        roots = lift_roots(m, roots, prev, pk)
        basis = lagrange_basis(roots, pk)
        for ys in candidates(roots, prev, pk):
            yield interpolate_rational(basis, ys, pk)
        prev = pk


def unramified_prime(f: RatPoly) -> Optional[int]:
    """The least odd prime that divides neither lc(f), the denominator of f
    nor disc(f), for a nonzero f in Q[t], or None when disc(f) = 0.

    For an odd prime p that divides neither lc(f) nor the denominator, p does
    not divide disc(f) iff f mod p is squarefree, so the first 10 odd primes
    are tried mod p; the discriminant is computed only when each of them
    divides lc(f), the denominator or disc(f)."""
    lc, den = f.num[-1], f.den
    for p in itertools.islice(good_primes(BadSet((), 0), 3), 10):
        if lc % p and den % p and fp_is_squarefree(fp_reduce(f, p), p):
            return p
    disc = discriminant(f)
    return None if disc == 0 else next(good_primes(BadSet((disc.numerator, lc, den), 0), 3))


def integer_roots(f: RatPoly, p: Optional[int] = None) -> list[int]:
    """The integer roots of a monic f in Z[t], sorted; they are all of its
    rational roots.

    p-adic lifting (Loos, SIAM J. Comput. 12, 1983): at an odd prime p not
    dividing disc(f) every root of f is a simple root mod p, so each
    integer root is the symmetric residue of the Hensel lift of a root mod p
    to a p^k above twice Fujiwara's bound on the roots (`root_bound_bits`).
    A lift is kept only if it is a root of f exactly.  p is the least such
    prime (`unramified_prime`), or the one a caller that tested f for
    separability has found already.  A repeated root is a root of the
    squarefree part f // gcd(f, f'), which is then lifted instead."""
    if f.is_zero or f.num[-1] != 1 or f.den != 1:
        raise ValueError("monic integer polynomial required")
    if f.degree < 2:
        return [-f.num[0]] if f.degree == 1 else []
    if p is None:
        p = unramified_prime(f)
        if p is None:
            return integer_roots(f // f.gcd(f.derivative()))
    roots_p = fp_roots(fp_reduce(f, p), p)
    if not roots_p:
        return []
    bound = 1 << root_bound_bits(f.num)
    pk = p
    while pk <= 2 * bound:
        pk *= pk
    roots = []
    for x in lift_roots(f, roots_p, p, pk):
        if x > pk // 2:
            x -= pk
        if scaled_value(f.num, x) == 0:
            roots.append(x)
    return sorted(roots)


def _sqrt_q(d: RatPoly) -> Optional[RatPoly]:
    """The h in Q[t] with h^2 = d and a positive leading coefficient, or
    None when the nonzero d is not a square in Q[t].  d must have even
    degree 2k and a leading coefficient that is a square in Q, whose
    positive root is h_k; each lower h_j, from the top down, is then fixed
    by the coefficient of t^(k+j) in h^2 = d, which is 2 h_k h_j plus the
    products h_a h_(k+j-a), j < a < k, of coefficients already found.
    h^2 = d is checked exactly."""
    if d.degree % 2 or not is_square_q(d.lc):
        return None
    k = d.degree // 2
    top = Fraction(math.isqrt(d.lc.numerator), math.isqrt(d.lc.denominator))
    h = [Fraction(0)] * k + [top]
    for j in range(k - 1, -1, -1):
        h[j] = (d[k + j] - sum(h[a] * h[k + j - a] for a in range(j + 1, k))) / (2 * top)
    root = RatPoly.of(h)
    return root if root * root == d else None


def sqrt_in_etale(
    d: RatPoly, m: RatPoly, disc_m: Optional[Fraction] = None, norm: Optional[Fraction] = None
) -> SqrtEtaleResult:
    """Decide whether d is a square in the etale algebra Q[t]/(m).

    m must be a monic squarefree modulus and d a unit mod m; a caller that
    has disc(m) or the norm Res(m, d) passes it, and it is not computed
    again.  When d, reduced mod m, is a square in Q[t] (`_sqrt_q`), its
    root there is returned as "square" and no prime is walked; otherwise
    the good primes (odd, dividing no denominator of m or d and not
    disc(m)) are walked in order.  At a prime p where some d(r), m(r) = 0 mod p, is a
    nonresidue mod p the answer is "nonsquare" with the certificate (p, r):
    the Hensel lift of r maps the algebra to Z_p, where d has no square
    root.  The walk ends at the first good prime where m splits completely
    and d is a unit at every root.  There each root y of d is, in the
    embedding at the lifted roots, one of the 2^(n-1) sign patterns of the
    lifted square roots of the d(r) (up to -y), and its coefficients are
    bounded by `_sqrt_cap`; each pattern is interpolated and reconstructed
    up to that precision (`split_interpolations`).  A reconstruction y with
    y^2 = d mod m, checked exactly, is returned as "square"; when none
    passes, d is proved a nonsquare (certificate None, as for a linear m).
    """
    if m.is_zero or m.lc != 1:
        raise ValueError("modulus must be monic")
    d = d % m
    if d.is_zero:
        raise ValueError("d is zero modulo m")

    if m.degree > 1:
        if disc_m is None:
            disc_m = discriminant(m)
        if disc_m == 0:
            raise ValueError("modulus must be squarefree")
        if (resultant(m, d) if norm is None else norm) == 0:
            raise ValueError("d is not a unit modulo m")
    root = _sqrt_q(d)
    if root is not None:
        return SqrtEtaleResult("square", root)
    if m.degree == 1:  # d is the rational d(-m_0), and not a square
        return SqrtEtaleResult("nonsquare", certificate=None)

    bad = BadSet((disc_m.numerator, disc_m.denominator, m.den, d.den), 0)
    n = m.degree
    for p in good_primes(bad, 3):
        roots = fp_roots(fp_reduce(m, p), p)
        if not roots:
            continue
        dp = fp_reduce(d, p)
        units = [fp_eval(dp, r, p) for r in roots]
        for r, u in zip(roots, units):
            if u and legendre(u, p) == -1:
                return SqrtEtaleResult("nonsquare", certificate=(p, r))
        if len(roots) < n or not all(units):
            continue
        sqrts = [sqrt_mod_p(u, p) for u in units]

        def sign_patterns(roots_k, prev, pk):
            # the square roots of the d(r) mod pk, lifted from mod prev
            dk = fp_reduce(d, pk)
            for i, (r, s) in enumerate(zip(roots_k, sqrts)):
                sqrts[i] = lift_roots(RatPoly.of([-fp_eval(dk, r, pk), 0, 1]), [s], prev, pk)[0]
            for signs in range(1 << (n - 1)):
                yield [s if i == 0 or not (signs >> (i - 1)) & 1 else -s % pk for i, s in enumerate(sqrts)]

        for y in split_interpolations(m, p, roots, _sqrt_cap(d, m, disc_m), sign_patterns):
            if y is not None and ((y * y - d) % m).is_zero:
                return SqrtEtaleResult("square", root=y)
        return SqrtEtaleResult("nonsquare", certificate=None)


def _sqrt_cap(d: RatPoly, m: RatPoly, disc_m: Fraction) -> int:
    """Bits b with 2^b >= 2 max(|num|, den)^2 over the coefficients of every
    y in Q[t]/(m) with y^2 = d, for d reduced mod the monic m of degree n.

    With D the denominator lcm of m, M(x) = D^n m(x/D) is monic in Z[x] and
    its roots rho satisfy |rho| <= 2^e (`root_bound_bits`).  With c =
    den(d) D^deg d, E(x) = c d(x/D) is in Z[x], and w = c y(x/D) takes at
    each rho an algebraic integer with |w(rho)|^2 = c |E(rho)| <= W2 = c
    sum |E_j| 2^(e j).  By Cramer's rule on the Vandermonde system of the
    rho, w_j Delta, Delta = disc M = D^(n(n-1)) disc m, is an integer of
    absolute value at most H sqrt|Delta|, with H^2 <= R2^n by Hadamard's
    bound on rows of squared norm at most R2 = sum_{k<n} 4^(e k) + W2.  So
    y_j = w_j D^j / c has |num|^2 <= R2^n |Delta| D^(2(n-1)) and den <=
    c |Delta|."""
    n = m.degree
    M, D = _monic_integer_form(m)
    e = root_bound_bits(M.num)
    c = d.den * D**d.degree
    # E_j = c d_j / D^j = num_j D^(deg d - j)
    w2 = c * sum(abs(dj * D ** (d.degree - j)) << (e * j) for j, dj in enumerate(d.num))
    r2 = sum(1 << (2 * e * k) for k in range(n)) + w2
    delta = abs(int(D ** (n * (n - 1)) * disc_m))
    return (2 * max(r2**n * delta * D ** (2 * n - 2), (c * delta) ** 2)).bit_length()


def lagrange_basis(xs: Sequence[int], mod: int) -> list[list[int]]:
    """The Lagrange basis of the points xs mod `mod`: L_j, coefficients low
    to high, with L_j(x_i) = 1 if i = j else 0.  The differences of the xs
    must be units; each product of them is inverted once, so every
    interpolation on these points is a combination sum_j y_j L_j."""
    basis = []
    for i, xi in enumerate(xs):
        num, denom = [1], 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = fp_mul(num, [-xj % mod, 1], mod)
            denom = denom * (xi - xj) % mod
        scale = pow(denom, -1, mod)
        basis.append([a * scale % mod for a in num])
    return basis


def interpolate_rational(basis: Sequence[Sequence[int]], ys: Sequence[int], pk: int) -> Optional[RatPoly]:
    """The polynomial over Q of degree < len(ys) that takes the values ys at
    the points of a `lagrange_basis` mod pk, each coefficient read back by
    rational reconstruction, or None when one has no reconstruction.  The
    caller checks the result exactly."""
    coeffs = []
    for k in range(len(basis)):
        if (rec := rational_reconstruct(sum(y * b[k] for y, b in zip(ys, basis)) % pk, pk)) is None:
            return None
        coeffs.append(rec)
    return RatPoly.of(coeffs)


# strip_square_content looks for the table primes dividing a content this
# many at a time, by one gcd with their product.
_CHUNK = 1024


@functools.cache
def _chunk_product(k: int) -> int:
    """The product of the k-th chunk of `small_primes`, built on first use."""
    return math.prod(small_primes()[k * _CHUNK:(k + 1) * _CHUNK])


def strip_square_content(d: RatPoly) -> RatPoly:
    """Multiply d by the square of a rational so heights shrink.

    Clears denominators, then removes from the integer content the even
    part of every prime below SMALL_PRIME_END, and a cofactor left over that
    is a square.  The primes dividing the content are found one chunk of
    `small_primes` at a time, by one gcd with the chunk's product (the batch
    trial division of Bernstein, "How to find smooth parts of integers",
    2004).  The walk ends early once the square of the chunk's first prime
    exceeds the cofactor, which is then 1 or a prime and so has nothing
    more to remove.  The square class of d in Q[t]/(m) is unchanged.
    """
    # e = den^2 d has integer coefficients and the square class of d (content 0 when d = 0)
    e = [c * d.den for c in d.num]
    table, sq, rem = small_primes(), 1, math.gcd(*e)
    for k in range(0, len(table), _CHUNK):
        if table[k] ** 2 > rem:
            break
        h = math.gcd(rem, _chunk_product(k // _CHUNK))
        for q in table[k:k + _CHUNK]:
            if h == 1:
                break
            if h % q == 0:
                h //= q
                exp = valuation(rem, q)
                rem //= q**exp
                sq *= q ** (exp - exp % 2)
    if math.isqrt(rem) ** 2 == rem:
        sq *= rem
    return RatPoly.over(e, sq)
