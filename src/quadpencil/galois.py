"""Galois profiles of quintics and signed Frobenius classes.

The label of a monic separable quintic among the five transitive
subgroups of S5 is decided by (i) squareness of the discriminant,
(ii) existence of a rational root of the degree-6 resolvent whose
stabilizer is the metacyclic group of order 20, and (iii) for the
C5/D10 split, a certificate found on a walk over the good primes.  The
resolvent is exact integer arithmetic: for
the depressed quintic its coefficients are weighted-homogeneous integer
polynomials in the quintic's coefficients (`_F20_TABLE`, derived and proved
by scripts/f20_table.py; cf. Dummit, "Solving solvable quintics", Math.
Comp. 57 (1991)), and an exact shift maps them back to P.  The tests on
the resolvent are integer arithmetic too: a monic integer polynomial is
separable when it is squarefree mod a small prime, or else when its
discriminant (an integer Sylvester determinant) is nonzero
(`exact.unramified_prime`), and the rational roots of the sextic are its
integer roots, found by a p-adic lift from that same prime without
factoring it (`exact.integer_roots`).  When the resolvent has a repeated
root the Tschirnhausen transform r -> r^2 + c*r is the characteristic
polynomial of that multiplication on Q[y]/(P).

A prime is good for P when it is odd and divides neither disc(P) nor a
denominator of P; this is a division test on those integers (a `BadSet`
with no margin), nothing is factored.  Every label is proved.  REDUCIBLE,
F20, A5 and S5 are proved by the discriminant and the resolvent.  D10 is
proved by a good prime where P has cycle type (2,2,1), which no element of
C5 has.  C5 is proved by a nontrivial automorphism t -> g(t) of Q[t]/(P),
checked exactly as P(g) = 0 mod P; g is found at a good prime where P
splits completely, by interpolating g(r_i) = r_sigma(i) on the p-adic
roots for the five-cycles sigma and reconstructing its rational
coefficients (Stauduhar, "The determination of Galois groups", Math.
Comp. 27 (1973)).  One walk over the good primes looks for both.

The signed Frobenius class of (P, delta) at a good prime is a cycle type
plus one quadratic-residue bit per local factor, which determines a
conjugacy class of (Z/2)^5 x| S5.  It is read from the distinct-degree
split of each factor of P mod p (`exact._ddf`) by Euler's criterion on
each part, so P is never factored mod p and no discriminant or resultant
is computed: a prime is ramified exactly when P mod p is not squarefree or
some delta representative vanishes on a local factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Optional, Sequence, Union

from .exact import (
    BadSet,
    RatPoly,
    _ddf,
    _monic_integer_form,
    cycle_type,
    fp_gcd,
    fp_is_squarefree,
    fp_powmod,
    fp_reduce,
    fp_roots,
    fp_trim,
    good_primes,
    integer_roots,
    is_square_q,
    root_bound_bits,
    split_interpolations,
    unramified_prime,
)
from .pencil import DeltaInvariant, char_poly

LABELS = ("C5", "D10", "F20", "A5", "S5", "REDUCIBLE")

@dataclass(frozen=True)
class GaloisProfile:
    """Classification of a quintic with the certificate of its label."""

    label: str
    disc_is_square: bool
    resolvent_root: Optional[Fraction]
    # D10: a good prime where P has cycle type (2,2,1); C5: g with t -> g(t)
    # a nontrivial automorphism of Q[t]/(P); None for the other labels
    certificate: Union[int, RatPoly, None] = None
    tschirnhausen_steps: int = 0

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label}")
        if self.label in ("C5", "D10", "A5") and not self.disc_is_square:
            raise ValueError("square discriminant expected for " + self.label)
        if self.label in ("F20", "S5") and self.disc_is_square:
            raise ValueError("nonsquare discriminant expected for " + self.label)
        if self.label in ("C5", "D10", "F20") and self.resolvent_root is None:
            raise ValueError("resolvent root expected for " + self.label)
        if self.label in ("A5", "S5") and self.resolvent_root is not None:
            raise ValueError("no resolvent root expected for " + self.label)
        if (self.certificate is None) != (self.label not in ("C5", "D10")):
            raise ValueError("a certificate is expected for C5 and D10 only")


# Coefficients of the F20 resolvent of a depressed quintic
# z^5 + b2 z^3 + b3 z^2 + b4 z + b5: row k lists (coefficient, e2, e3, e4, e5)
# of c_k = sum coefficient * b2^e2 b3^e3 b4^e4 b5^e5, the coefficient of
# y^(6-k) in prod_j (y - theta_j) over the six conjugates theta_j of the
# order-20 invariant.  Derived and proved by scripts/f20_table.py.
_F20_TABLE = (
    (  # c1: weight 4, 1 of 2 monomials
        (8, 0, 0, 1, 0),
    ),
    (  # c2: weight 8, 4 of 5 monomials
        (-6, 2, 0, 1, 0),
        (2, 1, 2, 0, 0),
        (-50, 0, 1, 0, 1),
        (40, 0, 0, 2, 0),
    ),
    (  # c3: weight 12, 7 of 10 monomials
        (-15, 2, 1, 0, 1),
        (-40, 2, 0, 2, 0),
        (21, 1, 2, 1, 0),
        (125, 1, 0, 0, 2),
        (-2, 0, 4, 0, 0),
        (-400, 0, 1, 1, 1),
        (160, 0, 0, 3, 0),
    ),
    (  # c4: weight 16, 12 of 17 monomials
        (9, 4, 0, 2, 0),
        (-6, 3, 2, 1, 0),
        (1, 2, 4, 0, 0),
        (90, 2, 1, 1, 1),
        (-136, 2, 0, 3, 0),
        (-50, 1, 3, 0, 1),
        (76, 1, 2, 2, 0),
        (500, 1, 0, 1, 2),
        (-8, 0, 4, 1, 0),
        (625, 0, 2, 0, 2),
        (-1400, 0, 1, 2, 1),
        (400, 0, 0, 4, 0),
    ),
    (  # c5: weight 20, 21 of 28 monomials
        (-108, 5, 0, 0, 2),
        (117, 4, 1, 1, 1),
        (32, 4, 0, 3, 0),
        (-31, 3, 3, 0, 1),
        (-51, 3, 2, 2, 0),
        (525, 3, 0, 1, 2),
        (19, 2, 4, 1, 0),
        (-325, 2, 2, 0, 2),
        (260, 2, 1, 2, 1),
        (-256, 2, 0, 4, 0),
        (-2, 1, 6, 0, 0),
        (105, 1, 3, 1, 1),
        (76, 1, 2, 3, 0),
        (625, 1, 1, 0, 3),
        (-500, 1, 0, 2, 2),
        (-58, 0, 5, 0, 1),
        (3, 0, 4, 2, 0),
        (2750, 0, 2, 1, 2),
        (-2400, 0, 1, 3, 1),
        (512, 0, 0, 5, 0),
        (-3125, 0, 0, 0, 4),
    ),
    (  # c6: weight 24, 31 of 42 monomials
        (-27, 7, 0, 0, 2),
        (18, 6, 1, 1, 1),
        (-4, 6, 0, 3, 0),
        (-4, 5, 3, 0, 1),
        (1, 5, 2, 2, 0),
        (-99, 5, 0, 1, 2),
        (-150, 4, 2, 0, 2),
        (196, 4, 1, 2, 1),
        (48, 4, 0, 4, 0),
        (12, 3, 3, 1, 1),
        (-128, 3, 2, 3, 0),
        (1200, 3, 0, 2, 2),
        (-12, 2, 5, 0, 1),
        (65, 2, 4, 2, 0),
        (-725, 2, 2, 1, 2),
        (-160, 2, 1, 3, 1),
        (-192, 2, 0, 5, 0),
        (3125, 2, 0, 0, 4),
        (-13, 1, 6, 1, 0),
        (-125, 1, 4, 0, 2),
        (590, 1, 3, 2, 1),
        (-16, 1, 2, 4, 0),
        (-1250, 1, 1, 1, 3),
        (-2000, 1, 0, 3, 2),
        (1, 0, 8, 0, 0),
        (-124, 0, 5, 1, 1),
        (17, 0, 4, 3, 0),
        (3250, 0, 2, 2, 2),
        (-1600, 0, 1, 4, 1),
        (256, 0, 0, 6, 0),
        (-9375, 0, 0, 1, 4),
    ),
)


def resolvent_sextic(P: RatPoly) -> list[int]:
    """Exact integer coefficients, high to low and monic, of the degree-6
    resolvent prod_j (y - theta_j) of the monic integer quintic of P.

    With x^5 + a1 x^4 + ... + a5 and z = 5x + a1 the quintic becomes the
    depressed integer quintic with coefficients b; its resolvent comes from
    `_F20_TABLE`, and each conjugate shifts as theta_z = 625 theta_x + corr.
    """
    a = list(reversed(_monic_integer_form(P)[0].num))  # 1, a1, ..., a5
    a1 = a[1]
    # 5^5 P((z - a1)/5) = sum_i a_i 5^i (z - a1)^(5-i), high to low in z
    b = [0] * 6
    for i, ai in enumerate(a):
        n = 5 - i
        for j in range(n + 1):
            b[i + j] += ai * 5**i * math.comb(n, j) * (-a1) ** j
    b2, b3, b4, b5 = b[2:]
    depressed = [1] + [
        sum(c * b2**e2 * b3**e3 * b4**e4 * b5**e5 for c, e2, e3, e4, e5 in row)
        for row in _F20_TABLE
    ]
    # theta(x + c) - theta(x) for the roots 5x_i (elementary symmetric E1..E3)
    # shifted by c = a1
    E1, E2, E3 = -5 * a1, 25 * a[2], -125 * a[3]
    corr = (10 * a1**4 + 8 * a1**3 * E1 + 2 * a1**2 * E1**2 + a1**2 * E2
            + a1 * E1 * E2 - a1 * E3)
    # 625^6 R_x(y) = R_z(625 y + corr), by Horner in y
    shifted = [depressed[0]]
    for c in depressed[1:]:
        shifted = [625 * u + corr * v for u, v in zip(shifted + [0], [0] + shifted)]
        shifted[-1] += c
    out = []
    for c in shifted:
        q, r = divmod(c, 625**6)
        if r:
            raise ArithmeticError("resolvent coefficient not divisible by 625^6")
        out.append(q)
    return out


def _tschirnhausen(P: RatPoly, c: int) -> Optional[RatPoly]:
    """Monic quintic whose roots are r^2 + c*r over the roots r of P: the
    characteristic polynomial of multiplication by y^2 + c*y on the power
    basis of Q[y]/(P); None when it is not separable."""
    y = RatPoly.x()
    col = RatPoly.of([0, c, 1]) % P
    cols = []
    for _ in range(P.degree):
        cols.append(col)
        col = (col * y) % P
    q = char_poly(tuple(tuple(f[i] for f in cols) for i in range(P.degree)))
    return q if unramified_prime(q) is not None else None


def resolvent_has_rational_root(P: RatPoly) -> tuple[Optional[Fraction], int]:
    """(a rational root of a separable metacyclic resolvent or None, #transforms)."""
    work = _monic_integer_form(P)[0]
    steps = 0
    while True:
        sext = RatPoly.of(resolvent_sextic(work)[::-1])
        p = unramified_prime(sext)  # found once: it also lifts the roots
        if p is not None:
            roots = integer_roots(sext, p)
            return (Fraction(roots[0]) if roots else None), steps
        nxt = None
        while nxt is None:
            steps += 1
            if steps > 12:
                raise ArithmeticError("no separable resolvent found after 12 transforms")
            nxt = _tschirnhausen(work, steps)
        work = nxt


def galois_group_quintic(inv: DeltaInvariant) -> GaloisProfile:
    """Classify Gal(P) for the monic separable quintic P of the record,
    from its irreducible factors over Q and its disc(P).

    Raises ArithmeticError when the resolvent needs more than 12
    Tschirnhausen transforms.
    """
    P = inv.P
    if P.degree != 5 or P.lc != 1:
        raise ValueError("monic quintic required")
    disc = inv.disc
    if disc == 0:
        raise ValueError("quintic is not separable")
    disc_sq = is_square_q(disc)

    if len(inv.factors) > 1:  # disc(P) != 0, so no factor repeats
        return GaloisProfile("REDUCIBLE", disc_sq, None)

    root, steps = resolvent_has_rational_root(P)
    if root is None:
        return GaloisProfile("A5" if disc_sq else "S5", disc_sq, None, tschirnhausen_steps=steps)
    if not disc_sq:
        return GaloisProfile("F20", disc_sq, root, tschirnhausen_steps=steps)
    cert = _c5_or_d10_certificate(P, disc)
    label = "D10" if isinstance(cert, int) else "C5"
    return GaloisProfile(label, disc_sq, root, cert, tschirnhausen_steps=steps)


def _c5_or_d10_certificate(P: RatPoly, disc: Fraction) -> Union[int, RatPoly]:
    """For an irreducible P with group C5 or D10: g with P(g) = 0 mod P and
    g != t, looked for once, at the first good prime where P splits
    completely, or else the first good prime where P has cycle type (2,2,1),
    which exists for D10 by Chebotarev's density theorem."""
    searched = False
    # 2 and the primes dividing disc(P) or a denominator of P are bad
    for p in good_primes(BadSet((disc.numerator, disc.denominator, P.den), 0), 3):
        ct = cycle_type(P, p)
        if ct == (2, 2, 1):
            return p
        if ct == (1, 1, 1, 1, 1) and not searched:
            searched, g = True, _automorphism(P, disc, p)
            if g is not None:
                return g


def _automorphism(P: RatPoly, disc: Fraction, p: int) -> Optional[RatPoly]:
    """g != t with P(g) = 0 mod P, found at a good prime p where P splits
    completely, or None, which proves that Gal(P) is not C5.

    An automorphism permutes the p-adic roots r_0 < ... < r_4 (increasing
    mod p) of P by a five-cycle, and each of the six cyclic groups of order
    5 holds one cycle sending r_0 to r_1, so six interpolations of g(r_i) =
    r_sigma(i) cover every automorphism when Gal(P) = C5; they are run by
    `exact.split_interpolations`, which lifts the roots from one precision
    to the next and stops at a p^k at which each one is sure to
    reconstruct.  With D the denominator lcm of P, g(t) = h(D t) / D for an
    automorphism h of Q[t]/(Q), Q = D^5 P(t/D) a monic integer polynomial.
    Let 2^e >= |r| for every complex root r of Q (`root_bound_bits`).  By
    Cramer's rule on the Vandermonde system of the roots of Q, h_j = m_j / s
    with m_j an integer, |m_j| <= 5^(5/2) 2^(11e) (Hadamard's bound), and s
    = sqrt(disc Q) a product of ten root differences, so s <= 2^(10e + 10).
    Every coefficient of g is then n/d with |n|, d <= 2^(11e + 10) D^3, and
    d divides s D = D^11 sqrt(disc P), which rules out most false
    reconstructions before the exact check.
    """
    D = P.den
    sD = D**11 * math.isqrt(disc.numerator) // math.isqrt(disc.denominator)
    e = root_bound_bits(_monic_integer_form(P)[0].num)
    cap = 22 * e + 6 * D.bit_length() + 22  # |n|, d <= sqrt(p^k / 2)

    def five_cycles(roots, prev, pk):
        for rest in itertools.permutations(range(2, 5)):
            cyc = (0, 1, *rest)  # sigma: roots[cyc[i]] -> roots[cyc[i + 1 mod 5]]
            image = [0] * 5
            for i, j in enumerate(cyc):
                image[j] = roots[cyc[(i + 1) % 5]]
            yield image

    for g in split_interpolations(P, p, fp_roots(fp_reduce(P, p), p), cap, five_cycles):
        if g is not None and g != RatPoly.x() and sD % g.den == 0:
            acc = RatPoly(())
            for c in reversed(P.num):  # den(P) P(g) mod P by Horner, zero iff P(g) is
                acc = (acc * g + RatPoly.const(c)) % P
            if acc.is_zero:
                return g
    return None


# ---------------------------------------------------------------------------
# Signed Frobenius data

class RamifiedPrimeError(ValueError):
    pass


def frobenius_class(
    P: RatPoly,
    delta_factors: Sequence[tuple[RatPoly, RatPoly]],
    p: int,
    cycle_types: Optional[Collection[tuple[int, ...]]] = None,
) -> Optional[tuple[tuple[int, int], ...]]:
    """The signed Frobenius class of (P, delta) at p: the multiset of
    (degree, bit) over the irreducible factors h of P mod p, in decreasing
    order, with bit 0 when the delta representative of the factor of P that
    h divides is a square in F_p[t]/(h) and 1 when it is not.

    delta_factors pairs each irreducible factor P_i of P with its delta
    representative d_i.  For each part g of P_i mod p whose factors all
    have degree d, s = d_i^((p^d - 1)/2) mod g is 1 or -1 modulo each of
    them (Euler's criterion in F_{p^d}), so deg gcd(s - 1, g)/d of them have
    bit 0 and deg gcd(s + 1, g)/d bit 1.  Raises RamifiedPrimeError when
    p = 2, p divides a denominator of P or of a d_i, P mod p loses degree
    or is not squarefree, or some d_i vanishes mod a factor of P_i, which
    leaves the two counts short of deg g/d.

    With `cycle_types`, the class is None, and no Euler power is taken,
    unless the cycle type of P mod p (the degrees of the same split) is one
    of them.
    """
    if p == 2:
        raise RamifiedPrimeError("p = 2 rejected")
    if P.den % p == 0:
        raise RamifiedPrimeError(f"{p} divides a denominator of P")
    Pp = fp_reduce(P, p)
    if len(Pp) - 1 != P.degree or not fp_is_squarefree(Pp, p):
        raise RamifiedPrimeError(f"{p} divides disc(P)")
    splits = []
    for Pi, di in delta_factors:
        if di.is_zero:
            raise ValueError("zero delta representative")
        if di.den % p == 0:
            raise RamifiedPrimeError(f"delta ramifies at {p}")
        splits.append((fp_reduce(di, p), _ddf(fp_reduce(Pi, p), p)))
    if cycle_types is not None:
        degrees = [d for _, split in splits for d, g in split for _ in range((len(g) - 1) // d)]
        if tuple(sorted(degrees, reverse=True)) not in cycle_types:
            return None
    datum = []
    for dp, split in splits:
        for d, g in split:
            s = fp_powmod(dp, (p**d - 1) // 2, g, p) or [0]
            counts = []
            for c in (-1, 1):
                sc = [(s[0] + c) % p, *s[1:]]
                counts.append((len(fp_gcd(g, fp_trim(sc), p)) - 1) // d)
            if sum(counts) * d != len(g) - 1:
                raise RamifiedPrimeError(f"delta ramifies at {p}")
            datum += [(d, 0)] * counts[0] + [(d, 1)] * counts[1]
    return tuple(sorted(datum, reverse=True))
