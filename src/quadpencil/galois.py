"""Galois profiles of quintics and signed Frobenius classes.

The label of a monic separable quintic among the five transitive
subgroups of S5 is decided by (i) squareness of the discriminant,
(ii) existence of a rational root of the degree-6 resolvent whose
stabilizer is the metacyclic group of order 20, and (iii) for the
C5/D10 split, a certificate search for a double-transposition cycle
type among sampled primes.  The resolvent is exact integer arithmetic: for
the depressed quintic its coefficients are weighted-homogeneous integer
polynomials in the quintic's coefficients (`_F20_TABLE`, derived and proved
by scripts/f20_table.py; cf. Dummit, "Solving solvable quintics", Math.
Comp. 57 (1991)), and an exact shift maps them back to P.  The tests on
the resolvent are integer arithmetic too: a monic integer polynomial is
separable when it is squarefree mod a small prime, or else when its
discriminant (an integer Sylvester determinant) is nonzero
(`exact.unramified_prime`), and the rational roots of the sextic are its
integer roots, found by a p-adic lift (`exact.integer_roots`) without
factoring it.  When the resolvent has a repeated root the Tschirnhausen
transform r -> r^2 + c*r is the characteristic polynomial of that
multiplication on Q[y]/(P).

A prime is good for P when it is odd and divides neither disc(P) nor a
denominator of P; this is a division test on those integers (a `BadSet`
with no margin), nothing is factored.  `galois_group_quintic` walks the
good primes upward from 3 once (`exact.good_primes`): the first 10 are the
evidence primes the report prints, and only the C5 hunt continues the same
walk, up to its bound.

Frobenius data at good primes is a cycle type plus one quadratic-residue
bit per local factor, which determines a conjugacy class of (Z/2)^5 x| S5.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    BadSet,
    RatPoly,
    cycle_type,
    discriminant,
    factor_fp,
    fp_powmod,
    fp_reduce,
    fp_rem,
    good_primes,
    integer_roots,
    is_square_q,
    resultant,
    unramified_prime,
    val_unit,
)
from .groupmod import Perm
from .pencil import char_poly

LABELS = ("C5", "D10", "F20", "A5", "S5", "REDUCIBLE")

# Cycle types realized by each transitive subgroup of S5.
CLASS_SETS = {
    "C5": {(1, 1, 1, 1, 1), (5,)},
    "D10": {(1, 1, 1, 1, 1), (5,), (2, 2, 1)},
    "F20": {(1, 1, 1, 1, 1), (5,), (2, 2, 1), (4, 1)},
    "A5": {(1, 1, 1, 1, 1), (5,), (2, 2, 1), (3, 1, 1)},
    "S5": {(1, 1, 1, 1, 1), (5,), (2, 2, 1), (3, 1, 1), (2, 1, 1, 1), (3, 2), (4, 1)},
}


@dataclass(frozen=True)
class GaloisProfile:
    """Classification of a quintic with its supporting evidence."""

    label: str
    disc_is_square: bool
    resolvent_root: Optional[Fraction]
    evidence: tuple[tuple[int, tuple[int, ...]], ...]
    c5_bound: Optional[int] = None  # set when C5 was concluded by certificate absence
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

    @property
    def probabilistic(self) -> bool:
        return self.c5_bound is not None


def _coset_theta_patterns() -> list[Perm]:
    """Six permutations giving the distinct conjugates of the order-20 invariant."""
    seen: dict[frozenset, Perm] = {}
    for perm in itertools.permutations(range(5)):
        mons = []
        for i in range(5):
            mons.append(tuple(sorted((perm[i], perm[i], perm[(i + 1) % 5], perm[(i + 4) % 5]))))
            mons.append(tuple(sorted((perm[i], perm[i], perm[(i + 2) % 5], perm[(i + 3) % 5]))))
        sig = frozenset(mons)
        if sig not in seen:
            seen[sig] = perm
    assert len(seen) == 6
    return list(seen.values())


_THETA_REPS = _coset_theta_patterns()


def _theta_value(roots, perm: Perm):
    x = [roots[perm[i]] for i in range(5)]
    acc = 0
    for i in range(5):
        acc += x[i] ** 2 * (x[(i + 1) % 5] * x[(i + 4) % 5] + x[(i + 2) % 5] * x[(i + 3) % 5])
    return acc


def _integer_quintic(P: RatPoly) -> list[int]:
    """Monic integer quintic with the same splitting field: x -> x/lam scaling."""
    lam = P.denominator_lcm()
    scaled = RatPoly.of([c * Fraction(lam) ** (5 - i) for i, c in enumerate(P.coeffs)])
    assert scaled.lc == 1
    return [int(c) for c in scaled.coeffs]


# Coefficients of the F20 resolvent of a depressed quintic
# z^5 + b2 z^3 + b3 z^2 + b4 z + b5: row k lists (coefficient, e2, e3, e4, e5)
# of c_k = sum coefficient * b2^e2 b3^e3 b4^e4 b5^e5, the coefficient of
# y^(6-k) in prod_j (y - theta_j).  Derived and proved by scripts/f20_table.py.
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
    a = _integer_quintic(P)[::-1]  # 1, a1, ..., a5
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


def _is_separable(f: RatPoly) -> bool:
    """disc(f) != 0, for a monic f in Z[t]."""
    return unramified_prime(f) is not None


def _rational_roots(f: RatPoly) -> list[Fraction]:
    """The rational roots of a monic integer polynomial, sorted."""
    return [Fraction(r) for r in integer_roots(f)]


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
    return q if _is_separable(q) else None


def resolvent_has_rational_root(P: RatPoly) -> tuple[Optional[Fraction], int]:
    """(a rational root of a separable metacyclic resolvent or None, #transforms)."""
    work = RatPoly.of(_integer_quintic(P))
    steps = 0
    while True:
        sext = RatPoly.of(resolvent_sextic(work)[::-1])
        if _is_separable(sext):
            roots = _rational_roots(sext)
            return (roots[0] if roots else None), steps
        steps += 1
        if steps > 12:
            raise ArithmeticError("no separable resolvent found after 12 transforms")
        nxt = _tschirnhausen(work, steps)
        while nxt is None:
            steps += 1
            if steps > 12:
                raise ArithmeticError("no usable transformation found")
            nxt = _tschirnhausen(work, steps)
        work = nxt


def _bad_primes(P: RatPoly, disc: Fraction) -> BadSet:
    """2 and the primes dividing disc(P) or a denominator of P."""
    return BadSet((disc.numerator, disc.denominator, P.denominator_lcm()), 0)


# Good primes whose cycle types the profile carries as evidence.
EVIDENCE_PRIMES = 10


def galois_group_quintic(
    P: RatPoly, factors: Sequence[RatPoly], c5_bound: int = 10_000
) -> GaloisProfile:
    """Classify Gal(P) for a monic separable quintic over Q, given the
    irreducible factors of P over Q (P is not factored again).

    One walk over the good primes, bounded like `good_primes(bad, 3,
    c5_bound)`, serves both uses of Frobenius: its first EVIDENCE_PRIMES
    cycle types are the evidence, and only the C5/D10 split goes on along
    it, looking for a (2,2,1) cycle type.  A D10 answer is certified, a C5
    answer records the bound.
    """
    if P.degree != 5 or P.lc != 1:
        raise ValueError("monic quintic required")
    disc = discriminant(P)
    if disc == 0:
        raise ValueError("quintic is not separable")
    disc_sq = is_square_q(disc)

    if len(factors) > 1:  # disc(P) != 0, so no factor repeats
        return GaloisProfile("REDUCIBLE", disc_sq, None, ())

    walk = good_primes(_bad_primes(P, disc), 3, c5_bound)
    evidence = tuple((p, cycle_type(P, p)) for p in itertools.islice(walk, EVIDENCE_PRIMES))
    root, steps = resolvent_has_rational_root(P)

    if root is None:
        label = "A5" if disc_sq else "S5"
        return GaloisProfile(label, disc_sq, None, evidence, tschirnhausen_steps=steps)
    if not disc_sq:
        return GaloisProfile("F20", disc_sq, root, evidence, tschirnhausen_steps=steps)

    # C5 vs D10: a double transposition in the evidence or further along the walk
    if any(ct == (2, 2, 1) for _, ct in evidence) or any(
        cycle_type(P, p) == (2, 2, 1) for p in walk
    ):
        return GaloisProfile("D10", disc_sq, root, evidence, tschirnhausen_steps=steps)
    return GaloisProfile("C5", disc_sq, root, evidence, c5_bound=c5_bound, tschirnhausen_steps=steps)


# ---------------------------------------------------------------------------
# Signed Frobenius data

class RamifiedPrimeError(ValueError):
    pass


@dataclass(frozen=True)
class SignedFrobenius:
    """Frobenius class datum at a good odd prime.

    Local factors are monic coefficient tuples over F_p (low to high), in
    the canonical order (degree, coefficients); bits[j] is the
    quadratic-residue bit of the relevant delta representative evaluated at
    a root of the j-th local factor in F_{p^deg}.
    """

    p: int
    local_factors: tuple[tuple[int, ...], ...]
    bits: tuple[int, ...]
    global_index: tuple[int, ...]  # which (P_i, d_i) pair each local factor reduces

    @property
    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(f) - 1 for f in self.local_factors), reverse=True))

    def class_datum(self) -> tuple[tuple[int, int], ...]:
        """Conjugacy invariant in the wreath group: multiset of (length, bit)."""
        return tuple(sorted(((len(f) - 1, b) for f, b in zip(self.local_factors, self.bits)), reverse=True))


def frobenius_class(
    P: RatPoly,
    delta_factors: Sequence[tuple[RatPoly, RatPoly]],
    p: int,
) -> SignedFrobenius:
    """Cycle type of P mod p with per-factor residue bits of delta.

    delta_factors pairs each irreducible factor of P with its delta
    representative.  p must be odd, unramified for P and for delta.
    """
    if p == 2:
        raise RamifiedPrimeError("p = 2 rejected")
    disc = discriminant(P)
    if P.denominator_lcm() % p == 0 or val_unit(disc, p)[0] != 0:
        raise RamifiedPrimeError(f"{p} divides disc(P) or a denominator")
    for Pi, di in delta_factors:
        if di.is_zero:
            raise ValueError("zero delta representative")
        if di.denominator_lcm() % p == 0 or val_unit(resultant(Pi, di), p)[0] != 0:
            raise RamifiedPrimeError(f"delta ramifies at {p}")

    factors = [f for f, _ in factor_fp(fp_reduce(P, p), p)]
    bits = []
    gidx = []
    for m in factors:
        i = _matching_global_factor(delta_factors, m, p)
        gidx.append(i)
        e = fp_rem(fp_reduce(delta_factors[i][1], p), m, p)
        if not e:
            raise RamifiedPrimeError(f"delta vanishes mod ({p}, factor)")
        s = fp_powmod(e, (p ** (len(m) - 1) - 1) // 2, m, p)
        if s == [1]:
            bits.append(0)
        elif s == [p - 1]:
            bits.append(1)
        else:
            raise ArithmeticError("residue power not +-1; modulus not irreducible?")
    return SignedFrobenius(p, tuple(factors), tuple(bits), tuple(gidx))


def _matching_global_factor(delta_factors, m: Sequence[int], p: int) -> int:
    for i, (Pi, _) in enumerate(delta_factors):
        if not fp_rem(fp_reduce(Pi, p), m, p):
            return i
    raise ArithmeticError("local factor matches no global factor")
