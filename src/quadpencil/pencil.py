"""Pencils of quadrics in P^4 over Q and their arithmetic invariants.

A pencil is a pair of rational symmetric 5x5 Gram matrices.  The binary
quintic det(mu Phi1 - nu Phi2) must be nonzero and squarefree (the
smoothness certificate for the base locus).  After a chart choice moving a
point outside the singular locus to infinity, the pencil has a monic
separable characteristic quintic P; the five singular members are rank-4
quadrics whose restricted Gram determinants give the delta invariant, a
tuple of square classes in the residue fields Q[t]/(P_i).

The rational entries are cleared of denominators once per pencil
(`Pencil.cleared`); det(phi1 - t phi2), the chart members, their
characteristic polynomial, the principal minors behind the delta
invariant and the real members tested for definiteness are integer
combinations of that pair, and rationals are built only for what a report
states.  A singular member M has rank 4, so over its residue field
adj(M) = c v v^T for a kernel vector v, and each delta component is one
diagonal cofactor of M: one 4x4 determinant per interpolation node.

The norm-relation group (the products of the norms of the nonsquare delta
components that are rational squares) is the machine-checkable core.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import gf2
from .exact import (
    RatPoly,
    _bareiss,
    discriminant,
    factor_q,
    int_det,
    is_square_q,
    poly_mul,
    pseudo_divmod,
    resultant,
    sqrt_in_etale,
    strip_square_content,
    unramified_prime,
)

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def matrix_of(rows) -> Matrix:
    out = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows)
    n = len(out)
    if any(len(r) != n for r in out):
        raise ValueError("matrix must be square")
    return out


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(n))


def clear_denominators(*mats) -> tuple[int, list[list[list[int]]]]:
    """The common denominator of the entries and the integer matrices
    den * m."""
    den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    return den, [[[x.numerator * (den // x.denominator) for x in row] for row in m] for m in mats]


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix: denominators are cleared once and
    the integer matrix goes through Bareiss elimination."""
    den, (a,) = clear_denominators(m)
    return Fraction(int_det(a), den ** len(a))


def definite_sign(a: list[list[int]]) -> int:
    """1 if the symmetric integer matrix a is positive definite, -1 if
    negative definite, else 0, by Sylvester's criterion on the leading
    principal minors (the Bareiss pivots taken without row exchanges).  The
    rows of a are overwritten."""
    _, minors = _bareiss(a, exchange=False)
    if 0 in minors:
        return 0
    if all(d > 0 for d in minors):
        return 1
    if all((d > 0) == (k % 2 == 1) for k, d in enumerate(minors)):
        return -1
    return 0


class SingularPencilError(ValueError):
    """The binary quintic of the pencil has a repeated root."""


@dataclass(frozen=True)
class Pencil:
    """Two rational symmetric 5x5 Gram matrices spanning the pencil."""

    phi1: Matrix
    phi2: Matrix

    def __post_init__(self):
        for m in (self.phi1, self.phi2):
            if len(m) != 5 or not is_symmetric(m):
                raise ValueError("5x5 symmetric matrices required")

    @functools.cached_property
    def cleared(self) -> tuple[int, IntMatrix, IntMatrix]:
        """(den, den phi1, den phi2): den is the least common denominator of
        the entries, so both matrices are integral; computed once per
        pencil."""
        den, (a, b) = clear_denominators(self.phi1, self.phi2)
        return den, tuple(map(tuple, a)), tuple(map(tuple, b))

    @functools.cached_property
    def int_det_poly(self) -> tuple[int, ...]:
        """The six integer coefficients, low to high, of det(den phi1 -
        t den phi2) = den^5 det(phi1 - t phi2), from `cleared`; computed
        once per pencil."""
        _, a, b = self.cleared
        return tuple(_int_char_poly(a, b))

    @functools.cached_property
    def det_poly(self) -> RatPoly:
        """det(phi1 - t phi2); the binary quintic det(mu phi1 - nu phi2) has
        the same coefficients."""
        return RatPoly.over(self.int_det_poly, self.cleared[0] ** 5)

    @functools.cached_property
    def smoothness_certificate(self) -> RatPoly:
        """The squarefree binary quintic, or raise SingularPencilError;
        certified once per pencil.

        Squarefree means: the t-chart polynomial is squarefree and the root
        at infinity (present when det(phi2) = 0) is simple.  The chart
        polynomial is squarefree iff it is squarefree mod some prime that
        keeps its degree (`unramified_prime`); its discriminant is computed
        only when the first few primes all fail.  Only a singular pencil
        pays for the gcd with the derivative, which names the repeated
        factor.
        """
        q = self.det_poly
        if q.is_zero:
            raise SingularPencilError("every member of the pencil is singular")
        if q.degree < 4:
            raise SingularPencilError("repeated singular member at infinity")
        if unramified_prime(q) is not None:
            return q
        g = q.gcd(q.derivative())
        raise SingularPencilError(f"repeated singular member: {g}")


def char_poly_t(phi1: Matrix, phi2: Matrix) -> RatPoly:
    """det(phi1 - t phi2) for n x n rational matrices, degree <= n."""
    den, (a, b) = clear_denominators(phi1, phi2)
    return RatPoly.over(_int_char_poly(a, b), den ** len(a))


def _int_char_poly(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[int]:
    """The integer coefficients, low to high, of det(a - t b) for n x n
    integer matrices: determinants at t = 0..n, interpolated by forward
    differences."""
    n = len(a)
    ys = [
        int_det([[x - t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        for t in range(n + 1)
    ]
    # Newton's forward form: sum_k (Delta^k y_0 / k!) t (t-1) ... (t-k+1);
    # the divisions are exact because the determinant has integer coefficients
    coeffs = [0] * (n + 1)
    falling = [1]
    for k in range(n + 1):
        c = ys[0] // math.factorial(k)
        for i, f in enumerate(falling):
            coeffs[i] += c * f
        ys = [y1 - y0 for y0, y1 in zip(ys, ys[1:])]
        falling = [x - k * y for x, y in zip([0] + falling, falling + [0])]
    return coeffs


def char_poly(m: Matrix) -> RatPoly:
    """det(t I - m), monic of degree n."""
    n = len(m)
    identity = matrix_of([[int(i == j) for j in range(n)] for i in range(n)])
    return char_poly_t(m, identity) * (-1) ** n


Chart = tuple[int, int, int, int]


# Moebius moves (a, b, c, d), a d - b c = +-1, in a fixed order: identity,
# 1/t, t/(t-1), then three more.  Each moves a different point of the pencil
# line to infinity: the direction (c, d) fixes the second member
# c phi1 + d phi2.  For a smooth pencil det(c phi1 + d phi2) is a nonzero
# binary quintic, which vanishes at no more than five directions, so one of
# the six is usable.
CHARTS: tuple[Chart, ...] = (
    (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, -1), (1, 0, -1, -1), (1, 0, -2, -1), (1, 0, -2, 1),
)


@dataclass(frozen=True)
class NormalizedPencil:
    """Pencil in a chart whose point at infinity avoids the singular locus,
    with the chart members cleared of denominators: m1 = den phi1' and
    m2 = den phi2' are integer matrices."""

    pencil: Pencil
    chart: Chart  # (a, b, c, d): phi1' = a phi1 + b phi2, phi2' = c phi1 + d phi2
    den: int
    m1: IntMatrix
    m2: IntMatrix
    P: RatPoly
    lead: Fraction  # det(phi1' - t phi2') = lead * P(t)
    _minors: dict[int, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def principal_minor(self, k: int) -> list[int]:
        """The cofactor C_kk of m1 - t m2, the determinant of its principal
        4x4 minor without row and column k, as its five integer
        coefficients, low to high (formal degree 4): integer determinants
        at t = 0..4, interpolated on first use and then shared by every
        factor of P."""
        if k not in self._minors:
            keep = [i for i in range(5) if i != k]
            sub1 = [[self.m1[r][c] for c in keep] for r in keep]
            sub2 = [[self.m2[r][c] for c in keep] for r in keep]
            self._minors[k] = _int_char_poly(sub1, sub2)
        return self._minors[k]


def chart_poly(form: Sequence, degree: int, chart: Chart) -> list:
    """F(a - c t, d t - b), coefficients low to high, for the binary form
    F(mu, nu) of this degree whose coefficient of mu^(degree - i) nu^i is
    form[i] (ints or Fractions); the list has degree + 1 entries, and the
    top ones may vanish.  With F(mu, nu) = det(mu phi1 - nu phi2), the
    coefficients of `Pencil.det_poly`, this is det(phi1' - t phi2') for
    phi1' = a phi1 + b phi2, phi2' = c phi1 + d phi2; its t^5 coefficient is
    -det(phi2'), so it has degree 5 exactly when phi2' is nonsingular."""
    a, b, c, d = chart
    # homogeneous Horner: sum_i form[i] u^(degree - i) v^i, u = a - c t, v = d t - b
    acc, u_pow = [], [1]
    for i in range(degree, -1, -1):
        acc = poly_mul(acc, [-b, d]) or [0]
        for k, x in enumerate(u_pow):
            acc[k] += form[i] * x
        if i:
            u_pow = poly_mul(u_pow, [a, -c])
    return acc


def normalize_pencil(pencil: Pencil) -> NormalizedPencil:
    """Move a rational point of the pencil line off the singular locus to
    infinity and return the monic separable degree-5 characteristic quintic."""
    pencil.smoothness_certificate  # raises SingularPencilError unless the pencil is smooth
    den, m1, m2 = pencil.cleared
    for chart in CHARTS:
        a, b, c, d = chart
        chart_q = chart_poly(pencil.int_det_poly, 5, chart)
        if chart_q[5] == 0:
            continue
        lc = chart_q[5]
        return NormalizedPencil(
            pencil,
            chart,
            den,
            tuple(tuple(a * x + b * y for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2)),
            tuple(tuple(c * x + d * y for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2)),
            RatPoly.over(chart_q, lc),
            Fraction(lc, den**5),
        )
    raise SingularPencilError("no usable chart found")  # pragma: no cover


@dataclass(frozen=True)
class DeltaInvariant:
    """The one record of (P, delta): the quintic P, its monic irreducible
    factors P_i over Q and a delta representative d_i mod each.  disc(P),
    the norms and the square flags, which the bad set, the Galois label,
    the Brauer group and the (b, T) search read, are computed on first
    read and then shared."""

    P: RatPoly
    factors: tuple[RatPoly, ...]
    delta_reps: tuple[RatPoly, ...]

    @functools.cached_property
    def disc(self) -> Fraction:
        """disc(P)."""
        return discriminant(self.P)

    @functools.cached_property
    def norms(self) -> tuple[Fraction, ...]:
        """Res(P_i, d_i) = N(d_i), per factor."""
        return tuple(resultant(f, d) for f, d in zip(self.factors, self.delta_reps))

    @functools.cached_property
    def square_flags(self) -> tuple[str, ...]:
        """Per factor, "square" or "nonsquare", certified by `sqrt_in_etale`
        on first use; an irreducible P is its own factor, and disc(P) its
        discriminant."""
        disc_m = self.disc if len(self.factors) == 1 else None
        return tuple(
            sqrt_in_etale(d, f, disc_m, n).status
            for f, d, n in zip(self.factors, self.delta_reps, self.norms)
        )

    def factor_reps(self) -> list[tuple[RatPoly, RatPoly]]:
        return list(zip(self.factors, self.delta_reps))

    @property
    def is_split(self) -> bool:
        return all(f.degree == 1 for f in self.factors)

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1

    def nonsquare_indices(self) -> list[int]:
        return [i for i, fl in enumerate(self.square_flags) if fl == "nonsquare"]


def delta_component(norm: NormalizedPencil, factor: RatPoly) -> RatPoly:
    """Gram determinant of the rank-4 singular member M = phi1' - theta phi2'
    over Q[t]/(factor), where factor divides det(phi1' - t phi2').

    The 4-dimensional complement of the kernel is spanned by the coordinate
    vectors away from the kernel coordinate of smallest height, the total
    bit length of the numerators and denominators of its coefficients, in
    the kernel vector that row reduction of M gives (a fixed pivot rule;
    any complement changes the result by a square).

    With C_ij the cofactors of the integer member m1 - t m2 = den M, the
    Gram determinant on the coordinates other than d is C_dd / den^4.  M is
    symmetric of rank 4, so adj(M) = c v v^T for a kernel vector v, and
    C_dd = c v_d^2.  Row reduction gives v with v_k = 1 at its one free
    column k, the last coordinate with C_kk != 0.  1 has the least height
    of any nonzero element, and a coordinate d of the same height has
    v_d = +-1, so C_dd = C_kk wherever the rule drops: the result is
    C_kk / den^4 for that k.  The scan k = 4, 3, ... reads C_kk from
    `NormalizedPencil.principal_minor`, reduced mod the primitive integer
    multiple f of the factor by a pseudo-remainder, r / lc(f)^e; rationals
    are built only for the result.
    """
    content = math.gcd(*factor.num)
    f = [c // content for c in factor.num]
    for k in range(4, -1, -1):
        _, r, e = pseudo_divmod(norm.principal_minor(k), f)
        if r:
            den = f[-1] ** e * norm.den**4
            return strip_square_content(RatPoly.over(r, den))
    raise ArithmeticError("singular member has corank > 1, contradicting smoothness")


def delta_invariant(norm: NormalizedPencil) -> DeltaInvariant:
    """Factor P and compute the delta square classes of the singular
    members; disc(P), the norms and the square flags wait for a reader."""
    factors = tuple(factor_q(norm.P))
    return DeltaInvariant(norm.P, factors, tuple(delta_component(norm, f) for f in factors))


def b_delta_group(inv: DeltaInvariant) -> int:
    """Dimension of the vectors gamma over the nonsquare delta components
    with prod N(delta_i)^gamma_i square, mod <(1,...,1)>.

    Those gamma form a subgroup, so its dimension is the rank of its nonzero
    members, less one when the all-ones vector is among them; zero when
    delta = 0.
    """
    norms = [inv.norms[i] for i in inv.nonsquare_indices()]
    if any(n == 0 for n in norms):
        raise ArithmeticError("delta representative shares a root with its factor")
    kept = []
    for gamma in range(1, 1 << len(norms)):
        prod = Fraction(1)
        for j, n in enumerate(norms):
            if (gamma >> j) & 1:
                prod *= n
        if is_square_q(prod):
            kept.append(gamma)
    return gf2.rank(kept) - ((1 << len(norms)) - 1 in kept)


@dataclass(frozen=True)
class HasseClassification:
    kind: str  # IRREDUCIBLE | SPLIT_TRIVIAL_BRAUER | SPLIT_NONTRIVIAL_BRAUER | OTHER
    factor_degrees: tuple[int, ...]
    b_dimension: Optional[int]
    galois_label: str


def hasse_class(inv: DeltaInvariant, galois_profile, b_dimension: int) -> HasseClassification:
    """Which case of the split/irreducible classification the pencil is in;
    b_dimension is the pencil's `b_delta_group`, read for a split pencil."""
    degs = tuple(sorted((f.degree for f in inv.factors), reverse=True))
    if inv.is_irreducible:
        return HasseClassification("IRREDUCIBLE", degs, None, galois_profile.label)
    if inv.is_split:
        kind = "SPLIT_TRIVIAL_BRAUER" if b_dimension == 0 else "SPLIT_NONTRIVIAL_BRAUER"
        return HasseClassification(kind, degs, b_dimension, galois_profile.label)
    return HasseClassification("OTHER", degs, None, galois_profile.label)


# ---------------------------------------------------------------------------
# JSON interchange: rationals as "num/den" strings, bit-exact round trip

def rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def pencil_to_json(pencil: Pencil) -> dict:
    return {
        "phi1": [[rat_str(x) for x in row] for row in pencil.phi1],
        "phi2": [[rat_str(x) for x in row] for row in pencil.phi2],
    }


def pencil_from_json(data: dict) -> Pencil:
    try:
        phi1 = matrix_of([[Fraction(x) for x in row] for row in data["phi1"]])
        phi2 = matrix_of([[Fraction(x) for x in row] for row in data["phi2"]])
    except (KeyError, TypeError) as e:
        raise ValueError(f"pencil JSON must have 5x5 'phi1' and 'phi2': {e}") from e
    except ZeroDivisionError as e:
        raise ValueError(f"pencil entry with zero denominator: {e}") from e
    return Pencil(phi1, phi2)


def pencil_dumps(pencil: Pencil) -> str:
    return json.dumps(pencil_to_json(pencil), indent=1)


def pencil_loads(text: str) -> Pencil:
    return pencil_from_json(json.loads(text))


def random_pencil(rng: random.Random, entry_bound: int = 9) -> Pencil:
    """Random integral smooth pencil, entries in [-entry_bound, entry_bound],
    from at most 200 draws."""
    for _ in range(200):
        mats = []
        for _ in range(2):
            m = [[0] * 5 for _ in range(5)]
            for i in range(5):
                for j in range(i, 5):
                    m[i][j] = m[j][i] = rng.randint(-entry_bound, entry_bound)
            mats.append(matrix_of(m))
        pencil = Pencil(mats[0], mats[1])
        try:
            pencil.smoothness_certificate
        except SingularPencilError:
            continue
        return pencil
    raise RuntimeError("no smooth pencil found")  # pragma: no cover
