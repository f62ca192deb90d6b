"""Pencils of quadrics in P^4 over Q and their arithmetic invariants.

A pencil is a pair of rational symmetric 5x5 Gram matrices.  The binary
quintic det(mu Phi1 - nu Phi2) must be nonzero and squarefree (the
smoothness certificate for the base locus).  After a chart choice moving a
point outside the singular locus to infinity, the pencil has a monic
separable characteristic quintic P; the five singular members are rank-4
quadrics whose restricted Gram determinants give the delta invariant, a
tuple of square classes in the residue fields Q[t]/(P_i).

The norm-relation group (the products of the norms of the nonsquare delta
components that are rational squares) is the machine-checkable core.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import gf2
from .exact import (
    RatPoly,
    _bareiss,
    discriminant,
    factor_q,
    int_det,
    inverse_mod,
    is_square_q,
    resultant,
    sqrt_in_etale,
    strip_square_content,
)

Matrix = tuple[tuple[Fraction, ...], ...]


def matrix_of(rows) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(out)
    if any(len(r) != n for r in out):
        raise ValueError("matrix must be square")
    return out


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(n))


def _cleared(*mats) -> tuple[int, list[list[list[int]]]]:
    """The common denominator of the entries and the integer matrices
    den * m."""
    den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    return den, [[[x.numerator * (den // x.denominator) for x in row] for row in m] for m in mats]


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix: denominators are cleared once and
    the integer matrix goes through Bareiss elimination."""
    den, (a,) = _cleared(m)
    return Fraction(int_det(a), den ** len(a))


def definite_sign(m: Matrix) -> int:
    """1 if the symmetric matrix m is positive definite, -1 if negative
    definite, else 0, by Sylvester's criterion on the leading principal
    minors (the Bareiss pivots taken without row exchanges)."""
    _, (a,) = _cleared(m)
    _, minors = _bareiss(a, exchange=False)
    if 0 in minors:
        return 0
    if all(d > 0 for d in minors):
        return 1
    if all((d > 0) == (k % 2 == 1) for k, d in enumerate(minors)):
        return -1
    return 0


def mat_combine(a: Matrix, b: Matrix, x: Fraction, y: Fraction) -> Matrix:
    n = len(a)
    return tuple(
        tuple(x * a[i][j] + y * b[i][j] for j in range(n)) for i in range(n)
    )


class SingularPencilError(ValueError):
    """The binary quintic of the pencil has a repeated root."""

    def __init__(self, message: str, repeated_factor: Optional[RatPoly] = None):
        super().__init__(message)
        self.repeated_factor = repeated_factor


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
    def det_poly(self) -> RatPoly:
        """det(phi1 - t phi2), computed once per pencil; the binary quintic
        det(mu phi1 - nu phi2) has the same coefficients."""
        return char_poly_t(self.phi1, self.phi2)

    @functools.cached_property
    def smoothness_certificate(self) -> RatPoly:
        """The squarefree binary quintic, or raise SingularPencilError;
        certified once per pencil.

        Squarefree means: the t-chart polynomial is squarefree and the root
        at infinity (present when det(phi2) = 0) is simple.  The chart
        polynomial is squarefree iff its discriminant, an integer Sylvester
        determinant, is nonzero; only a singular pencil pays for the gcd
        with the derivative, which names the repeated factor.
        """
        q = self.det_poly
        if q.is_zero:
            raise SingularPencilError("every member of the pencil is singular")
        if q.degree < 4:
            raise SingularPencilError("repeated singular member at infinity")
        if discriminant(q) != 0:
            return q
        g = q.gcd(q.derivative())
        raise SingularPencilError(f"repeated singular member: {g}", repeated_factor=g)


def char_poly_t(phi1: Matrix, phi2: Matrix) -> RatPoly:
    """det(phi1 - t phi2) for n x n matrices, degree <= n: integer
    determinants at t = 0..n, interpolated by forward differences."""
    n = len(phi1)
    den, (a, b) = _cleared(phi1, phi2)
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
    scale = den**n
    return RatPoly.of([Fraction(c, scale) for c in coeffs])


def char_poly(m: Matrix) -> RatPoly:
    """det(t I - m), monic of degree n."""
    n = len(m)
    identity = matrix_of([[int(i == j) for j in range(n)] for i in range(n)])
    return char_poly_t(m, identity) * (-1) ** n


Chart = tuple[Fraction, Fraction, Fraction, Fraction]


def _chart_candidates():
    """Moebius moves in a fixed order: identity, t+1, t-1, 1/t, t/(t-1),
    then all small-height (c, d) directions with a canonical completion."""
    fixed = [
        (1, 0, 0, 1),
        (1, -1, 0, 1),
        (1, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 1, -1),
    ]
    for ch in fixed:
        yield tuple(Fraction(x) for x in ch)
    seen = {(0, 1), (1, 0), (1, -1)}
    for h in range(1, 30):
        for c in range(-h, h + 1):
            for d in range(-h, h + 1):
                if max(abs(c), abs(d)) != h or (c, d) == (0, 0):
                    continue
                key = (c, d) if (c, d) > (-c, -d) else (-c, -d)
                if key in seen or math.gcd(c, d) != 1:
                    continue
                seen.add(key)
                g, x, y = _ext_gcd(c, d)
                # a d - b c = 1 with (a, b) = (y, -x)
                yield tuple(Fraction(v) for v in (y, -x, c, d))


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


@dataclass(frozen=True)
class NormalizedPencil:
    """Pencil in a chart whose point at infinity avoids the singular locus."""

    pencil: Pencil
    chart: Chart  # (a, b, c, d): phi1' = a phi1 + b phi2, phi2' = c phi1 + d phi2
    phi1n: Matrix
    phi2n: Matrix
    P: RatPoly
    lead: Fraction  # det(phi1' - t phi2') = lead * P(t)


def chart_poly(pencil: Pencil, chart: Chart) -> RatPoly:
    """det(phi1' - t phi2') for phi1' = a phi1 + b phi2, phi2' = c phi1 + d phi2,
    by substitution into the binary quintic: F(a - c t, d t - b) where
    F(mu, nu) = det(mu phi1 - nu phi2).  Its t^5 coefficient is
    -det(phi2'), so it has degree 5 exactly when phi2' is nonsingular."""
    a, b, c, d = chart
    u, v = RatPoly.of([a, -c]), RatPoly.of([-b, d])
    F = pencil.det_poly
    # homogeneous Horner: sum_i F_i u^(5-i) v^i
    acc, u_pow = RatPoly(()), RatPoly.of([1])
    for i in range(5, -1, -1):
        acc = acc * v + u_pow * F[i]
        if i:
            u_pow = u_pow * u
    return acc


def normalize_pencil(pencil: Pencil, skip_charts: int = 0) -> NormalizedPencil:
    """Move a rational point of the pencil line off the singular locus to
    infinity and return the monic separable degree-5 characteristic quintic.

    skip_charts > 0 forces a later candidate (used to test chart
    independence).
    """
    pencil.smoothness_certificate  # raises SingularPencilError unless the pencil is smooth
    skipped = 0
    for chart in _chart_candidates():
        a, b, c, d = chart
        if a * d - b * c == 0:
            continue
        q = chart_poly(pencil, chart)
        if q.degree != 5:
            continue
        if skipped < skip_charts:
            skipped += 1
            continue
        phi1n = mat_combine(pencil.phi1, pencil.phi2, a, b)
        phi2n = mat_combine(pencil.phi1, pencil.phi2, c, d)
        return NormalizedPencil(pencil, chart, phi1n, phi2n, q.monic(), q.lc)
    raise SingularPencilError("no usable chart found")  # pragma: no cover


@dataclass(frozen=True)
class DeltaInvariant:
    """Characteristic quintic with per-factor delta square classes."""

    chart: Chart
    P: RatPoly
    factors: tuple[RatPoly, ...]
    delta_reps: tuple[RatPoly, ...]
    square_flags: tuple[str, ...]  # "square" | "nonsquare" | "undecided"

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


def _height(f: RatPoly) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in f.coeffs)


def _cofactor(phi1n: Matrix, phi2n: Matrix, i: int, j: int, factor: RatPoly) -> RatPoly:
    """Cofactor (i, j) of phi1n - theta phi2n, reduced mod factor(theta)."""
    keep_r = [r for r in range(5) if r != i]
    keep_c = [c for c in range(5) if c != j]
    sub1 = [[phi1n[r][c] for c in keep_c] for r in keep_r]
    sub2 = [[phi2n[r][c] for c in keep_c] for r in keep_r]
    return char_poly_t(sub1, sub2) * (-1) ** (i + j) % factor


def delta_component(phi1n: Matrix, phi2n: Matrix, factor: RatPoly) -> RatPoly:
    """Gram determinant of the rank-4 singular member M = phi1n - theta phi2n
    over Q[t]/(factor), where factor divides det(phi1n - t phi2n).

    The 4-dimensional complement of the kernel is spanned by the coordinate
    vectors away from the kernel coordinate of smallest height (a fixed
    pivot rule; any complement changes the result by a square).

    Everything is read from cofactors C_ij, each an integer determinant
    polynomial of a 4x4 submatrix reduced mod the factor.  M is symmetric of
    rank 4, so adj(M) = c v v^T for a kernel vector v:
    - the nonzero diagonal cofactors C_ii = c v_i^2 give the support of v;
    - column k of adj(M), for the last coordinate k in the support, divided
      by C_kk is v scaled to v_k = 1, the kernel vector that row reduction
      of M gives (k is its one free column);
    - the Gram determinant on the coordinates other than i is C_ii.
    """
    diag = [_cofactor(phi1n, phi2n, i, i, factor) for i in range(5)]
    support = [i for i in range(5) if not diag[i].is_zero]
    if not support:
        raise ArithmeticError("singular member has corank > 1, contradicting smoothness")
    k = support[-1]
    inv = inverse_mod(diag[k], factor)
    heights = {k: _height(RatPoly.of([1]))}
    for i in support[:-1]:
        heights[i] = _height(inv * _cofactor(phi1n, phi2n, i, k, factor) % factor)
    drop = min(support, key=lambda i: (heights[i], i))
    return strip_square_content(diag[drop])


def delta_invariant(
    norm: NormalizedPencil, certify: bool = True, prime_budget: int = 200
) -> DeltaInvariant:
    """Factor P and compute the delta square classes of the singular members.

    certify=False leaves every square flag "undecided" (cheap mode for laws
    that only need the representatives, like the norm-square check).
    """
    factors = [f for f, _ in factor_q(norm.P)]
    reps = []
    flags = []
    for f in factors:
        d = delta_component(norm.phi1n, norm.phi2n, f)
        reps.append(d)
        if certify:
            flags.append(sqrt_in_etale(d, f, prime_budget=prime_budget).status)
        else:
            flags.append("undecided")
    return DeltaInvariant(norm.chart, norm.P, tuple(factors), tuple(reps), tuple(flags))


class InsufficientCertificatesError(ValueError):
    pass


@dataclass(frozen=True)
class BrauerQuotient:
    """Norm-relation group on the nonsquare delta components, modulo the
    all-ones vector."""

    nonsquare_indices: tuple[int, ...]
    basis: tuple[int, ...]  # F_2 masks over the nonsquare indices
    dimension: int


def b_delta_group(inv: DeltaInvariant) -> BrauerQuotient:
    """Vectors gamma with prod N(delta_i)^gamma_i square, mod <(1,...,1)>.

    Requires every square flag decided; zero group when delta = 0.
    """
    for i, fl in enumerate(inv.square_flags):
        if fl == "undecided":
            raise InsufficientCertificatesError(
                f"square class of factor {inv.factors[i]} undecided"
            )
    idx = inv.nonsquare_indices()
    m = len(idx)
    if m == 0:
        return BrauerQuotient((), (), 0)
    norms = [resultant(inv.factors[i], inv.delta_reps[i]) for i in idx]
    if any(n == 0 for n in norms):
        raise ArithmeticError("delta representative shares a root with its factor")
    kept = []
    for gamma in range(1 << m):
        prod = Fraction(1)
        for j in range(m):
            if (gamma >> j) & 1:
                prod *= norms[j]
        if is_square_q(prod):
            kept.append(gamma)
    all_ones = (1 << m) - 1
    sub = [all_ones] if all_ones in kept else []
    basis = []
    cur = list(sub)
    for v in gf2.reduce_basis(kept):
        if not gf2.in_span(v, cur):
            basis.append(v)
            cur.append(v)
    return BrauerQuotient(tuple(idx), tuple(basis), len(basis))


@dataclass(frozen=True)
class HasseClassification:
    kind: str  # IRREDUCIBLE | SPLIT_TRIVIAL_BRAUER | SPLIT_NONTRIVIAL_BRAUER | OTHER
    factor_degrees: tuple[int, ...]
    b_dimension: Optional[int]
    galois_label: str


def hasse_class(inv: DeltaInvariant, galois_profile) -> HasseClassification:
    """Which case of the split/irreducible classification the pencil is in."""
    degs = tuple(sorted((f.degree for f in inv.factors), reverse=True))
    if inv.is_irreducible:
        return HasseClassification("IRREDUCIBLE", degs, None, galois_profile.label)
    if inv.is_split:
        b = b_delta_group(inv)
        kind = "SPLIT_TRIVIAL_BRAUER" if b.dimension == 0 else "SPLIT_NONTRIVIAL_BRAUER"
        return HasseClassification(kind, degs, b.dimension, galois_profile.label)
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


def random_pencil(rng: random.Random, entry_bound: int = 9, max_tries: int = 200) -> Pencil:
    """Random integral smooth pencil, entries in [-entry_bound, entry_bound]."""
    for _ in range(max_tries):
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
