"""Pencils of quadrics in P^4 over Q and their arithmetic invariants.

A pencil is a pair of rational symmetric 5x5 Gram matrices.  The binary
quintic det(mu Phi1 - nu Phi2) must be nonzero and squarefree (the
smoothness certificate for the base locus).  After a chart choice moving a
point outside the singular locus to infinity, the pencil has a monic
separable characteristic quintic P; the five singular members are rank-4
quadrics whose restricted Gram determinants give the delta invariant, a
tuple of square classes in the residue fields Q[t]/(P_i).

The norm-square law (the product of the norms of the delta components is
a rational square) and the norm-relation group computed from it are the
machine-checkable core.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import gf2
from .exact import (
    RatPoly,
    Residue,
    factor_q,
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


def mat_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Fraction-free Bareiss determinant."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_combine(a: Matrix, b: Matrix, x: Fraction, y: Fraction) -> Matrix:
    n = len(a)
    return tuple(
        tuple(x * a[i][j] + y * b[i][j] for j in range(n)) for i in range(n)
    )


def mat_congruent(m: Matrix, u: Matrix) -> Matrix:
    """u^T m u for a rational change of coordinates u."""
    n = len(m)
    mu = [[sum(m[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(u[k][i] * mu[k][j] for k in range(n)) for j in range(n)) for i in range(n)
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

    def member(self, mu: Fraction, nu: Fraction) -> Matrix:
        return mat_combine(self.phi1, self.phi2, Fraction(mu), Fraction(nu))


def char_poly_t(phi1: Matrix, phi2: Matrix) -> RatPoly:
    """det(phi1 - t phi2) for n x n matrices, degree <= n, by interpolation
    at n + 1 points."""
    xs = [Fraction(k) for k in range(len(phi1) + 1)]
    ys = [mat_det(mat_combine(phi1, phi2, Fraction(1), -x)) for x in xs]
    # Lagrange interpolation over Q
    out = RatPoly(())
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = RatPoly.of([1])
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * RatPoly.of([-xj, 1])
            den *= xi - xj
        out = out + num * (yi / den)
    return out


def char_poly(m: Matrix) -> RatPoly:
    """det(t I - m), monic of degree n."""
    n = len(m)
    identity = matrix_of([[int(i == j) for j in range(n)] for i in range(n)])
    return char_poly_t(m, identity) * (-1) ** n


def binary_quintic(pencil: Pencil) -> RatPoly:
    """Coefficients c_i of det(mu phi1 - nu phi2) = sum c_i mu^(5-i) nu^i,
    returned as the polynomial sum c_i t^i (the mu = 1 chart has t = nu)."""
    q = char_poly_t(pencil.phi1, pencil.phi2)
    return RatPoly.of([q[i] for i in range(6)])


def smoothness_certificate(pencil: Pencil) -> RatPoly:
    """The squarefree binary quintic, or raise SingularPencilError.

    Squarefree means: the t-chart polynomial is squarefree and the root at
    infinity (present when det(phi2) = 0) is simple.
    """
    q = char_poly_t(pencil.phi1, pencil.phi2)
    if q.is_zero:
        raise SingularPencilError("every member of the pencil is singular")
    if q.degree < 4:
        raise SingularPencilError("repeated singular member at infinity")
    g = q.gcd(q.derivative())
    if g.degree > 0:
        raise SingularPencilError(
            f"repeated singular member: {g}", repeated_factor=g
        )
    return binary_quintic(pencil)


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


def normalize_pencil(pencil: Pencil, skip_charts: int = 0) -> NormalizedPencil:
    """Move a rational point of the pencil line off the singular locus to
    infinity and return the monic separable degree-5 characteristic quintic.

    skip_charts > 0 forces a later candidate (used to test chart
    independence).
    """
    smoothness_certificate(pencil)
    skipped = 0
    for chart in _chart_candidates():
        a, b, c, d = chart
        if a * d - b * c == 0:
            continue
        phi2n = mat_combine(pencil.phi1, pencil.phi2, c, d)
        if mat_det(phi2n) == 0:
            continue
        if skipped < skip_charts:
            skipped += 1
            continue
        phi1n = mat_combine(pencil.phi1, pencil.phi2, a, b)
        q = char_poly_t(phi1n, phi2n)
        assert q.degree == 5
        P = q.monic()
        return NormalizedPencil(pencil, chart, phi1n, phi2n, P, q.lc)
    raise SingularPencilError("no usable chart found")  # pragma: no cover


def apply_chart_to_parameter(chart: Chart, t: Fraction) -> Optional[Fraction]:
    """Original pencil parameter s with phi1 - s phi2 ~ phi1' - t phi2',
    i.e. s = (d t - b) / (a - c t); None when the image is infinity."""
    a, b, c, d = chart
    den = a - c * t
    if den == 0:
        return None
    return (d * t - b) / den


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


def _kernel_vector(M: list[list[Residue]], modulus: RatPoly) -> list[Residue]:
    """Kernel of a rank-4 5x5 matrix over Q[t]/(modulus) (a field)."""
    n = 5
    zero = Residue.of(RatPoly(()), modulus)
    one = Residue.of(RatPoly.of([1]), modulus)
    a = [row[:] for row in M]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if not a[r][col].is_zero:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col].inverse()
        a[row] = [x * inv for x in a[row]]
        for r in range(n):
            if r != row and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ArithmeticError(
            f"singular member has corank {len(free)}, contradicting smoothness"
        )
    fc = free[0]
    vec = [zero] * n
    vec[fc] = one
    for r, pc in enumerate(pivots):
        vec[pc] = -a[r][fc] if not a[r][fc].is_zero else zero
    return vec


def _det_residue(M: list[list[Residue]], modulus: RatPoly) -> Residue:
    """Determinant over the field Q[t]/(modulus) by Gaussian elimination."""
    n = len(M)
    a = [row[:] for row in M]
    det = Residue.of(RatPoly.of([1]), modulus)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero:
                piv = r
                break
        if piv is None:
            return Residue.of(RatPoly(()), modulus)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inverse()
        for r in range(col + 1, n):
            if not a[r][col].is_zero:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def delta_component(phi1n: Matrix, phi2n: Matrix, factor: RatPoly) -> RatPoly:
    """Gram determinant of the rank-4 singular member over Q[t]/(factor).

    The 4-dimensional complement of the kernel is spanned by the coordinate
    vectors away from the kernel coordinate of smallest height (a fixed
    pivot rule; any complement changes the result by a square).
    """
    m = factor
    theta = RatPoly.of([0, 1])
    M = [
        [
            Residue.of(RatPoly.const(phi1n[i][j]) - theta * phi2n[i][j], m)
            for j in range(5)
        ]
        for i in range(5)
    ]
    ker = _kernel_vector(M, m)
    candidates = [(i, _height(ker[i].poly)) for i in range(5) if not ker[i].is_zero]
    drop = min(candidates, key=lambda t: (t[1], t[0]))[0]
    keep = [i for i in range(5) if i != drop]
    sub = [[M[i][j] for j in keep] for i in keep]
    d = _det_residue(sub, m)
    if d.is_zero:
        raise ArithmeticError("restricted Gram determinant vanished")
    return strip_square_content(d.poly)


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


def verify_norm_square(inv: DeltaInvariant) -> bool:
    """The norm-square law: prod_i Res(P_i, d_i) is a rational square."""
    n = Fraction(1)
    for f, d in inv.factor_reps():
        n *= resultant(f, d)
    if n == 0:
        raise ArithmeticError("delta representative shares a root with its factor")
    return is_square_q(n)


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
            smoothness_certificate(pencil)
        except SingularPencilError:
            continue
        return pencil
    raise RuntimeError("no smooth pencil found")  # pragma: no cover
