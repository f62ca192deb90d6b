"""Canonical surface models attached to (P, delta').

The two canonical Gram matrices are weighted trace forms on the basis
1, theta, ..., theta^4 of Q[t]/(P): entries Tr(w(theta) delta' theta^(i+j))
with weights 1/P'(theta) and theta/P'(theta).  The double-cover model adds
x^2 = (trace form with weight P(b)/((b-theta) P'(theta))).  Every weight is
g(theta)/P'(theta) for a polynomial g, and Euler's identity (Serre, Local
Fields, III 6) reads Tr(g(theta)/P'(theta)) off as the t^(n-1) coefficient
of g mod P: no inverse in Q[t]/(P), no power sums, no root approximations.

A model keeps delta' as one class mod P and as the record of (P, delta')
that every later stage reads (`pencil.DeltaInvariant`): the factors P_i
of P and delta' mod each.  The round trip multiplies the record's norms
Res(P_i, delta'_i) to N(delta'), and `search` hands the record to the bad
set and the (b, T) search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exact import (
    RatPoly,
    crt_poly,
    factor_q,
    is_square_q,
    sqrt_in_etale,
    strip_square_content,
)
from .pencil import (
    DeltaInvariant,
    Matrix,
    NormalizedPencil,
    Pencil,
    chart_poly,
    delta_invariant,
    matrix_of,
    normalize_pencil,
)

DeltaInput = Union[RatPoly, Sequence[RatPoly], Sequence[int]]


def normalize_delta(P: RatPoly, delta_prime: DeltaInput) -> tuple[RatPoly, DeltaInvariant]:
    """Accept a single class mod P or a per-factor list; return one class d
    and the record of (P, d): the monic irreducible factors of P, in the
    order of factor_q(P), and d mod each.

    Per-factor lists follow that factor order and are glued by CRT.  The
    class must be invertible modulo every factor.
    """
    factors = tuple(factor_q(P))
    if isinstance(delta_prime, RatPoly):
        d = delta_prime % P
    else:
        entries = [
            e if isinstance(e, RatPoly) else RatPoly.const(e) for e in delta_prime
        ]
        if len(entries) != len(factors):
            raise ValueError(
                f"{len(entries)} delta entries for {len(factors)} factors"
            )
        d = crt_poly([e % f for e, f in zip(entries, factors)], factors)
    reps = tuple(d % f for f in factors)
    for f, r in zip(factors, reps):
        if r.is_zero:
            raise ValueError(f"delta' not invertible modulo {f}")
    return d, DeltaInvariant(P, factors, reps)


def trace_form(P: RatPoly, g: RatPoly) -> Matrix:
    """Gram matrix Tr(g(theta) theta^(i+j) / P'(theta)) on the power basis.

    P is monic of degree n and g a polynomial.  By Euler's identity entry
    (i, j) is the t^(n-1) coefficient of g t^(i+j) mod P; the residue for
    k = i + j comes from the one for k - 1 by one multiplication by t.
    """
    n = P.degree
    h, taus = g % P, []
    for _ in range(2 * n - 1):
        taus.append(h[n - 1])
        h = (h * RatPoly.x()) % P
    return matrix_of([[taus[i + j] for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class CanonicalModel:
    """The pair of canonical quadrics of (P, delta')."""

    P: RatPoly
    delta: RatPoly  # one residue class mod P
    inv: DeltaInvariant  # the factors of P and delta mod each
    gram1: Matrix  # weight 1/P'
    gram2: Matrix  # weight theta/P'

    def to_pencil(self) -> Pencil:
        return Pencil(self.gram1, self.gram2)


def canonical_quadrics(P: RatPoly, delta_prime: DeltaInput) -> CanonicalModel:
    """Gram matrices of the two trace forms cutting out the canonical model."""
    if P.degree != 5 or P.lc != 1:
        raise ValueError("monic quintic required")
    delta, inv = normalize_delta(P, delta_prime)
    g1 = trace_form(P, delta)
    g2 = trace_form(P, delta * RatPoly.x())
    return CanonicalModel(P, delta, inv, g1, g2)


@dataclass(frozen=True)
class KummerModel:
    """Canonical quadrics plus the double-cover equation at parameter b.

    The model lives in P^5 with coordinates (x, u0..u4): the two canonical
    quadrics in u, and x^2 = gram3(u).
    """

    base: CanonicalModel
    b: Fraction
    gram3: Matrix

    def quadrics(self) -> list[Matrix]:
        z = [Fraction(0)] * 5
        out = []
        for g, x2 in ((self.base.gram1, 0), (self.base.gram2, 0)):
            rows = [[Fraction(x2)] + z] + [[Fraction(0)] + list(row) for row in g]
            out.append(matrix_of(rows))
        rows = [[Fraction(1)] + z] + [
            [Fraction(0)] + [-x for x in row] for row in self.gram3
        ]
        out.append(matrix_of(rows))
        return out


def kummer_model(P: RatPoly, delta_prime: DeltaInput, b) -> KummerModel:
    """Double cover datum at b: gram3 = trace form with weight
    P(b) / ((b - theta) P'(theta)); requires P(b) != 0.

    P(b) / (b - theta) is Q_b(theta) for the exact quotient
    Q_b = (P(b) - P) / (b - t)."""
    b = Fraction(b)
    if P(b) == 0:
        raise ValueError("b is a root of P")
    base = canonical_quadrics(P, delta_prime)
    q_b = (RatPoly.const(P(b)) - P) // RatPoly.of([b, -1])
    g3 = trace_form(P, q_b * base.delta)
    return KummerModel(base, b, g3)


# ---------------------------------------------------------------------------
# Round trip: canonical model -> pencil invariants -> compare

@dataclass(frozen=True)
class FactorMatch:
    input_factor: RatPoly
    recovered_factor: RatPoly
    ratio_status: str  # "square" when the classes agree

    @property
    def ok(self) -> bool:
        return self.ratio_status == "square"


@dataclass(frozen=True)
class RoundTripReport:
    P: RatPoly
    norm_value: Fraction
    det_identity_ok: bool
    norm_is_square: bool
    recovered: NormalizedPencil
    matches: tuple[FactorMatch, ...]

    @property
    def ok(self) -> bool:
        return self.det_identity_ok and all(m.ok for m in self.matches)

    def failures(self) -> list[str]:
        out = []
        if not self.det_identity_ok:
            out.append("characteristic binary form differs from N * P")
        for m in self.matches:
            if not m.ok:
                out.append(
                    f"delta class mismatch on {m.input_factor}: {m.ratio_status}"
                )
        return out


def roundtrip_invariants(P: RatPoly, delta_prime: DeltaInput) -> RoundTripReport:
    """Build the canonical quadrics, re-extract the pencil invariants, and
    certify that P and the delta square classes come back unchanged.

    The characteristic identity is exact: det(mu gram1 - nu gram2) equals
    N(delta') times the homogenized P with roots at mu/nu, and N(delta') is
    a square whenever delta' is a legitimate norm-one class.
    """
    model = canonical_quadrics(P, delta_prime)
    pencil = model.to_pencil()
    n = math.prod(model.inv.norms)
    delta_factors = model.inv.factor_reps()

    bq = pencil.det_poly  # coefficients of sum c_i mu^(5-i) nu^i
    det_ok = all(bq[i] == n * P[5 - i] for i in range(6))

    recovered = normalize_pencil(pencil)
    inv = delta_invariant(recovered)
    chart = recovered.chart

    matches = []
    used = set()
    for rf, rd in inv.factor_reps():
        target = None
        for j, (pf, pd) in enumerate(delta_factors):
            if j in used or pf.degree != rf.degree:
                continue
            # (d t - b)^deg pf((a - c t)/(d t - b)) vanishes mod rf
            if (RatPoly.over(chart_poly(pf.num[::-1], pf.degree, chart)) % rf).is_zero:
                target = (j, pf, pd)
                break
        if target is None:
            matches.append(FactorMatch(RatPoly(()), rf, "no-matching-factor"))
            continue
        j, pf, pd = target
        used.add(j)
        # rd / pd(theta) for theta = (a - c t)/(d t - b), times the square
        # (pd(theta) (d t - b)^(k/2))^2 for an even k >= deg pd
        k = pd.degree + pd.degree % 2
        mapped = RatPoly.over(chart_poly((pd.num + (0,) * (k - pd.degree))[::-1], k, chart), pd.den)
        reduced = strip_square_content((rd * mapped) % rf)
        status = sqrt_in_etale(reduced, rf).status
        matches.append(FactorMatch(pf, rf, status))
    return RoundTripReport(P, n, det_ok, is_square_q(n), recovered, tuple(matches))

