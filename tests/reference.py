"""Reference implementations the tests check the program against.

None of these is run by a command: each is an independent oracle, a
closed-form law the acceptance criteria assert, a builder of test inputs,
a call counter or a time limit.  They are written with the program's own types, so a test can
compare the two directly.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable, Sequence

import sympy

from quadpencil import gf2
from quadpencil.canon import DeltaInput, RoundTripReport, normalize_delta
from quadpencil.exact import (
    REAL_PLACE,
    BadSet,
    LocalPlace,
    RatPoly,
    Residue,
    SqrtEtaleResult,
    _as_rat,
    discriminant,
    factor_q,
    fp_eval,
    fp_powmod,
    fp_reduce,
    fp_rem,
    fp_roots,
    fp_trim,
    good_primes,
    interpolate_rational,
    inverse_mod,
    is_square_q,
    lagrange_basis,
    legendre,
    lift_roots,
    prime_place,
    resultant,
    sqrt_in_etale,
    sqrt_mod_p,
    strip_square_content,
    val_unit,
)
from quadpencil.galois import (
    GaloisProfile,
    frobenius_class,
    galois_group_quintic,
)
from quadpencil.localarith import (
    DiagonalModel,
    LocalCertificate,
    _split_witness,
    condition_representative,
)
from quadpencil.pencil import DeltaInvariant, Matrix, char_poly, delta_invariant, matrix_of
from quadpencil.selmersim import SelmerSystem


def load_schema() -> dict:
    """The JSON schema of the analysis report."""
    with resources.files("quadpencil.schema").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Polynomials and matrices


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class FracPoly:
    """Oracle for `RatPoly`: a polynomial over Q as its tuple of Fraction
    coefficients, low to high with no trailing zero, and every operation
    done coefficient by coefficient in Fraction arithmetic."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs) -> "FracPoly":
        return cls(_trim([_as_rat(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "FracPoly") -> "FracPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return FracPoly(_trim([self[i] + other[i] for i in range(n)]))

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return FracPoly(_trim([self[i] - other[i] for i in range(n)]))

    def __neg__(self) -> "FracPoly":
        return FracPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):
            return FracPoly(_trim([c * other for c in self.coeffs]))
        out = [Fraction(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(_trim(out))

    def __divmod__(self, other: "FracPoly") -> tuple["FracPoly", "FracPoly"]:
        d, lc = other.degree, other.lc
        r = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(r) - d)
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = r[k + d] / lc
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
        return FracPoly(_trim(q)), FracPoly(_trim(r[:d]))

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "FracPoly":
        return self * (1 / self.lc)

    def derivative(self) -> "FracPoly":
        return FracPoly(_trim([i * c for i, c in enumerate(self.coeffs)][1:]))

    def gcd(self, other: "FracPoly") -> "FracPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, divmod(a, b)[1]
        return a.monic() if not a.is_zero else a

    def denominator_lcm(self) -> int:
        return math.lcm(*(c.denominator for c in self.coeffs))

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i == 0:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


def shift(f: RatPoly, c) -> RatPoly:
    """f composed with t -> t + c."""
    out = RatPoly(())
    xc = RatPoly.of([_as_rat(c), 1])
    for coef in reversed(f.coeffs):
        out = out * xc + RatPoly.const(coef)
    return out


def to_sympy(f: RatPoly) -> sympy.Poly:
    """f as a sympy polynomial in t."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      sympy.Symbol("t"))


def from_sympy(p: sympy.Poly) -> RatPoly:
    """The polynomial over Q with the coefficients of the sympy polynomial p."""
    return RatPoly.of([Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, reversed(p.all_coeffs()))])


def sympy_factor_q(f: RatPoly) -> list[tuple[RatPoly, int]]:
    """The factorization of f over Q by sympy alone (Zassenhaus): the monic
    irreducible factors with multiplicities, sorted by (degree,
    coefficients) as `exact.factor_q` sorts them."""
    t = sympy.Symbol("t")
    out = [(from_sympy(sympy.Poly(g, t)).monic(), int(mult)) for g, mult in to_sympy(f).factor_list()[1]]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def squarefree_part(n: int) -> int:
    """Squarefree kernel of a nonzero integer (sign preserved), by sympy's
    integer factorization."""
    out = -1 if n < 0 else 1
    for q, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= int(q)
    return out


def diag(*entries) -> Matrix:
    """The diagonal matrix with the given entries."""
    n = len(entries)
    return matrix_of([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def mat_combine(a: Matrix, b: Matrix, x, y) -> Matrix:
    """The member x a + y b of a pencil, as a rational matrix."""
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


def _descartes_variations(f: RatPoly) -> int:
    signs = [1 if c > 0 else -1 for c in f.coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature(m: Matrix) -> tuple[int, int]:
    """(positive, negative) inertia of a nonsingular symmetric matrix,
    via exact Descartes counts on the characteristic polynomial."""
    chi = char_poly(m)
    if chi[0] == 0:
        raise ValueError("matrix is singular")
    pos = _descartes_variations(chi)
    neg = _descartes_variations(RatPoly.of([c * (-1) ** i for i, c in enumerate(chi.coeffs)]))
    return pos, neg


# ---------------------------------------------------------------------------
# The norm-square law


def verify_norm_square(inv: DeltaInvariant) -> bool:
    """The norm-square law: prod_i Res(P_i, d_i) is a rational square."""
    n = Fraction(1)
    for f, d in inv.factor_reps():
        n *= resultant(f, d)
    if n == 0:
        raise ArithmeticError("delta representative shares a root with its factor")
    return is_square_q(n)


# ---------------------------------------------------------------------------
# Hilbert symbols in closed form


def _unit_mod(u: Fraction, modulus: int) -> int:
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def local_square(a, v: LocalPlace) -> bool:
    """True iff a is a square in the completion Q_v."""
    a = _as_rat(a)
    if a == 0:
        raise ValueError("square test on zero")
    if v.is_real:
        return a > 0
    w, u = val_unit(a, v.p)
    if w % 2:
        return False
    if v.p == 2:
        return _unit_mod(u, 8) == 1
    return legendre(_unit_mod(u, v.p), v.p) == 1


def hilbert_symbol(a, b, v: LocalPlace) -> int:
    """Local Hilbert symbol (a, b)_{Q_v} in {+1, -1}.

    At p = 2 the closed-form eps/omega formula is used; at odd p the
    tame formula; at the real place the sign rule.
    """
    a, b = _as_rat(a), _as_rat(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    alpha, u = val_unit(a, p)
    beta, w = val_unit(b, p)
    if p == 2:
        um, wm = _unit_mod(u, 8), _unit_mod(w, 8)
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        omega_u, omega_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        e = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if e % 2 else 1
    lu, lw = legendre(_unit_mod(u, p), p), legendre(_unit_mod(w, p), p)
    s = 1
    if (alpha * beta) % 2 and (p - 1) // 2 % 2:
        s = -s
    if beta % 2 and lu == -1:
        s = -s
    if alpha % 2 and lw == -1:
        s = -s
    return s


def prime_divisors(n: int) -> set[int]:
    """The primes dividing the nonzero integer n."""
    if n == 0:
        raise ValueError("prime divisors of zero")
    return {int(q) for q in sympy.factorint(abs(n))}


def hilbert_support(a, b) -> list[LocalPlace]:
    """Places where (a, b) can be nontrivial: real, 2, and the odd p | num*den
    in increasing order."""
    primes = set()
    for x in (_as_rat(a), _as_rat(b)):
        primes |= prime_divisors(x.numerator) | prime_divisors(x.denominator)
    return [REAL_PLACE, prime_place(2)] + [prime_place(q) for q in sorted(primes - {2})]


# ---------------------------------------------------------------------------
# Galois profiles


def sympy_rational_roots(coeffs_high_to_low: list[int]) -> list[Fraction]:
    """Reference: the rational roots from sympy's factorization over Z."""
    y = sympy.Symbol("y")
    out = []
    for fac, _ in sympy.Poly(coeffs_high_to_low, y).factor_list()[1]:
        fp = sympy.Poly(fac, y)
        if fp.degree() == 1:
            a, b = fp.all_coeffs()
            out.append(Fraction(int(-b), int(a)))
    return sorted(out)


# Cycle types realized by each transitive subgroup of S5.
CLASS_SETS = {
    "C5": {(1, 1, 1, 1, 1), (5,)},
    "D10": {(1, 1, 1, 1, 1), (5,), (2, 2, 1)},
    "F20": {(1, 1, 1, 1, 1), (5,), (2, 2, 1), (4, 1)},
    "A5": {(1, 1, 1, 1, 1), (5,), (2, 2, 1), (3, 1, 1)},
    "S5": {(1, 1, 1, 1, 1), (5,), (2, 2, 1), (3, 1, 1), (2, 1, 1, 1), (3, 2), (4, 1)},
}


def delta_record(P: RatPoly, delta_factors: Sequence[tuple[RatPoly, RatPoly]] = ()) -> DeltaInvariant:
    """The record of (P, delta) for hand-made pairs (P_i, d_i)."""
    return DeltaInvariant(P, tuple(f for f, _ in delta_factors), tuple(d for _, d in delta_factors))


def galois_profile(P: RatPoly) -> GaloisProfile:
    """`galois_group_quintic` given the irreducible factors of P, as
    `analyze` passes them in the delta invariant (delta = 1 here)."""
    return galois_group_quintic(delta_record(P, [(f, RatPoly.const(1)) for f in factor_q(P)]))


# ---------------------------------------------------------------------------
# Residues of delta at good primes


def factor_fp(coeffs: Sequence[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors over F_p, with multiplicities, of the
    polynomial with these coefficients (low to high), by sympy; sorted by
    (degree, coefficients)."""
    t = sympy.Symbol("t")
    cs = fp_trim([c % p for c in coeffs])
    if not cs:
        raise ValueError("cannot factor the zero polynomial")
    out = []
    for g, mult in sympy.Poly(cs[::-1], t, modulus=p, symmetric=False).factor_list()[1]:
        cs = [int(c) % p for c in reversed(sympy.Poly(g, t, modulus=p, symmetric=False).all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append((tuple(c * inv % p for c in cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def frobenius_ramified(P: RatPoly, delta_factors: Sequence[tuple[RatPoly, RatPoly]], p: int) -> bool:
    """p = 2, or p divides a denominator of P or of a d_i, disc(P) or some
    Res(P_i, d_i) (a zero resultant counts as divisible)."""
    if p == 2 or P.den % p == 0 or val_unit(discriminant(P), p)[0] != 0:
        return True
    for Pi, di in delta_factors:
        res = resultant(Pi, di)
        if di.den % p == 0 or res == 0 or val_unit(res, p)[0] != 0:
            return True
    return False


def frobenius_datum(P: RatPoly, delta_factors: Sequence[tuple[RatPoly, RatPoly]], p: int):
    """The signed Frobenius class at a good prime from the full factorization
    of P mod p: for each local factor m, the factor P_i it divides and the
    Euler-criterion bit of d_i in F_p[t]/(m)."""
    out = []
    for m, _ in factor_fp(fp_reduce(P, p), p):
        i = next(i for i, (Pi, _) in enumerate(delta_factors) if not fp_rem(fp_reduce(Pi, p), m, p))
        s = fp_powmod(fp_reduce(delta_factors[i][1], p), (p ** (len(m) - 1) - 1) // 2, m, p)
        if s not in ([1], [p - 1]):
            raise ArithmeticError("residue power not +-1")
        out.append((len(m) - 1, int(s != [1])))
    return tuple(sorted(out, reverse=True))


@dataclass(frozen=True)
class DeltaResidue:
    p: int
    class_datum: tuple[tuple[int, int], ...]
    is_zero: bool
    representative_sign: int  # 5-bit mask, consecutive-position layout


def delta_residue_at(
    P: RatPoly, delta_factors: Sequence[tuple[RatPoly, RatPoly]], p: int
) -> DeltaResidue:
    """Residue of delta at a good odd prime, as a class in G/(Frob - 1).

    The unramified class is zero iff every cycle's sign bit vanishes: the
    cycle-sum map identifies G/(Frob - 1) with the sign bits per local
    factor, cut by the zero-sum relation.
    """
    datum = frobenius_class(P, delta_factors, p)
    rep = condition_representative(datum)
    return DeltaResidue(p, datum, all(b == 0 for _, b in datum), rep.sign)


# ---------------------------------------------------------------------------
# Canonical models


def power_sums(P: RatPoly, upto: int) -> list[Fraction]:
    """s_k = sum of k-th powers of the roots, k = 0..upto (Newton)."""
    n = P.degree
    if P.lc != 1:
        raise ValueError("monic polynomial required")
    c = [P[i] for i in range(n + 1)]
    s = [Fraction(n)]
    for k in range(1, upto + 1):
        acc = Fraction(0)
        for i in range(1, min(k, n + 1)):
            acc += c[n - i] * s[k - i]
        if k <= n:
            acc += k * c[n - k]
        s.append(-acc)
    return s


def weighted_trace_form(P: RatPoly, weight: RatPoly, delta: RatPoly) -> Matrix:
    """Oracle: Gram matrix Tr(weight * delta * theta^(i+j)) on the power basis.

    weight and delta are residue classes mod P, and n = deg P; the matrix is
    the Hankel array of the traces tau_k = Tr(h theta^k) = sum_j h_j s_(j+k),
    k = 0..2n-2, read off the power sums s of P for h = weight delta mod P.
    """
    n = P.degree
    sums = power_sums(P, 3 * n - 3)
    h = (weight * delta) % P
    taus = [sum((h[j] * sums[j + k] for j in range(n)), Fraction(0)) for k in range(2 * n - 1)]
    return matrix_of([[taus[i + j] for j in range(n)] for i in range(n)])


def branch_form(P: RatPoly, delta_prime: DeltaInput, b) -> Matrix:
    """Branch locus form: weight 1 / ((b - theta) P'(theta))."""
    b = Fraction(b)
    if P(b) == 0:
        raise ValueError("b is a root of P")
    delta, _ = normalize_delta(P, delta_prime)
    w = inverse_mod((RatPoly.of([b, -1]) * P.derivative()) % P, P)
    return weighted_trace_form(P, w, delta)


def roundtrip_statuses_by_residue(rep: RoundTripReport, delta_prime: DeltaInput) -> list[str]:
    """Oracle: each matched factor's ratio status from rd / pd(theta) in
    Q[t]/(rf), with theta = (a - c t)/(d t - b) inverted there."""
    delta, _ = normalize_delta(rep.P, delta_prime)
    reps = dict(delta_invariant(rep.recovered).factor_reps())
    a, b, c, d = rep.recovered.chart
    out = []
    for m in rep.matches:
        rf = m.recovered_factor
        if m.input_factor.is_zero:
            out.append(m.ratio_status)
            continue
        theta = Residue.of(RatPoly.of([a, -c]), rf) * Residue.of(RatPoly.of([-b, d]), rf).inverse()
        mapped = Residue.of(RatPoly(()), rf)
        for x in reversed((delta % m.input_factor).coeffs):
            mapped = mapped * theta + Residue.of(RatPoly.const(x), rf)
        ratio = Residue.of(reps[rf], rf) * mapped.inverse()
        out.append(sqrt_in_etale(strip_square_content(ratio.poly), rf).status)
    return out


# ---------------------------------------------------------------------------
# Selmer systems


def span(vectors: Iterable[int]) -> frozenset[int]:
    """Every F_2 combination of the vectors (int bitmasks)."""
    out = {0}
    for v in vectors:
        out |= {w ^ v for w in out}
    return frozenset(out)


def q_split_by_bits(x: int, d: int) -> int:
    """Oracle: q(x) = sum x_i x_(d+i) over F_2, one bit pair at a time."""
    acc = 0
    for i in range(d):
        acc ^= (x >> i) & (x >> (d + i)) & 1
    return acc


def pair_split_by_bits(x: int, y: int, d: int) -> int:
    """Oracle: the polar pairing sum x_i y_(d+i) + y_i x_(d+i) of q, one bit
    pair at a time."""
    acc = 0
    for i in range(d):
        acc ^= ((x >> i) & (y >> (d + i)) & 1) ^ ((y >> i) & (x >> (d + i)) & 1)
    return acc


def exhaustive_selmer(system: SelmerSystem) -> set[int]:
    """Oracle: enumerate the whole global subspace and filter (small systems)."""
    return {x for x in span(system.global_lagrangian) if _in_product(system, x)}


def _in_product(system: SelmerSystem, x: int) -> bool:
    for i, pl in enumerate(system.places):
        if not gf2.in_span(system.res(x, i), list(pl.condition)):
            return False
    return True


def ct_kernel(pairing_rows: Sequence[int], dim: int) -> list[int]:
    """Kernel of an alternating F_2-pairing given by Gram rows.

    Rejects non-alternating input (nonzero diagonal or asymmetry).
    """
    rows = list(pairing_rows)
    if len(rows) != dim:
        raise ValueError("square Gram matrix required")
    for i in range(dim):
        if (rows[i] >> i) & 1:
            raise ValueError("pairing is not alternating (nonzero diagonal)")
        for j in range(dim):
            if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                raise ValueError("pairing is not symmetric")
    return gf2.null_space(rows, dim)


def endgame_pairing(dim: int = 3) -> list[int]:
    """The terminal three-dimensional configuration: the distinguished class
    pairs to zero with everything, the other two pair to 1/2."""
    if dim != 3:
        raise ValueError("the endgame configuration is three-dimensional")
    return [0b000, 0b100, 0b010]


# ---------------------------------------------------------------------------
# Rational and trial-division kernels the program replaced


def fraction_sturm_chain(f: RatPoly) -> list[RatPoly]:
    """The Sturm chain f, f', -(f mod f'), ... by Euclid over Q."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def fraction_sturm_var(chain: list[RatPoly], x: Fraction) -> int:
    """Sign changes of a rational Sturm chain at x."""
    signs = []
    for g in chain:
        v = g(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def strip_square_content_by_trial_division(d: RatPoly, bound: int = 10**6) -> RatPoly:
    """d times the square of a rational: denominators cleared, the even part
    of every prime <= bound divided out of the integer content, and the
    cofactor left after trial division too when it is a square."""
    if d.is_zero:
        return d
    den = d.den
    e = d * den * den
    g = 0
    for c in e.coeffs:
        g = math.gcd(g, c.numerator)
    if g > 1:
        sq, q, rem = 1, 2, g
        while q * q <= rem and q <= bound:
            if rem % q == 0:
                exp = 0
                while rem % q == 0:
                    rem //= q
                    exp += 1
                sq *= q ** (2 * (exp // 2))
            q += 1 if q == 2 else 2
        root = math.isqrt(rem)
        if root * root == rem:
            sq *= rem
        if sq > 1:
            e = e * Fraction(1, sq)
    return e


def sqrt_in_etale_walk(
    d: RatPoly, m: RatPoly, prime_budget: int = 200, digit_ladder: Sequence[int] = (45, 130, 400)
) -> SqrtEtaleResult:
    """The square test in Q[t]/(m) as a walk with a budget: "nonsquare" at
    the first good prime with a root r of m where d(r) is a nonresidue,
    "square" once a root reconstructed at a totally split prime, through a
    ladder of precisions of about `digit_ladder` decimal digits, squares to
    d mod m, and "undecided" after prime_budget totally split primes where
    no reconstruction did.  m is monic of degree >= 2 and squarefree, and d
    a unit mod m."""
    d = d % m
    disc_m = discriminant(m)
    bad = BadSet((disc_m.numerator, disc_m.denominator, m.den, d.den), 0)
    primes = good_primes(bad, 3)
    n = m.degree
    split_seen = 0
    while split_seen < prime_budget:
        p = next(primes)
        roots = fp_roots(fp_reduce(m, p), p)
        dp = fp_reduce(d, p)
        usable = []
        for r in roots:
            u = fp_eval(dp, r, p)
            if u == 0:
                continue
            if legendre(u, p) == -1:
                return SqrtEtaleResult("nonsquare", certificate=(p, r))
            usable.append((r, u))
        if len(roots) < n or len(usable) < n:
            continue
        split_seen += 1
        for digits in digit_ladder:
            pk = p ** max(2, int(digits / math.log10(p)) + 1)
            roots_k = lift_roots(m, roots, p, pk)
            basis = lagrange_basis(roots_k, pk)
            dk = fp_reduce(d, pk)
            sqrts = [
                lift_roots(RatPoly.of([-fp_eval(dk, rk, pk), 0, 1]), [sqrt_mod_p(u, p)], p, pk)[0]
                for (_, u), rk in zip(usable, roots_k)
            ]
            for signs in range(1 << (n - 1)):
                vals = [s if i == 0 or not (signs >> (i - 1)) & 1 else -s % pk for i, s in enumerate(sqrts)]
                y = interpolate_rational(basis, vals, pk)
                if y is not None and ((y * y - d) % m).is_zero:
                    return SqrtEtaleResult("square", root=y)
    return SqrtEtaleResult("undecided")


# ---------------------------------------------------------------------------
# The walk over good primes


def nextprime_walk(bad: BadSet, start: int, stop=None):
    """The walk `good_primes` made before its prime table: sympy's nextprime
    from start - 1, each prime outside `bad` yielded, ending after the first
    prime >= stop."""
    p = start - 1
    while stop is None or p < stop:
        p = int(sympy.nextprime(p))
        if p not in bad:
            yield p


# ---------------------------------------------------------------------------
# Common zeros mod p, point by point


def zeros_mod_p_by_enumeration(forms: Sequence[Sequence[Sequence[int]]], p: int):
    """The common zeros of the integer forms x^T A x in P^(n-1)(F_p), found
    by evaluating every point in turn: chart k (x_k = 1, x_j = 0 for j < k)
    with x_{k+1} fastest and x_{n-1} slowest, the last chart being e_{n-1}."""
    n = len(forms[0])
    for k in range(n):
        free = n - 1 - k
        for idx in range(p**free):
            x = (0,) * k + (1,) + tuple(idx // p**j % p for j in range(free))
            if all(sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n)) % p == 0
                   for a in forms):
                yield x


# ---------------------------------------------------------------------------
# The rank test of a smooth zero mod p


def jacobian_rank(forms: Sequence[Sequence[Sequence[int]]], x: Sequence[int], p: int) -> int:
    """The rank mod p of the Jacobian of the forms x^T A x at x, whose rows
    are the gradients 2 A x, computed over GF(p) by sympy; x is a smooth
    zero mod p exactly when the rank is the number of forms."""
    from sympy.polys.matrices import DomainMatrix

    n, field = len(x), sympy.GF(p)
    rows = [[field(2 * sum(a[i][j] * x[j] for j in range(n))) for i in range(n)] for a in forms]
    return DomainMatrix(rows, (len(rows), n), field).rank()


# ---------------------------------------------------------------------------
# Points of a diagonal model mod p^k


def diagonal_primitive_count(a: Sequence[int], b: Sequence[int], p: int, k: int) -> int:
    """The number of primitive y mod p^k (some y_i a unit) with
    sum a_i y_i^2 = sum b_i y_i^2 = 0 mod p^k, q = p^k.

    Orthogonality of the characters of (Z/q)^2: the count of all y is
    q^-2 sum over (s, t) of prod_i G(s a_i + t b_i), where G(u), the sum of
    exp(2 pi i u y^2 / q) over y mod q, is the discrete Fourier transform
    of the histogram of the squares mod q; the y with every y_i = 0 mod p
    are counted the same way and subtracted.  The sums are in floating
    point, so the result is checked to lie within 0.01 of an integer."""
    import numpy as np

    q = p**k
    ys = np.arange(q, dtype=np.int64)
    total = 0.0
    for sign, kept in ((1, ys), (-1, ys[::p])):
        gauss = np.fft.ifft(np.bincount(kept * kept % q, minlength=q)) * q
        s = np.arange(q, dtype=np.int64)
        acc = 0j
        for t in range(q):
            prod = np.ones(q, dtype=complex)
            for ai, bi in zip(a, b):
                prod *= gauss[(s * (ai % q) + t * (bi % q)) % q]
            acc += prod.sum()
        total += sign * acc.real / (q * q)
    count = round(total)
    assert abs(total - count) < 0.01, total
    return count


def diagonal_insoluble_at(c: Sequence[int], n: Sequence[int], p: int, kmax: int):
    """The least k <= kmax at which sum c_i y_i^2 = sum n_i c_i y_i^2 = 0
    has no primitive solution mod p^k, or None; such a k proves that the
    model has no Q_p-point.  Each coordinate's pair (c_i, n_i c_i) is first
    divided by p^(2 floor(v/2)), v = v_p(c_i) (y_i -> y_i / p^(v // 2)),
    and each form by its p-content; neither changes the Q_p-points."""
    a = [ci // p ** (2 * (val_unit(Fraction(ci), p)[0] // 2)) for ci in c]
    b = [ni * ai for ni, ai in zip(n, a)]
    for form in (a, b):
        content = math.gcd(*form)
        while content % p == 0:
            content //= p
            form[:] = [x // p for x in form]
    for k in range(1, kmax + 1):
        if diagonal_primitive_count(a, b, p, k) == 0:
            return k
    return None


def _val(x: int, p: int) -> float:
    """p-adic valuation of an integer, infinite at 0."""
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def split_soluble_per_ball(model: DiagonalModel, p: int) -> LocalCertificate:
    """The ball tree of `localarith.split_soluble` with no memo: every ball
    computes the valuation, unit part and residue symbol (`legendre`, a
    modular power) of each coordinate on its own, and the classes of all
    five before comparing them.  It visits the same balls in the same order,
    so it gives the same verdict, depth, node count and witness."""
    place = prime_place(p)
    r = 3 if p == 2 else 1
    n, c = model.roots, model.c
    d = n[1] - n[0]
    B = [
        [n[2] - n[1], n[3] - n[1], n[4] - n[1]],
        [n[0] - n[2], n[0] - n[3], n[0] - n[4]],
        [d, 0, 0],
        [0, d, 0],
        [0, 0, d],
    ]
    vB = [[_val(x, p) for x in row] for row in B]
    vc = [_val(x, p) for x in c]

    def square_class(i: int, a: int, va: int) -> tuple[int, int]:
        """The square class of a / c_i: valuation parity and the class of
        the unit part (a residue symbol, or the residue mod 8 at p = 2)."""
        u = (a // p**va) * (c[i] // p ** vc[i])
        return (va - vc[i]) % 2, u % 8 if p == 2 else legendre(u, p)

    def in_ball(w, w0, m, free) -> bool:
        (k,) = {0, 1, 2} - set(free)
        vk = _val(w[k], p)
        return vk < math.inf and all(_val(w[j] - w0[j] * w[k], p) >= m + vk for j in free)

    def point_of(w0, m, free):
        """A point w of the ball at which z has one common class, or None
        (the ball fails) or "split"."""
        alpha = [sum(b * x for b, x in zip(row, w0)) for row in B]
        classes, open_ = set(), []
        for i in range(5):
            va = _val(alpha[i], p)
            if va + r <= m + min(vB[i][j] for j in free):
                classes.add(square_class(i, alpha[i], va))
            else:
                open_.append(i)
        if len(classes) > 1:
            return None
        if not open_:
            return w0
        if len(open_) == 1:
            (i,) = open_
            j = min(free, key=lambda j: vB[i][j])
            if _val(alpha[i], p) < m + vB[i][j]:
                return "split"
            # z_i(w0 + s e_j) = alpha_i + s B_ij vanishes at s = -alpha_i / B_ij
            return [B[i][j] * x - (alpha[i] if t == j else 0) for t, x in enumerate(w0)]
        if len(open_) == 2:
            (b1, b2) = (B[i] for i in open_)
            w = [b1[1] * b2[2] - b1[2] * b2[1], b1[2] * b2[0] - b1[0] * b2[2],
                 b1[0] * b2[1] - b1[1] * b2[0]]
            if in_ball(w, w0, m, free):
                return w
        return "split"

    def children(w0, m, free):
        step = p**m
        for s in range(p):
            for t in range(p):
                w = list(w0)
                w[free[0]] += step * s
                w[free[1]] += step * t
                yield w, m + 1, free

    # the unit charts: (1, s, t); (p s, 1, t), one ball per t mod p; (p s, p t, 1)
    # chained lazily: at a large prime the first balls usually decide
    charts = itertools.chain(
        [([1, 0, 0], 0, (1, 2))],
        (([0, 1, t], 1, (0, 2)) for t in range(p)),
        [([0, 0, 1], 1, (0, 1))],
    )
    stack = [charts]
    nodes = depth = 0
    while stack:
        ball = next(stack[-1], None)
        if ball is None:
            stack.pop()
            continue
        nodes += 1
        depth = max(depth, ball[1])
        found = point_of(*ball)
        if found == "split":
            stack.append(children(*ball))
        elif found is not None:
            return _split_witness(model, p, [sum(b * x for b, x in zip(row, found)) for row in B])
    return LocalCertificate(
        place,
        "insoluble",
        witness={"ball_tree_depth": depth, "ball_tree_nodes": nodes},
        reason="no ball of the diagonal model holds a point",
    )


# ---------------------------------------------------------------------------
# Call counting and time limits


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the enclosed block with TimeoutError after `seconds` (SIGALRM,
    so on the main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)



def count_calls(monkeypatch, name: str, module: str = "quadpencil.exact") -> list:
    """The positional arguments of every call of the function `name` of
    `module` from now on, through any module of the program that imported
    it; keyword arguments are passed on unrecorded."""
    calls = []
    original = getattr(sys.modules[module], name)

    def counting(*args, **kwargs):
        calls.append(args[0] if len(args) == 1 else args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("quadpencil") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_factor_q(monkeypatch) -> list:
    """The polynomials exact.factor_q is called on from now on."""
    return count_calls(monkeypatch, "factor_q")


def refuse_sympy(monkeypatch) -> None:
    """From now on, an import of sympy or of any of its modules raises
    ImportError, so a program path that would load sympy fails."""
    for name in ["sympy", *(k for k in sys.modules if k.startswith("sympy."))]:
        monkeypatch.setitem(sys.modules, name, None)
