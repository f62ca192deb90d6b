"""Reference implementations the tests check the program against.

None of these is run by a command: each is an independent oracle, a
closed-form law the acceptance criteria assert, a builder of test inputs,
a call counter or a time limit.  They are written with the program's own types, so a test can
compare the two directly.
"""

from __future__ import annotations

import contextlib
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
from quadpencil.canon import DeltaInput, normalize_delta, trace_form
from quadpencil.exact import (
    REAL_PLACE,
    LocalPlace,
    RatPoly,
    _as_rat,
    factor_q,
    inverse_mod,
    is_square_q,
    legendre,
    prime_place,
    resultant,
    val_unit,
)
from quadpencil.galois import (
    GaloisProfile,
    SignedFrobenius,
    frobenius_class,
    galois_group_quintic,
)
from quadpencil.groupmod import WreathElement
from quadpencil.pencil import DeltaInvariant, Matrix, char_poly, matrix_of
from quadpencil.selmersim import SelmerSystem


def load_schema() -> dict:
    """The JSON schema of the analysis report."""
    with resources.files("quadpencil.schema").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Polynomials and matrices


def shift(f: RatPoly, c) -> RatPoly:
    """f composed with t -> t + c."""
    out = RatPoly(())
    xc = RatPoly.of([_as_rat(c), 1])
    for coef in reversed(f.coeffs):
        out = out * xc + RatPoly.const(coef)
    return out


def diag(*entries) -> Matrix:
    """The diagonal matrix with the given entries."""
    n = len(entries)
    return matrix_of([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


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


def galois_profile(P: RatPoly) -> GaloisProfile:
    """`galois_group_quintic` given the irreducible factors of P, as
    `analyze` passes them from the delta invariant."""
    return galois_group_quintic(P, [f for f, _ in factor_q(P)])


# ---------------------------------------------------------------------------
# Residues of delta at good primes


def to_wreath(fr: SignedFrobenius) -> WreathElement:
    """Class representative of a signed Frobenius in (Z/2)^5 x| S5:
    positions allocated consecutively per local factor with standard
    cycles, each sign bit on the smallest position of its cycle."""
    perm = [0] * 5
    sign = 0
    pos = 0
    for f, b in zip(fr.local_factors, fr.bits):
        d = len(f) - 1
        for k in range(d):
            perm[pos + k] = pos + (k + 1) % d
        if b:
            sign |= 1 << pos
        pos += d
    if pos != 5:
        raise ValueError("local degrees do not sum to 5")
    return WreathElement(sign, tuple(perm))


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
    fr = frobenius_class(P, delta_factors, p)
    rep = to_wreath(fr)
    return DeltaResidue(p, fr.class_datum(), all(b == 0 for b in fr.bits), rep.sign)


# ---------------------------------------------------------------------------
# Canonical models


def branch_form(P: RatPoly, delta_prime: DeltaInput, b) -> Matrix:
    """Branch locus form: weight 1 / ((b - theta) P'(theta))."""
    b = Fraction(b)
    if P(b) == 0:
        raise ValueError("b is a root of P")
    delta, _ = normalize_delta(P, delta_prime)
    w = inverse_mod((RatPoly.of([b, -1]) * P.derivative()) % P, P)
    return trace_form(P, w, delta)


# ---------------------------------------------------------------------------
# Selmer systems


def span(vectors: Iterable[int]) -> frozenset[int]:
    """Every F_2 combination of the vectors (int bitmasks)."""
    out = {0}
    for v in vectors:
        out |= {w ^ v for w in out}
    return frozenset(out)


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
    den = d.denominator_lcm()
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



def count_calls(monkeypatch, name: str) -> list:
    """The arguments of every call of the function `name` of quadpencil.exact
    from now on, through any module of the program that imported it."""
    import quadpencil.exact as exact_mod

    calls = []
    original = getattr(exact_mod, name)

    def counting(*args):
        calls.append(args[0] if len(args) == 1 else args)
        return original(*args)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("quadpencil") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_factor_q(monkeypatch) -> list:
    """The polynomials exact.factor_q is called on from now on."""
    return count_calls(monkeypatch, "factor_q")
