"""Local computations: the bad set, real and p-adic solubility, and the
witness search for admissible local conditions.

Real solubility of a smooth pencil is decided exactly: the base locus has
real points iff no member of the real pencil is definite, and definiteness
is constant on each arc between consecutive real singular parameters, so
Sylvester's criterion at one rational member t0 = n/d per arc decides; it
reads the signs of the leading principal minors of the integer member
d A - n B, for the pencil's cleared pair (A, B) = den (phi1, phi2).  The
members are separators, not isolating intervals: a Sturm-count search
(`arc_points`) that never evaluates at a root keeps the points where it
split the roots apart.
p-adic solubility of a pencil whose characteristic quintic splits
completely over Q is decided at every prime, p = 2 included, with no
budget: the pencil diagonalizes over Q (`diagonal_model`), and a tree of
p-adic balls on the plane of the values c_i y_i^2 of its diagonal terms
ends by compactness (`split_soluble`).  Any other pencil goes through
`padic_soluble`: its level 1 takes the common zeros mod p by solving each
chart line of P^4(F_p) as a quadratic over F_p (`_zeros_mod_p`), with no
point evaluated on its own, and its singular zeros feed a tree search over
residue candidates, bounded by its effort in levels and by a budget of
25,000 * effort candidates tested, where "unknown" is a first-class
verdict.  Every p-adic "soluble", from either procedure, is
one Hensel certificate, built by `_lifting` alone: a primitive common zero
mod p^k with a maximal Jacobian minor of valuation e, 2e < k.  No verdict
is ever guessed, and none reads a floating-point number.
`local_certificates` is the one place that picks the procedure for each
place of a report, and `sweep_places` the primes of the default sweep; a
certificate's witness holds values (integers, rationals), which the report
writer encodes.

The bad set S0 is 2, every prime below the margin, and the prime divisors
of disc(P), the denominators of P and delta, the resultants Res(P_i, d_i)
and the contents of the d_i.  `bad_set_s0` only collects those integers,
reading disc(P) and the norms off the one record of (P, delta),
`pencil.DeltaInvariant`, which computes each once for every stage; "is p
bad?" is a division test, so nothing on the analyze, local or search path
factors an integer.

The (b, T) search walks the good primes above the margin, matches signed
Frobenius classes, and builds b by lifting a simple root theta to b with
val(b - theta) = 1 at every matched prime, glued by CRT and re-verified
exactly before returning.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    REAL_PLACE,
    BadSet,
    LocalPlace,
    RatPoly,
    adjugate_column,
    fp_reduce,
    fp_roots,
    good_primes,
    int_det,
    legendre,
    lift_roots,
    prime_place,
    pseudo_divmod,
    scaled_value,
    sqrt_mod_p,
    val_unit,
    valuation,
)
from .galois import RamifiedPrimeError, frobenius_class
from .groupmod import WreathElement, is_admissible
from .pencil import (
    DeltaInvariant,
    Matrix,
    NormalizedPencil,
    Pencil,
    clear_denominators,
    definite_sign,
)

# ---------------------------------------------------------------------------
# Bad places


def bad_set_s0(inv: DeltaInvariant, margin: int = 100) -> BadSet:
    """Primes where anything can go wrong: 2, divisors of disc(P),
    denominators of P, primes where delta ramifies, and every prime below
    the margin (the fixed enlargement guaranteeing enough points on special
    fibres is modeled by a constant cutoff).  Only the integers are
    collected; membership is tested by division.  disc(P) and the norms
    Res(P_i, d_i) are the record's, computed once for every stage."""
    P, disc = inv.P, inv.disc
    integers = [disc.numerator, disc.denominator, P.den]
    for d, res in zip(inv.delta_reps, inv.norms):
        integers += [d.den, res.numerator, res.denominator]
        content = math.gcd(*d.num)
        if content > 1:
            integers.append(content)
    return BadSet(tuple(integers), margin)


# ---------------------------------------------------------------------------
# Real solubility


@dataclass(frozen=True)
class LocalCertificate:
    place: LocalPlace
    verdict: str  # "soluble" | "insoluble" | "unknown"
    witness: Optional[dict] = None
    reason: str = ""


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [c // g for c in a]


def _sturm_chain(f: RatPoly) -> list[list[int]]:
    """The Sturm chain f, f', -(f mod f'), ... as primitive integer
    coefficient lists (low to high), each a positive multiple of the
    rational one, so it has the same signs everywhere.

    A primitive remainder sequence (Collins, JACM 14, 1967): the next
    element is the pseudo-remainder lc(b)^e a - q b, e = deg a - deg b + 1,
    of the last two (`pseudo_divmod`), negated when lc(b)^e > 0 and
    divided by its content."""
    a = _primitive(list(f.num))
    chain = [a, _primitive([i * c for i, c in enumerate(a)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        _, r, _ = pseudo_divmod(a, b)
        if not r:
            break
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-x for x in r]
        chain.append(_primitive(r))
    return chain


def _sturm_var(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes of the chain at x."""
    signs = [v > 0 for v in (scaled_value(g, x) for g in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _split_point(a: Fraction, b: Fraction) -> Fraction:
    """A dyadic point of (a, b): the midpoint, or, on an interval of one sign
    whose ends differ by more than a factor 4, the power of two halfway
    between their bit lengths, so a far root costs a bisection of its
    exponent, not of its value."""
    if a >= 0 and b > 4 * max(a, 1):
        return Fraction(2 ** ((int(max(a, 1)).bit_length() + int(b).bit_length()) // 2))
    if b <= 0 and -a > 4 * max(-b, 1):
        return -_split_point(-b, -a)
    return (a + b) / 2


def arc_points(q: RatPoly) -> list[Fraction]:
    """Points of the real line, none of them a root of the nonconstant q, at
    least one on each arc that the real roots of q cut from the projective
    line: [lo, hi, *separators], increasing separators, with every real root
    strictly between lo and hi and exactly one distinct root between
    consecutive points of lo, separators, hi; or [0] when q has no real root.

    By Sturm's theorem V(a) - V(b) counts the distinct roots in (a, b) when
    neither end is a root, whether or not q is squarefree.  The search starts
    on (-B, B), B = 2^(k+1) for the largest coefficient bit length k of the
    primitive integer multiple of q, above Cauchy's bound 1 + max|c_i / lc|.
    It splits every interval holding two or more distinct roots at
    `_split_point`, moved to the midpoint and then halved toward a while it
    is a root, and keeps the split points with roots on both sides."""
    chain = _sturm_chain(q)
    hi = Fraction(2 ** (max(abs(c) for c in chain[0]).bit_length() + 1))
    lo = -hi
    v_lo, v_hi = _sturm_var(chain, lo), _sturm_var(chain, hi)
    separators = []
    work = [(lo, hi, v_lo, v_hi)]
    while work:
        a, b, va, vb = work.pop()
        if va - vb < 2:
            continue
        m = _split_point(a, b)
        if scaled_value(chain[0], m) == 0:
            m = (a + b) / 2
            while scaled_value(chain[0], m) == 0:
                m = (a + m) / 2
        vm = _sturm_var(chain, m)
        if va > vm > vb:
            separators.append(m)
        work += [(a, m, va, vm), (m, b, vm, vb)]
    return [lo, hi, *sorted(separators)] if v_lo > v_hi else [Fraction(0)]


def real_soluble(pencil: Pencil) -> LocalCertificate:
    """Insoluble iff some real member of the pencil is definite; decided by
    Sylvester's criterion at one member on each arc between consecutive real
    singular members (`arc_points`: lo and hi beyond every real root, on the
    arc through t = infinity or on its two sides when the member there is
    singular, a separator between each two consecutive real roots, or t = 0
    when the only real singular member is at infinity).  The witness is that
    proof: the definite member, or every sampled member in the order tested,
    each indefinite.  Raises SingularPencilError unless the pencil is
    smooth."""
    samples = arc_points(pencil.smoothness_certificate)
    _, a, b = pencil.cleared
    for t0 in samples:
        # den (phi1 - t0 phi2) times the denominator of t0, an integer matrix
        n, d = t0.numerator, t0.denominator
        sign = definite_sign([[d * x - n * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        if sign:
            return LocalCertificate(
                REAL_PLACE,
                "insoluble",
                witness={
                    "definite_member_at": t0,
                    "signature": [5, 0] if sign > 0 else [0, 5],
                },
                reason="definite member in the pencil",
            )
    return LocalCertificate(
        REAL_PLACE,
        "soluble",
        witness={"indefinite_members_at": samples},
        reason="no definite member on the real pencil line",
    )


# ---------------------------------------------------------------------------
# p-adic solubility


def _integral_forms(model: Sequence[Matrix], p: int) -> list[list[list[int]]]:
    """Each form of the model as an integer matrix with no common factor p.
    The entries are ints or Fractions; an integer form (such as a pencil's
    `Pencil.cleared` pair) is read as it is.  Scaling a form by a p-unit
    changes no verdict and no witness."""
    out = []
    for m in model:
        _, (ints,) = clear_denominators(m)
        if not any(map(any, ints)):
            raise ValueError("zero form in the model")
        while all(v % p == 0 for row in ints for v in row):
            ints = [[v // p for v in row] for row in ints]
        out.append(ints)
    return out


def _zeros_mod_p(forms_int, p: int):
    """The common zeros mod p of the forms in P^(n-1)(F_p), in a fixed
    order: chart k (x_k = 1, x_j = 0 for j < k) with x_{k+1} fastest and
    x_{n-1} slowest, then the point e_{n-1}.

    No point is evaluated on its own.  On a chart line x = y + s e_{k+1}
    each form is a s^2 + b s + c with a = A[k+1][k+1], b the s-coefficient
    of x^T A x and c = y^T A y.  Along u = x_{k+2}, the fastest coordinate
    of y, b is linear and c quadratic in u, so their coefficients are found
    once per plane (x_{k+3..} fixed) and evaluated on each line.
    Subtracting multiples of one form with a != 0 clears the s^2 terms: a
    combination with an s term leaves one candidate, a nonzero constant
    leaves none, and when every combination vanishes the zeros are the
    roots of that form (all of F_p when no form has an s or s^2 term).
    Each candidate is checked against every form, and the zeros of a line
    come in increasing s."""
    forms = [[[v % p for v in row] for row in a] for a in forms_int]
    n = len(forms[0])
    for k in range(n - 1):
        j, u = k + 1, k + 2
        # the coordinates of y fixed on a plane: x_k = 1 and x_{u+1..}
        idx = [k, *range(u + 1, n)]
        sq = [a[j][j] for a in forms]
        piv = next((i for i, ai in enumerate(sq) if ai), None)
        lin = [[a[j][i] + a[i][j] for i in idx] for a in forms]
        sub = [[[a[i][t] for t in idx] for i in idx] for a in forms]
        if u < n:  # the u-coefficients of b and c: b1, the row c1 (times y), c2
            along = [(a[j][u] + a[u][j], [a[i][u] + a[u][i] for i in idx], a[u][u]) for a in forms]
        else:  # the last chart has one line
            along = [(0, [0], 0)] * len(forms)
        for rest in itertools.product(range(p), repeat=max(n - 1 - u, 0)):
            z = (1, *reversed(rest))
            plane = [
                (ai, sum(map(operator.mul, r, z)) % p, b1,
                 sum(v * sum(map(operator.mul, row, z)) for v, row in zip(z, a)) % p,
                 sum(map(operator.mul, c1, z)) % p, c2)
                for ai, r, a, (b1, c1, c2) in zip(sq, lin, sub, along)
            ]
            for x in range(p) if u < n else (0,):
                lines = [
                    (ai, (b0 + b1 * x) % p, (c0 + (c1 + c2 * x) * x) % p)
                    for ai, b0, b1, c0, c1, c2 in plane
                ]
                if piv is None:
                    combos = [(b, c) for _, b, c in lines]
                else:
                    a0, b0, c0 = lines[piv]
                    combos = [((b * a0 - b0 * a) % p, (c * a0 - c0 * a) % p) for a, b, c in lines]
                sc, cc = next(((sc, cc) for sc, cc in combos if sc), (0, 0))
                if sc:
                    cands = [-cc * pow(sc, -1, p) % p]
                elif any(cc for _, cc in combos):
                    continue
                elif piv is None:
                    cands = range(p)
                else:
                    cands = fp_roots([c0, b0, a0], p)
                for s in cands:
                    if all((a * s * s + b * s + c) % p == 0 for a, b, c in lines):
                        yield (0,) * k + (1, s) + ((x, *z[1:]) if u < n else ())
    if all(a[n - 1][n - 1] == 0 for a in forms):
        yield (0,) * (n - 1) + (1,)


def _jacobian(forms_int, x: Sequence[int]) -> list[list[int]]:
    """Rows of the Jacobian of the forms at x, as integers."""
    n = len(x)
    return [[2 * sum(a[i][j] * x[j] for j in range(n)) for i in range(n)] for a in forms_int]


def _form_values(forms_int, x: Sequence[int]) -> list[int]:
    n = len(x)
    return [sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n)) for a in forms_int]


def _reduce_mod_p(a: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan elimination mod p of the rows of a, in place, over the
    first ncols columns; returns the pivot columns (their count is the rank)."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, len(a)) if a[r][col] % p), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [v * inv % p for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] % p:
                f = a[r][col]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def _lifting(forms_int, x: Sequence[int], p: int, level: int, reason: str
             ) -> Optional[LocalCertificate]:
    """The Hensel certificate of x, a primitive common zero of the forms mod
    p^level: "soluble" when some maximal minor of the Jacobian at x has
    valuation e with 2e < level, else None.  e is read capped at the level.
    At level 1 that asks whether some minor is a p-unit, that is whether
    the rows have full rank mod p (`_reduce_mod_p`); above it the minors are
    scanned until the first p-unit one.  This is the only place that builds
    a p-adic "soluble"."""
    rows = _jacobian(forms_int, x)
    m = len(rows)
    if level == 1:
        e = 0 if len(_reduce_mod_p(rows, len(x), p)) == m else 1
    else:
        e = level
        for cols in itertools.combinations(range(len(x)), m):
            d = int_det([[row[c] for c in cols] for row in rows])
            if d:
                e = min(e, valuation(d, p))
                if not e:
                    break
    if 2 * e >= level:
        return None
    key = "point_mod_p" if level == 1 else "point_mod_pk"
    witness = {key: list(x), "level": level, "minor_valuation": e}
    return LocalCertificate(prime_place(p), "soluble", witness, reason)


def _solve_linear_mod_p(
    jrows: list[list[int]], target: list[int], p: int, cap: int
) -> tuple[list[list[int]], bool]:
    """(solutions y of J y = target mod p up to cap, truncated?); J may be
    given by integer representatives."""
    m, n = len(jrows), len(jrows[0])
    a = [jrows[i][:] + [target[i] % p] for i in range(m)]
    pivots = _reduce_mod_p(a, n, p)
    for r in range(len(pivots), m):
        if a[r][n] % p:
            return [], False  # inconsistent
    part = [0] * n
    for r, c in enumerate(pivots):
        part[c] = a[r][n]
    free = [c for c in range(n) if c not in pivots]
    truncated = p ** len(free) > cap
    out = []
    for combo in itertools.product(range(p), repeat=len(free)):
        y = part[:]
        for fc, v in zip(free, combo):
            y[fc] = v
            if v:
                for r, c in enumerate(pivots):
                    y[c] = (y[c] - a[r][fc] * v) % p
        out.append(y)
        if len(out) >= cap:
            break
    return out, truncated


def padic_soluble(model: Sequence[Matrix], p: int, effort: int = 3) -> LocalCertificate:
    """Search for a Q_p-point on the intersection of the model's quadrics.

    Level 1 takes the common zeros of the forms in P^(n-1)(F_p) chart by
    chart in a fixed order, solving each chart line for them
    (`_zeros_mod_p`), and stops at the first smooth one, which Hensel-lifts
    (soluble) and is the witness; only a scan without one solves every
    line.  No common zero at all is a proof of insolubility.  Singular
    zeros, collected in scan order, branch into the linearized congruence
    mod p^2, p^3, ... up to `effort` levels; every zero, at every level, is
    tested by the one criterion of `_lifting`.  The refinement tests at most
    25,000 * effort candidates, at most 8p^2 from one zero; running out of
    either returns "unknown", never a guessed verdict.
    """
    place = prime_place(p)
    if effort <= 0:
        return LocalCertificate(place, "unknown", reason="effort exhausted")
    # candidates live mod p^level, level <= effort, and minor valuations are
    # capped at the level, so the forms mod p^(effort + 1) fix every value
    # the search reads
    top = p ** (effort + 1)
    forms_int = [[[v % top for v in row] for row in a] for a in _integral_forms(model, p)]
    n = len(forms_int[0])
    if p**(n - 1) > 60_000_000:
        return LocalCertificate(place, "unknown", reason="residue space too large")
    singular: list[tuple[int, ...]] = []
    for x in _zeros_mod_p(forms_int, p):
        cert = _lifting(forms_int, x, p, 1, "smooth point on the reduction")
        if cert:
            return cert
        singular.append(x)
    if not singular:
        return LocalCertificate(
            place,
            "insoluble",
            witness={"scan": f"all of P^{n-1}(F_{p})"},
            reason="reduction has no points at all",
        )

    # refine singular candidates level by level; the budget counts the
    # candidates tested (one `_lifting` each), so it bounds the work
    budget = 25_000 * effort
    frontier = singular  # common zeros mod p^(level - 1)
    any_truncated = False
    for level in range(2, effort + 1):
        mod = p ** (level - 1)
        new_frontier = []
        for x in frontier:
            fvals = _form_values(forms_int, x)
            assert all(v % mod == 0 for v in fvals)
            target = [(-v // mod) % p for v in fvals]
            sols, truncated = _solve_linear_mod_p(_jacobian(forms_int, x), target, p, cap=p**2 * 8)
            any_truncated = any_truncated or truncated
            for y in sols:
                budget -= 1
                if budget < 0:
                    return LocalCertificate(place, "unknown", reason="candidate budget exhausted")
                # F(x + mod y) = F(x) + mod J(x) y + mod^2 F(y) = 0 mod (mod p)
                x2 = tuple((x[i] + mod * y[i]) % (mod * p) for i in range(n))
                cert = _lifting(forms_int, x2, p, level, "Hensel-liftable candidate")
                if cert:
                    return cert
                new_frontier.append(x2)
        if not new_frontier:
            # insolubility is only a proof when no branch was truncated
            if any_truncated:
                return LocalCertificate(place, "unknown", reason="branch cap hit")
            return LocalCertificate(
                place,
                "insoluble",
                witness={"exhausted_at_level": level},
                reason="no residue candidate survives",
            )
        frontier = new_frontier
    return LocalCertificate(place, "unknown", reason="effort exhausted")


# ---------------------------------------------------------------------------
# Split pencils: the diagonal model and its ball tree


@dataclass(frozen=True)
class DiagonalModel:
    """A completely split pencil, diagonalized over Q.

    With e_i = n_i / D the five roots of P and v_i the primitive integer
    kernel vector of m1 - e_i m2 (the chart members), the v_i are
    m2-orthogonal, and x = sum y_i v_i turns X into
    sum c_i y_i^2 = sum n_i c_i y_i^2 = 0 with c_i = v_i^T m2 v_i != 0."""

    forms: tuple  # the pencil's integer pair (den phi1, den phi2), for witnesses
    roots: tuple[int, ...]  # n_i
    vectors: tuple[tuple[int, ...], ...]  # v_i
    c: tuple[int, ...]


def _kernel_vector(a: list[list[int]]) -> list[int]:
    """The primitive integer vector spanning the kernel of a symmetric
    integer matrix of corank 1: adj(a) = c v v^T, so column k is a multiple
    of v exactly when C_kk != 0, and the first such k is taken, one
    `adjugate_column` per k."""
    for k in range(len(a)):
        column = adjugate_column(a, k)
        if column[k]:
            return _primitive(column)
    raise ArithmeticError("matrix has corank > 1")


def diagonal_model(norm: NormalizedPencil, factors: Sequence[RatPoly]) -> Optional[DiagonalModel]:
    """The diagonal model of the pencil when `factors`, distinct monic
    factors of P over Q, are five, else None.  P is squarefree of degree
    5, so five such factors are linear: both its factorization and its
    linear factors alone (`exact.linear_factors`) have five entries exactly
    when P splits completely."""
    if len(factors) != 5:
        return None
    roots = [-f[0] for f in factors]
    D = math.lcm(*(e.denominator for e in roots))
    n = [int(e * D) for e in roots]
    vectors, c = [], []
    for ni in n:
        v = _kernel_vector([[D * x - ni * y for x, y in zip(r1, r2)] for r1, r2 in zip(norm.m1, norm.m2)])
        vectors.append(tuple(v))
        c.append(sum(v[i] * norm.m2[i][j] * v[j] for i in range(5) for j in range(5)))
    return DiagonalModel(norm.pencil.cleared[1:], tuple(n), tuple(vectors), tuple(c))


def _sqrt_unit(w: Fraction, p: int, k: int) -> int:
    """A square root mod p^(k-1) of a p-adic unit square w (w = 1 mod 8 at
    p = 2): Hensel's lift of a root mod p, or at p = 2 the root 1 mod 8
    corrected one bit at a time."""
    pk = p**k
    a = w.numerator * pow(w.denominator, -1, pk) % pk
    if p != 2:
        return lift_roots(RatPoly.of([-a, 0, 1]), [sqrt_mod_p(a, p)], p, pk)[0]
    r = 1
    for j in range(3, k):  # r^2 = a mod 2^j; (r + 2^(j-1))^2 = r^2 + 2^j mod 2^(j+1)
        if (r * r - a) % (2 << j):
            r += 1 << (j - 1)
    return r


def split_soluble(model: DiagonalModel, p: int) -> LocalCertificate:
    """Decide whether X has a Q_p-point, for a completely split pencil.

    z_i = c_i y_i^2 puts the points of X over the nonzero z of the plane
    L = {sum z_i = 0, sum n_i z_i = 0} whose nonzero z_i / c_i lie in one
    common square class of Q_p (z is fixed only up to a scalar).  L is
    parametrized by w in P^2(Q_p), z = B w, and P^2(Z_p) is covered by the
    balls of its three unit charts.  On a ball of radius p^-m around the
    center w0, z_i = alpha_i + (a linear part of valuation >= m_i); with
    r = 1 for odd p and r = 3 for p = 2:
    - z_i is determined when v(alpha_i) + r <= m_i: its class is that of
      alpha_i, since 1 + p^r Z_p consists of squares;
    - two determined classes of z_i / c_i that differ make the ball fail;
    - the ball is soluble when the undetermined z_i (at most two: no three
      coordinate lines of L meet, the n_i being distinct) vanish at a
      common point of it, whose y then has those coordinates 0;
    - otherwise it splits into p^2 balls of radius p^-(m + 1).
    Near a point w of P^2(Q_p) every nonvanishing z_i is eventually
    determined and the vanishing ones meet at w, so by compactness the tree
    is finite: the search always decides, with no budget.

    What every ball reads is computed once per prime: the valuation and
    unit part of each c_i, each chart's least valuation of B's free columns,
    and a memo of residue symbols, filled as balls meet the residues (a
    dict, never a table of size p).  A ball then costs three products per
    coordinate, a divisibility test and a lookup, and stops at the first
    class that disagrees.

    The soluble witness maps y back to x = sum y_i v_i, with the square
    roots taken to a precision p^k at which some maximal minor of the
    Jacobian of the pencil's own forms has valuation e with 2e < k, the
    witness `padic_soluble` gives.  The insoluble witness is the depth
    (largest m) and the node count of the exhausted tree."""
    place = prime_place(p)
    r = 3 if p == 2 else 1
    q = 8 if p == 2 else p  # the unit classes: residues mod 8, or symbols mod p
    n, c = model.roots, model.c
    d = n[1] - n[0]
    B = [
        [n[2] - n[1], n[3] - n[1], n[4] - n[1]],
        [n[0] - n[2], n[0] - n[3], n[0] - n[4]],
        [d, 0, 0],
        [0, d, 0],
        [0, 0, d],
    ]
    vB = [[valuation(x, p) if x else None for x in row] for row in B]  # None: B_ij = 0
    c_parts = []
    for ci in c:
        vc = valuation(ci, p)
        c_parts.append((vc, ci // p**vc % q))
    # per chart and coordinate, the least valuation of B's free columns, or
    # None when z_i does not depend on the free coordinates
    low = {free: [min((row[j] for j in free if row[j] is not None), default=None) for row in vB]
           for free in ((1, 2), (0, 2), (0, 1))}
    unit_class: dict[int, int] = {}

    def in_ball(w, w0, m, free) -> bool:
        (k,) = {0, 1, 2} - set(free)
        if not w[k]:
            return False
        vk = valuation(w[k], p)
        return all(w[j] == w0[j] * w[k] or valuation(w[j] - w0[j] * w[k], p) >= m + vk for j in free)

    def point_of(w0, m, free):
        """A point w of the ball at which z has one common class, or None
        (the ball fails) or "split".  The square class of a / c_i is the
        parity of v(a) - v(c_i) and the class of the product of the unit
        parts (its residue symbol, or its residue mod 8 at p = 2); the
        first class that differs from an earlier one fails the ball."""
        x0, x1, x2 = w0
        alpha, open_ = [], []
        first = None
        for i, ((b0, b1, b2), lo, (vc, uc)) in enumerate(zip(B, low[free], c_parts)):
            a = b0 * x0 + b1 * x1 + b2 * x2
            alpha.append(a)
            if a % p:
                va = 0
            elif a:
                va = valuation(a, p)
                a //= p**va
            # undetermined: z_i vanishes at the center, or the ball moves it
            # by p^(va + r) or more (never when it has no free dependence)
            if not a or lo is not None and va + r > m + lo:
                open_.append(i)
                continue
            u = a * uc % q
            s = unit_class.get(u)
            if s is None:
                s = unit_class[u] = u if p == 2 else legendre(u, p)
            cls = ((va - vc) % 2, s)
            if first is None:
                first = cls
            elif cls != first:
                return None
        if not open_:
            return w0
        if len(open_) == 1:
            (i,) = open_
            j = min((j for j in free if B[i][j]), key=lambda j: vB[i][j])
            if alpha[i] and valuation(alpha[i], p) < m + vB[i][j]:
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


def _split_witness(model: DiagonalModel, p: int, z: list[int]) -> LocalCertificate:
    """The Hensel witness of a point of the diagonal model: z in L, its
    nonzero z_i / c_i in one square class.

    y_i = sqrt(u_i) with u_i = (z_i / c_i) / (z_i0 / c_i0), a square in
    Q_p, is taken mod p^N; x = sum y_i v_i, divided by p^g, g = min v(x_j),
    is then a primitive zero mod p^k, k = N - g, of the pencil's forms.
    N doubles until some maximal Jacobian minor at x has valuation e with
    2e < k, which happens once k > 2e for the true point, smooth because X
    is."""
    forms_int = _integral_forms(model.forms, p)
    i0 = next(i for i in range(5) if z[i])
    parts = []  # (s_i, unit part) with u_i = p^(2 s_i) unit
    for zi, ci in zip(z, model.c):
        if zi:
            v, w = val_unit(Fraction(zi * model.c[i0], ci * z[i0]), p)
            parts.append((v // 2, w))
        else:
            parts.append(None)
    smin = min(s for s, _ in filter(None, parts))
    N = 4
    while True:
        y = [0 if part is None else p ** (part[0] - smin) * _sqrt_unit(part[1], p, N + 1)
             for part in parts]
        x = [sum(yi * v[j] for yi, v in zip(y, model.vectors)) for j in range(5)]
        g = min(valuation(xj, p) for xj in x if xj)
        k = N - g
        if k >= 2:
            cert = _lifting(forms_int, [xj // p**g % p**k for xj in x], p, k,
                            "Hensel-liftable point of the diagonal model")
            if cert:
                return cert
        N *= 2


# ---------------------------------------------------------------------------
# The places of a report


# The primes of the default p-adic sweep of analyze and local, taken when
# they lie in the bad set S0.  S0 holds every prime below --margin, so at
# analyze's default margin 100 that is all five, where `local` (margin 2)
# takes only the bad ones.  p = 2 is decided on request (`local --places
# 2`): for a split pencil always, by the ball tree, while the search for
# other pencils rarely decides it.
SWEEP_PRIMES = (3, 5, 7, 11, 13)


def sweep_places(s0: BadSet) -> list[int]:
    """The primes of the default sweep that lie in the bad set s0."""
    return [p for p in SWEEP_PRIMES if p in s0]


def local_certificates(
    norm: NormalizedPencil, factors: Sequence[RatPoly], places: Sequence[int], effort: int
) -> list[LocalCertificate]:
    """The certificate of the real place, then one per prime of `places`:
    the ball tree of the diagonal model when `factors` are the five linear
    factors of P (`diagonal_model`), else the search of `padic_soluble`,
    bounded by `effort`."""
    split = diagonal_model(norm, factors)
    return [real_soluble(norm.pencil)] + [
        padic_soluble(norm.pencil.cleared[1:], p, effort) if split is None else split_soluble(split, p)
        for p in places
    ]


# ---------------------------------------------------------------------------
# (b, T) witness search


ClassDatum = tuple[tuple[int, int], ...]


def normalize_condition(cond) -> ClassDatum:
    datum = tuple(sorted(((int(l), int(bit)) for l, bit in cond), reverse=True))
    if sum(l for l, _ in datum) != 5:
        raise ValueError("cycle lengths must sum to 5")
    if any(bit not in (0, 1) for _, bit in datum):
        raise ValueError("bits must be 0 or 1")
    return datum


def condition_representative(datum: ClassDatum) -> WreathElement:
    perm = [0] * 5
    sign = 0
    pos = 0
    for length, bit in datum:
        for k in range(length):
            perm[pos + k] = pos + (k + 1) % length
        if bit:
            sign |= 1 << pos
        pos += length
    return WreathElement(sign, tuple(perm))


IDENTITY_CONDITION: ClassDatum = ((1, 0),) * 5
# double-transposition patterns with nonzero and zero unramified residue
DT_RES_NONZERO: ClassDatum = ((2, 1), (2, 1), (1, 0))
DT_RES_ZERO: ClassDatum = ((2, 0), (2, 0), (1, 0))


class InadmissibleConditionError(ValueError):
    pass


class NoWitnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class BTWitness:
    """b and ordered primes with val_{v_i}(P(b)) = 1 and prescribed classes."""

    b: Fraction
    primes: tuple[int, ...]
    class_data: tuple[ClassDatum, ...]
    valuations: tuple[int, ...]

    def verify(self, inv: DeltaInvariant, s0: BadSet) -> bool:
        P, delta_factors = inv.P, inv.factor_reps()
        if P(self.b) == 0:
            return False
        if len(set(self.primes)) != len(self.primes):
            return False
        for p, datum in zip(self.primes, self.class_data):
            if p in s0:
                return False
            if self.b.denominator % p == 0:
                return False
            if val_unit(P(self.b), p)[0] != 1:
                return False
            if frobenius_class(P, delta_factors, p) != datum:
                return False
        return True


def find_bT(
    inv: DeltaInvariant,
    conditions: Sequence,
    s0: BadSet,
    prime_bound: int = 100_000,
) -> BTWitness:
    """Search primes outside the bad set realizing the requested classes and
    assemble b by CRT so that val_{v_i}(P(b)) = 1 at each matched prime.

    Conditions are multisets of (cycle length, sign bit); inadmissible
    conditions (no fixed point on the 10-point cover) and an empty list,
    whose CRT would give b = 0, are rejected before scanning.  s0 is
    `bad_set_s0(inv, margin)`, and the walk starts at its margin.  At each
    prime one distinct-degree split per factor gives the cycle type, and
    the Euler powers of the signed class are taken only when it is a
    requested one.  The returned witness is re-verified exactly.
    """
    if not conditions:
        raise ValueError("no local conditions to realize")
    data = [normalize_condition(c) for c in conditions]
    reps = [condition_representative(d) for d in data]
    adm = is_admissible(reps)
    for d, ok in zip(data, adm):
        if not ok:
            raise InadmissibleConditionError(f"condition {d} has no fixed point")

    P, delta_factors = inv.P, inv.factor_reps()
    unmatched = list(range(len(data)))
    matched: dict[int, int] = {}
    targets = {tuple(sorted((l for l, _ in d), reverse=True)) for d in data}
    for p in good_primes(s0, s0.margin, prime_bound):
        if not unmatched:
            break
        try:
            datum = frobenius_class(P, delta_factors, p, targets)
        except RamifiedPrimeError:  # pragma: no cover
            continue
        if datum is None:
            continue
        for i in list(unmatched):
            if data[i] == datum:
                matched[i] = p
                unmatched.remove(i)
                break
    if unmatched:
        raise NoWitnessError(
            f"no prime below {prime_bound} realizes condition {data[unmatched[0]]}"
        )

    residues = []
    moduli = []
    for i in range(len(data)):
        v = matched[i]
        b_v = _local_b(P, v)
        residues.append(b_v)
        moduli.append(v * v)
    b = Fraction(_crt(residues, moduli))
    primes = tuple(matched[i] for i in range(len(data)))
    vals = tuple(val_unit(P(b), v)[0] for v in primes)
    witness = BTWitness(b, primes, tuple(data), vals)
    if not witness.verify(inv, s0):
        raise RuntimeError("witness failed exact re-verification")  # pragma: no cover
    return witness


def _local_b(P: RatPoly, p: int) -> int:
    """b mod p^2 with val_p(P(b)) = 1: lift the smallest simple root theta
    of P mod p and take b = theta + p."""
    roots = fp_roots(fp_reduce(P, p), p)
    if not roots:
        raise ArithmeticError("matched prime has no root; class was inadmissible?")
    theta = lift_roots(P, roots[:1], p, p * p)[0]
    return (theta + p) % (p * p)


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    total = 1
    for m in moduli:
        total *= m
    acc = 0
    for r, m in zip(residues, moduli):
        other = total // m
        acc += r * other * pow(other, -1, m)
    return acc % total
