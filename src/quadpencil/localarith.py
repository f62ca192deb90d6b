"""Local computations: the bad set, real and p-adic solubility, and the
witness search for admissible local conditions.

Real solubility of a smooth pencil is decided exactly: the base locus has
real points iff no member of the real pencil is definite, and definiteness
is constant between consecutive real singular parameters, so Sylvester's
criterion (the signs of the integer leading principal minors) at one
rational sample per interval decides.
p-adic solubility is a tree search over residue candidates with a
multivariate Hensel criterion; "unknown" is a first-class verdict and no
verdict is ever guessed.

The bad set S0 is 2, every prime below the margin, and the prime divisors
of disc(P), the denominators of P and delta, the resultants Res(P_i, d_i)
and the contents of the d_i.  `bad_set_s0` only collects those integers;
"is p bad?" is a division test, so nothing on the analyze, local or search
path factors an integer.

The (b, T) search walks the good primes above the margin, matches signed
Frobenius classes, and builds b by lifting a simple root theta to b with
val(b - theta) = 1 at every matched prime, glued by CRT and re-verified
exactly before returning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import (
    REAL_PLACE,
    BadSet,
    LocalPlace,
    RatPoly,
    cycle_type,
    discriminant,
    fp_eval,
    fp_reduce,
    good_primes,
    int_det,
    lift_root,
    prime_place,
    resultant,
    val_unit,
)
from .galois import RamifiedPrimeError, frobenius_class
from .groupmod import WreathElement, is_admissible
from .pencil import (
    Matrix,
    Pencil,
    definite_sign,
    mat_combine,
    rat_str,
)

# ---------------------------------------------------------------------------
# Bad places


def bad_set_s0(
    P: RatPoly,
    delta_factors: Sequence[tuple[RatPoly, RatPoly]] = (),
    margin: int = 100,
) -> BadSet:
    """Primes where anything can go wrong: 2, divisors of disc(P),
    denominators of P, primes where delta ramifies, and every prime below
    the margin (the fixed enlargement guaranteeing enough points on special
    fibres is modeled by a constant cutoff).  Only the integers are
    collected; membership is tested by division."""
    disc = discriminant(P)
    integers = [disc.numerator, disc.denominator, P.denominator_lcm()]
    for f, d in delta_factors:
        res = resultant(f, d)
        integers += [d.denominator_lcm(), res.numerator, res.denominator]
        content = math.gcd(*(c.numerator for c in d.coeffs))
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
    of the last two, negated when lc(b)^e > 0 and divided by its content."""
    den = f.denominator_lcm()
    a = _primitive([int(c * den) for c in f.coeffs])
    chain = [a, _primitive([i * c for i, c in enumerate(a)][1:])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r, lb = a[:], b[-1]
        for _ in range(len(a) - len(b) + 1):
            c = r.pop()
            k = len(r) - len(b) + 1
            r = [lb * x for x in r]
            for i, bi in enumerate(b[:-1]):
                r[k + i] -= c * bi
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        if lb > 0 or (len(a) - len(b)) % 2:
            r = [-x for x in r]
        chain.append(_primitive(r))
    return chain


def _sturm_var(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes of the chain at x = n/d, d > 0: the sign of g(x) is the
    sign of the integer sum of g_i n^i d^(deg g - i)."""
    n, d = x.numerator, x.denominator
    signs = []
    for g in chain:
        v, dk = g[-1], d
        for c in reversed(g[:-1]):
            v = v * n + c * dk
            dk *= d
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree_chain(f: RatPoly) -> tuple[RatPoly, list[list[int]]]:
    """The squarefree part of f and its Sturm chain.  The last element of the
    chain of f is gcd(f, f'); a multiple root on a bisection point would
    stall the bisection, so when it is not constant f is divided by it."""
    chain = _sturm_chain(f)
    return (f, chain) if len(chain[-1]) == 1 else _squarefree_chain(f // RatPoly.of(chain[-1]))


def isolate_real_roots(f: RatPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (a, b], one distinct real root each, separated by
    nonempty gaps; f may have multiple roots."""
    if f.degree < 1:
        return []
    f, chain = _squarefree_chain(f)
    bound = Fraction(1) + max(abs(c / f.lc) for c in f.coeffs)

    def count(a, b):
        return _sturm_var(chain, a) - _sturm_var(chain, b)

    work = [(-bound, bound)]
    done: list[tuple[Fraction, Fraction]] = []
    while work:
        a, b = work.pop()
        n = count(a, b)
        if n == 0:
            continue
        if n == 1:
            done.append((a, b))
            continue
        mid = (a + b) / 2
        work.append((a, mid))
        work.append((mid, b))
    done.sort()
    # shrink until consecutive intervals have a strict gap
    changed = True
    while changed:
        changed = False
        for i in range(len(done) - 1):
            if done[i][1] >= done[i + 1][0]:
                a, b = done[i + 1]
                mid = (a + b) / 2
                done[i + 1] = (a, mid) if count(a, mid) == 1 else (mid, b)
                a0, b0 = done[i]
                mid0 = (a0 + b0) / 2
                done[i] = (a0, mid0) if count(a0, mid0) == 1 else (mid0, b0)
                changed = True
    return done


def real_soluble(pencil: Pencil) -> LocalCertificate:
    """Insoluble iff some real member of the pencil is definite; decided by
    Sylvester's criterion at one member per arc between consecutive real
    singular members.  The witness is that proof: the definite member, or
    every sampled member in the order tested, each indefinite.  Raises
    SingularPencilError unless the pencil is smooth."""
    q = pencil.smoothness_certificate
    intervals = isolate_real_roots(q)
    # With no real root, q has degree 4 and its one real singular member is
    # at infinity, so t = 0 lies on the only arc.  Otherwise lo and hi share
    # the arc through infinity.
    samples = [Fraction(0)]
    if intervals:
        samples = [intervals[0][0] - 1, intervals[-1][1] + 1]
        samples += [(b1 + a2) / 2 for (_, b1), (a2, _) in zip(intervals, intervals[1:])]
    for t0 in samples:
        sign = definite_sign(mat_combine(pencil.phi1, pencil.phi2, Fraction(1), -t0))
        if sign:
            return LocalCertificate(
                REAL_PLACE,
                "insoluble",
                witness={
                    "definite_member_at": rat_str(t0),
                    "signature": [5, 0] if sign > 0 else [0, 5],
                },
                reason="definite member in the pencil",
            )
    return LocalCertificate(
        REAL_PLACE,
        "soluble",
        witness={"indefinite_members_at": [rat_str(t0) for t0 in samples]},
        reason="no definite member on the real pencil line",
    )


# ---------------------------------------------------------------------------
# p-adic solubility


def _integral_forms(model: Sequence[Matrix], p: int) -> list[list[list[int]]]:
    out = []
    for m in model:
        den = math.lcm(*(x.denominator for row in m for x in row))
        ints = [[int(x * den) for x in row] for row in m]
        content = 0
        for row in ints:
            for v in row:
                content = math.gcd(content, v)
        if content == 0:
            raise ValueError("zero form in the model")
        while all(v % p == 0 for row in ints for v in row):
            ints = [[v // p for v in row] for row in ints]
        out.append(ints)
    return out


# Chart chunk sizes: the scan starts small, so that a chart with a smooth
# zero near its start is decided after a few hundred points, and doubles up
# to a cap that bounds the memory of one chunk.
_FIRST_CHUNK = 64
_MAX_CHUNK = 200_000


def _chart_points(n: int, k: int, p: int):
    """Projective chart: x_k = 1, x_j = 0 for j < k, x_j free for j > k.

    The points come in a fixed order (x_{k+1} fastest), in chunks of 64,
    128, ... rows up to 200,000, so a caller that stops at its first hit
    evaluates little more than the points before it."""
    free = n - 1 - k
    base = _unit_row(n, k)
    total = p**free
    start, chunk = 0, _FIRST_CHUNK
    while start < total:
        cnt = min(chunk, total - start)
        idx = np.arange(start, start + cnt, dtype=np.int64)
        pts = np.tile(base, (cnt, 1))
        for j in range(free):
            pts[:, k + 1 + j] = (idx // (p**j)) % p
        yield pts
        start += cnt
        chunk = min(2 * chunk, _MAX_CHUNK)


def _unit_row(n: int, k: int) -> np.ndarray:
    row = np.zeros(n, dtype=np.int64)
    row[k] = 1
    return row


def _eval_forms(forms: np.ndarray, pts: np.ndarray, p: int) -> np.ndarray:
    """Values mod p of the forms (m, n, n) at the points (N, n), as (m, N);
    both are reduced mod p, so the int64 sums of at most n^2 products of
    three residues cannot overflow."""
    return ((pts @ forms) * pts).sum(axis=2) % p


def _jacobian(forms_int, x: Sequence[int]) -> list[list[int]]:
    """Rows of the Jacobian of the forms at x, as integers."""
    n = len(x)
    return [[2 * sum(a[i][j] * x[j] for j in range(n)) for i in range(n)] for a in forms_int]


def _form_values(forms_int, x: Sequence[int]) -> list[int]:
    n = len(x)
    return [sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n)) for a in forms_int]


def _jacobian_rank(forms_int, x: Sequence[int], p: int) -> int:
    return len(_reduce_mod_p(_jacobian(forms_int, x), len(x), p))


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


def _minor_valuation(forms_int, x: Sequence[int], p: int, cap: int) -> int:
    """Min p-valuation of a maximal minor of the Jacobian at x (cap = gave up)."""
    n = len(x)
    m = len(forms_int)
    rows = _jacobian(forms_int, x)
    best = cap
    for cols in itertools.combinations(range(n), m):
        sub = [[rows[r][c] for c in cols] for r in range(m)]
        d = int_det(sub)
        if d:
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            best = min(best, v)
    return best


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

    Level 1 scans P^n(F_p) chart by chart in a fixed order and stops at the
    first smooth common zero, which Hensel-lifts (soluble) and is the
    witness; only a scan without one visits every point.  No common zero at
    all is a proof of insolubility.  Singular zeros, collected in scan
    order, branch into the linearized congruence mod p^2, p^3, ... up to
    `effort` levels; a candidate with all values = 0 mod p^k and a Jacobian
    minor of valuation e with 2e < k is again Hensel-liftable.  Budget
    exhaustion returns "unknown", never a guessed verdict.
    """
    place = prime_place(p)
    if effort <= 0:
        return LocalCertificate(place, "unknown", reason="effort exhausted")
    forms_int = _integral_forms(model, p)
    m = len(forms_int)
    n = len(forms_int[0])
    if p**(n - 1) > 60_000_000:
        return LocalCertificate(place, "unknown", reason="residue space too large")
    # reduced before the cast: unreduced entries can exceed int64
    forms_np = np.array([[[v % p for v in row] for row in a] for a in forms_int], dtype=np.int64)

    singular: list[tuple[int, ...]] = []
    any_solution = False
    for k in range(n):
        for pts in _chart_points(n, k, p):
            vals = _eval_forms(forms_np, pts, p)
            mask = np.all(vals == 0, axis=0)
            if not mask.any():
                continue
            any_solution = True
            for x in pts[mask]:
                xt = tuple(int(v) for v in x)
                if _jacobian_rank(forms_int, xt, p) == m:
                    return LocalCertificate(
                        place,
                        "soluble",
                        witness={"point_mod_p": list(xt), "level": 1, "minor_valuation": 0},
                        reason="smooth point on the reduction",
                    )
                singular.append(xt)
    if not any_solution:
        return LocalCertificate(
            place,
            "insoluble",
            witness={"scan": f"all of P^{n-1}(F_{p})"},
            reason="reduction has no points at all",
        )

    # refine singular candidates level by level
    node_cap = 4000 * effort
    frontier = [(x, p) for x in singular]  # (candidate ints, modulus p^level)
    nodes = 0
    any_truncated = False
    for level in range(2, effort + 1):
        new_frontier = []
        for x, mod in frontier:
            nodes += 1
            if nodes > node_cap:
                return LocalCertificate(place, "unknown", reason="node budget exhausted")
            fvals = _form_values(forms_int, x)
            assert all(v % mod == 0 for v in fvals)
            target = [(-v // mod) % p for v in fvals]
            sols, truncated = _solve_linear_mod_p(_jacobian(forms_int, x), target, p, cap=p**2 * 8)
            any_truncated = any_truncated or truncated
            for y in sols:
                x2 = tuple((x[i] + mod * y[i]) % (mod * p) for i in range(n))
                if any(v % (mod * p) for v in _form_values(forms_int, x2)):
                    continue
                e = _minor_valuation(forms_int, x2, p, cap=level)
                if 2 * e < level:
                    return LocalCertificate(
                        place,
                        "soluble",
                        witness={
                            "point_mod_pk": list(x2),
                            "level": level,
                            "minor_valuation": e,
                        },
                        reason="Hensel-liftable candidate",
                    )
                new_frontier.append((x2, mod * p))
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
    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class BTWitness:
    """b and ordered primes with val_{v_i}(P(b)) = 1 and prescribed classes."""

    b: Fraction
    primes: tuple[int, ...]
    class_data: tuple[ClassDatum, ...]
    valuations: tuple[int, ...]

    def verify(self, P: RatPoly, delta_factors, s0: BadSet) -> bool:
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
            if frobenius_class(P, delta_factors, p).class_datum() != datum:
                return False
        return True


def find_bT(
    P: RatPoly,
    delta_factors: Sequence[tuple[RatPoly, RatPoly]],
    conditions: Sequence,
    prime_bound: int = 100_000,
    margin: int = 100,
) -> BTWitness:
    """Search primes outside the bad set realizing the requested classes and
    assemble b by CRT so that val_{v_i}(P(b)) = 1 at each matched prime.

    Conditions are multisets of (cycle length, sign bit); inadmissible
    conditions (no fixed point on the 10-point cover) are rejected before
    scanning.  The returned witness is re-verified exactly.
    """
    data = [normalize_condition(c) for c in conditions]
    reps = [condition_representative(d) for d in data]
    adm = is_admissible(reps)
    for d, ok in zip(data, adm):
        if not ok:
            raise InadmissibleConditionError(f"condition {d} has no fixed point")
    s0 = bad_set_s0(P, delta_factors, margin)

    unmatched = list(range(len(data)))
    matched: dict[int, int] = {}
    targets = {tuple(sorted((l for l, _ in d), reverse=True)) for d in data}
    for p in good_primes(s0, margin, prime_bound):
        if not unmatched:
            break
        if cycle_type(P, p) not in targets:
            continue
        try:
            fr = frobenius_class(P, delta_factors, p)
        except RamifiedPrimeError:  # pragma: no cover
            continue
        datum = fr.class_datum()
        for i in list(unmatched):
            if data[i] == datum:
                matched[i] = p
                unmatched.remove(i)
                break
    if unmatched:
        raise NoWitnessError(
            f"no prime below {prime_bound} realizes condition {data[unmatched[0]]}",
            data[unmatched[0]],
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
    if not witness.verify(P, delta_factors, s0):
        raise RuntimeError("witness failed exact re-verification")  # pragma: no cover
    return witness


def _local_b(P: RatPoly, p: int) -> int:
    """b mod p^2 with val_p(P(b)) = 1: lift the smallest simple root theta
    of P mod p and take b = theta + p."""
    Pp = fp_reduce(P, p)
    root = next((r for r in range(p) if fp_eval(Pp, r, p) == 0), None)
    if root is None:
        raise ArithmeticError("matched prime has no root; class was inadmissible?")
    theta = lift_root(P, root, p, p * p)
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
