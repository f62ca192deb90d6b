#!/usr/bin/env python3
"""Derive and prove the F20 resolvent table of `quadpencil.galois`.

For a depressed quintic z^5 + b2 z^3 + b3 z^2 + b4 z + b5 with roots
z1..z5, the resolvent R(y) = prod_j (y - theta_j) over the six conjugates
of the order-20 invariant (`THETA_REPS`) is
y^6 + sum_k c_k y^(6-k), where c_k is an integer polynomial in b2..b5,
weighted-homogeneous of weight 4k (b_i has weight i).

Derivation: every c_k is fitted by exact interpolation on quintics with
integer roots, where each theta_j is an exact integer.

Proof: with z5 = -(z1 + ... + z4), both sides of each identity are
polynomials in z1..z4 of total degree <= 24, so agreeing on the grid S^4
with |S| = 25 makes them equal (a nonzero polynomial of degree < |S| in
each variable has a non-root in S^4).  The script checks all 25^4 points.
It also proves symbolically the shift rule `resolvent_sextic` uses to map
the depressed resolvent back:
theta(x + c) = theta(x) + 10c^4 + 8c^3 e1 + 2c^2 e1^2 + c^2 e2 + c e1 e2 - c e3
for every conjugate, e_k the elementary symmetric functions of the roots.

Prints the table in the literal form committed in galois.py and exits 1
when the committed table differs.  Run from the repository root:

    PYTHONPATH=src python3 scripts/f20_table.py      # about a minute
"""

import itertools
import random
import sys
import time
from fractions import Fraction

import sympy

from quadpencil import galois

WEIGHTS = (2, 3, 4, 5)
GRID = 25  # one more than the degree 24 of c6 in the roots


def coset_theta_patterns():
    """Six permutations giving the distinct conjugates of the order-20 invariant."""
    seen = {}
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


THETA_REPS = coset_theta_patterns()


def theta_value(roots, perm):
    """The conjugate of the order-20 invariant that perm picks, at the roots."""
    x = [roots[perm[i]] for i in range(5)]
    acc = 0
    for i in range(5):
        acc += x[i] ** 2 * (x[(i + 1) % 5] * x[(i + 4) % 5] + x[(i + 2) % 5] * x[(i + 3) % 5])
    return acc


def monomials(weight):
    """Exponents (e2, e3, e4, e5) with 2e2 + 3e3 + 4e4 + 5e5 == weight, descending."""
    out = []
    for e in itertools.product(*(range(weight // w + 1) for w in WEIGHTS)):
        if sum(w * k for w, k in zip(WEIGHTS, e)) == weight:
            out.append(e)
    return sorted(out, reverse=True)


def depressed_coeffs(roots):
    """(b2, b3, b4, b5) of prod (z - r) for roots summing to zero."""
    poly = [1]  # high to low
    for r in roots:
        poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
    assert poly[1] == 0
    return tuple(poly[2:])


def resolvent_from_roots(roots):
    """(c1, ..., c6) of prod_j (y - theta_j), exactly from the roots."""
    poly = [1]
    for perm in THETA_REPS:
        th = theta_value(roots, perm)
        poly = [a - th * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly[1:])


def evaluate(row, b):
    b2, b3, b4, b5 = b
    return sum(c * b2**e2 * b3**e3 * b4**e4 * b5**e5 for c, e2, e3, e4, e5 in row)


def solve_exact(rows, rhs):
    """The unique solution of an overdetermined, consistent rational system."""
    n = len(rows[0])
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            raise ArithmeticError(f"samples do not determine monomial {col}")
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[rank])]
        rank += 1
    if any(row[n] for row in a[rank:]):
        raise ArithmeticError("samples are inconsistent with a polynomial of this weight")
    return [a[i][n] for i in range(n)]


def derive_table(rng):
    mons = {k: monomials(4 * k) for k in range(1, 7)}
    count = max(len(m) for m in mons.values()) + 20
    samples = []
    while len(samples) < count:
        roots = [rng.randrange(-40, 41) for _ in range(4)]
        roots.append(-sum(roots))
        samples.append((depressed_coeffs(roots), resolvent_from_roots(roots)))
    table = []
    for k in range(1, 7):
        rows = [[b[0] ** e2 * b[1] ** e3 * b[2] ** e4 * b[3] ** e5 for e2, e3, e4, e5 in mons[k]]
                for b, _ in samples]
        coeffs = solve_exact(rows, [c[k - 1] for _, c in samples])
        if any(c.denominator != 1 for c in coeffs):
            raise ArithmeticError(f"c{k} has a non-integral coefficient")
        table.append(tuple((int(c),) + e for c, e in zip(coeffs, mons[k]) if c))
    return tuple(table)


def prove_on_grid(table):
    """Check every identity at all z1..z4 in S^4, z5 = -sum, |S| = GRID."""
    grid = range(-(GRID // 2), GRID - GRID // 2)
    for z in itertools.product(grid, repeat=4):
        roots = list(z) + [-sum(z)]
        b = depressed_coeffs(roots)
        want = resolvent_from_roots(roots)
        if tuple(evaluate(row, b) for row in table) != want:
            raise AssertionError(f"table fails at roots {roots}")


def prove_shift_rule():
    xs = sympy.symbols("x1:6")
    c = sympy.Symbol("c")
    e1 = sum(xs)
    e2 = sum(u * v for u, v in itertools.combinations(xs, 2))
    e3 = sum(u * v * w for u, v, w in itertools.combinations(xs, 3))
    corr = 10 * c**4 + 8 * c**3 * e1 + 2 * c**2 * e1**2 + c**2 * e2 + c * e1 * e2 - c * e3
    shifted = [x + c for x in xs]
    for perm in THETA_REPS:
        diff = theta_value(shifted, perm) - theta_value(xs, perm) - corr
        if sympy.expand(diff) != 0:
            raise AssertionError(f"shift rule fails for conjugate {perm}")


def table_literal(table):
    lines = ["_F20_TABLE = ("]
    for k, row in enumerate(table, start=1):
        count = f"{len(row)} of {len(monomials(4 * k))} monomials"
        lines.append(f"    (  # c{k}: weight {4 * k}, {count}")
        lines.extend(f"        {term}," for term in row)
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def main():
    t0 = time.time()
    table = derive_table(random.Random(0))
    literal = table_literal(table)
    print(literal)
    print(f"terms per c_k: {[len(row) for row in table]} of "
          f"{[len(monomials(4 * k)) for k in range(1, 7)]} monomials")
    prove_shift_rule()
    print("shift rule: proved for all six conjugates")
    prove_on_grid(table)
    print(f"grid: all {GRID ** 4} points of {GRID}^4 agree, so the table is proved; "
          f"{time.time() - t0:.1f} s")

    with open(galois.__file__) as fh:
        source = fh.read()
    if table != galois._F20_TABLE or literal not in source:
        print("galois._F20_TABLE differs from the derived table", file=sys.stderr)
        return 1
    print("galois._F20_TABLE: matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
