#!/usr/bin/env python3
"""Frobenius class census and (b, T) witness hunt on a dihedral quintic.

Scans good primes for P = t^5 - 5t + 12 with the derivative square class,
tabulates the signed class data, and produces witnesses for the two-prime
pattern (residue nonzero at w1, zero at w2)."""

import argparse
from collections import Counter

from quadpencil.exact import RatPoly, good_primes, strip_square_content
from quadpencil.galois import RamifiedPrimeError, frobenius_class
from quadpencil.localarith import (
    DT_RES_NONZERO,
    DT_RES_ZERO,
    bad_set_s0,
    find_bT,
)
from quadpencil.pencil import DeltaInvariant


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--poly", default="12,-5,0,0,0,1", help="coefficients low to high")
    ap.add_argument("--scan", type=int, default=3000)
    ap.add_argument("--prime-bound", type=int, default=100_000)
    args = ap.parse_args()

    P = RatPoly.of([int(c) for c in args.poly.split(",")])
    delta = strip_square_content(P.derivative())
    inv = DeltaInvariant(P, (P,), (delta,))
    s0 = bad_set_s0(inv)

    counts = Counter()
    first = {}
    for p in good_primes(s0, 101, args.scan):
        try:
            d = frobenius_class(P, inv.factor_reps(), p)
        except RamifiedPrimeError:
            continue
        counts[d] += 1
        first.setdefault(d, p)

    print(f"P = {P}, delta' = {delta}")
    print(f"classes among good primes below {args.scan}:")
    for d, c in sorted(counts.items()):
        print(f"  {d}: {c} primes, first at {first[d]}")

    wit = find_bT(inv, [DT_RES_NONZERO, DT_RES_ZERO], s0, prime_bound=args.prime_bound)
    print(f"\nwitness: b = {wit.b}, T = {list(wit.primes)}")
    print(f"valuations of P(b) at T: {list(wit.valuations)}")


if __name__ == "__main__":
    main()
