#!/usr/bin/env python3
"""Local solubility of random completely split pencils.

Draws seeded canonical pencils of quintics with five distinct integer
roots in [-12, 12] and per-factor delta classes of square norm, decides
each requested place with the diagonal model's ball tree
(`localarith.split_soluble`), and prints the decided share, the verdict
counts and the slowest place.

    PYTHONPATH=src python3 scripts/split_local.py --count 60 --places 2,3,5,7
"""

import argparse
import random
import time
from collections import Counter

from quadpencil import localarith, pencil
from quadpencil.canon import canonical_quadrics
from quadpencil.exact import RatPoly, factor_q


def random_split(rng: random.Random):
    """Roots and deltas; the last delta is the product of the others, so
    the norm is a square, as a class of the delta invariant must have."""
    roots = sorted(rng.sample(range(-12, 13), 5))
    deltas = [rng.choice([-3, -2, -1, 1, 1, 2, 3, 5, 6, 7]) for _ in range(4)]
    deltas.append(deltas[0] * deltas[1] * deltas[2] * deltas[3])
    return roots, deltas


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=60)
    ap.add_argument("--places", default="2,3,5,7")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    places = [int(p) for p in args.places.split(",")]

    rng = random.Random(args.seed)
    verdicts = Counter()
    slowest = (0.0, None)
    for _ in range(args.count):
        roots, deltas = random_split(rng)
        pen = canonical_quadrics(RatPoly.from_roots(roots), deltas).to_pencil()
        norm = pencil.normalize_pencil(pen)
        model = localarith.diagonal_model(norm, factor_q(norm.P))
        row = []
        for p in places:
            t0 = time.perf_counter()
            cert = localarith.split_soluble(model, p)
            elapsed = time.perf_counter() - t0
            verdicts[cert.verdict] += 1
            slowest = max(slowest, (elapsed, (p, roots, deltas)), key=lambda s: s[0])
            row.append(f"{p}:{cert.verdict}")
        print(f"roots {roots} deltas {deltas}: {' '.join(row)}")
    total = args.count * len(places)
    decided = verdicts["soluble"] + verdicts["insoluble"]
    print(f"places {total}, decided {decided} ({decided / total:.3f}): "
          f"{verdicts['soluble']} soluble, {verdicts['insoluble']} insoluble")
    if slowest[1] is not None:
        p, roots, deltas = slowest[1]
        print(f"slowest place: {1000 * slowest[0]:.1f} ms at p = {p}, roots {roots} deltas {deltas}")


if __name__ == "__main__":
    main()
