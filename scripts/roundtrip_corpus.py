#!/usr/bin/env python3
"""Round-trip experiment: canonical quadrics -> pencil invariants -> compare,
over random split and irreducible quintics."""

import argparse
import random
import time

import sympy

from quadpencil.canon import roundtrip_invariants
from quadpencil.exact import RatPoly, discriminant, strip_square_content


def squarefree_part(n: int) -> int:
    """Squarefree kernel of a nonzero integer (sign preserved)."""
    out = -1 if n < 0 else 1
    for q, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= int(q)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ok = 0
    t0 = time.time()
    done = 0
    while done < args.count:
        if done % 2 == 0:
            roots = rng.sample(range(-6, 10), 5)
            P = RatPoly.from_roots(roots)
            # last entry balances the product so the norm is a square, as a
            # legitimate class must have
            pattern = [rng.choice([1, 1, 2, 3, 5]) for _ in range(4)]
            pattern.append(pattern[0] * pattern[1] * pattern[2] * pattern[3])
            delta = [RatPoly.const(x) for x in pattern]
        else:
            P = RatPoly.of([rng.randrange(-9, 10) for _ in range(5)] + [1])
            if discriminant(P) == 0:
                continue
            c = squarefree_part(int(discriminant(P) * P.den ** 10))
            delta = strip_square_content(P.derivative() * c)
        done += 1
        rep = roundtrip_invariants(P, delta)
        status = "ok" if rep.ok else f"FAIL {rep.failures()}"
        print(f"[{done:3}] P = {P}: {status}")
        ok += rep.ok
    print(f"\n{ok}/{args.count} round trips in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
