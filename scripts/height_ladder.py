#!/usr/bin/env python3
"""Cost of `analyze` as the entries of a pencil grow.

The integer rungs run the in-process `--json analyze` on
phi1 = diag(c, -1, 2, -3, 5), phi2 = diag(1, 2, 3, 4, 5) for c = 7 and
c = 10^e, e = 100, 200, 400, ... up to --max-exponent, and print for each c
the wall time, the exit code and the number of Sturm sign-variation counts
the real place made (`localarith._sturm_var`).  One of the singular members
is at t = c, so the real place must find a root of height c.

The rational rungs then analyze, for each k in 3, 10, 30 up to
--max-exponent, the smooth pencil drawn from random.Random(30) whose entries
are n/d with |n|, d <= 10^k (`rational_pencil`), and print its wall time,
exit code and p-adic verdicts.  Clearing those denominators gives integer
forms of thousands of bits, which the p-adic places must not pay for.

    PYTHONPATH=src python3 scripts/height_ladder.py --max-exponent 400
"""

import argparse
import contextlib
import io
import json
import pathlib
import random
import tempfile
import time
from fractions import Fraction

from quadpencil import cli, localarith
from quadpencil.pencil import Pencil, SingularPencilError, matrix_of, pencil_dumps

RATIONAL_EXPONENTS = (3, 10, 30)


def diag(*entries):
    return matrix_of([[entries[i] if i == j else 0 for j in range(5)] for i in range(5)])


def rational_pencil(k: int) -> Pencil:
    """The first smooth pencil drawn from random.Random(30) whose symmetric
    entries are n/d with |n|, d <= 10^k."""
    rng = random.Random(30)
    bound = 10**k
    while True:
        mats = []
        for _ in range(2):
            m = [[0] * 5 for _ in range(5)]
            for i in range(5):
                for j in range(i, 5):
                    m[i][j] = m[j][i] = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            mats.append(matrix_of(m))
        pen = Pencil(*mats)
        try:
            pen.smoothness_certificate
        except SingularPencilError:
            continue
        return pen


def analyze(path: pathlib.Path, pen: Pencil) -> tuple[float, int, dict]:
    """Wall time, exit code and report of the in-process `--json analyze`."""
    path.write_text(pencil_dumps(pen))
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", "analyze", str(path)])
    elapsed = time.perf_counter() - t0
    return elapsed, code, json.loads(out.getvalue()) if out.getvalue() else {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-exponent", type=int, default=400)
    args = ap.parse_args()

    heights = [("7", 7)]
    e = 100
    while e <= args.max_exponent:
        heights.append((f"10^{e}", 10**e))
        e *= 2

    sturm_var = localarith._sturm_var
    calls = 0

    def counting(*a):
        nonlocal calls
        calls += 1
        return sturm_var(*a)

    localarith._sturm_var = counting
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "pencil.json"
            for label, c in heights:
                calls = 0
                elapsed, code, _ = analyze(path, Pencil(diag(c, -1, 2, -3, 5), diag(1, 2, 3, 4, 5)))
                print(f"c = {label}: analyze {elapsed:.3f} s, exit {code}, {calls} Sturm counts")
            for k in [k for k in RATIONAL_EXPONENTS if k <= args.max_exponent]:
                elapsed, code, report = analyze(path, rational_pencil(k))
                verdicts = " ".join(f"{c['place']}:{c['verdict']}"
                                    for c in report.get("local_certificates", []) if c["place"] != "real")
                print(f"n/d <= 10^{k}: analyze {elapsed:.3f} s, exit {code}, p-adic {verdicts or 'none'}")
    finally:
        localarith._sturm_var = sturm_var


if __name__ == "__main__":
    main()
