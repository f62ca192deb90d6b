#!/usr/bin/env python3
"""Cost of `analyze` as one entry of a pencil grows.

Runs the in-process `--json analyze` on phi1 = diag(c, -1, 2, -3, 5),
phi2 = diag(1, 2, 3, 4, 5) for c = 7 and c = 10^e, e = 100, 200, 400, ...
up to --max-exponent, and prints for each c the wall time, the exit code
and the number of Sturm sign-variation counts the real place made
(`localarith._sturm_var`).  One of the singular members is at t = c, so
the real place must find a root of height c.

    PYTHONPATH=src python3 scripts/height_ladder.py --max-exponent 400
"""

import argparse
import contextlib
import io
import pathlib
import tempfile
import time

from quadpencil import cli, localarith
from quadpencil.pencil import Pencil, matrix_of, pencil_dumps


def diag(*entries):
    return matrix_of([[entries[i] if i == j else 0 for j in range(5)] for i in range(5)])


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
                path.write_text(pencil_dumps(Pencil(diag(c, -1, 2, -3, 5), diag(1, 2, 3, 4, 5))))
                calls = 0
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["--json", "analyze", str(path)])
                elapsed = time.perf_counter() - t0
                print(f"c = {label}: analyze {elapsed:.3f} s, exit {code}, {calls} Sturm counts")
    finally:
        localarith._sturm_var = sturm_var


if __name__ == "__main__":
    main()
