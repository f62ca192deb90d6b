"""Smoke tests: each experiment script runs at its smallest arguments."""

import os
import pathlib
import subprocess
import sys

import pytest

import quadpencil

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(quadpencil.__file__).resolve().parent.parent


# f20_table.py is left out: it takes about 40 s and proves its own table.
@pytest.mark.parametrize(
    "script,args",
    [
        ("descent_stats.py", ["--systems", "5"]),
        ("height_ladder.py", ["--max-exponent", "0"]),
        ("roundtrip_corpus.py", ["--count", "2"]),
        ("split_local.py", ["--count", "1", "--places", "2"]),
        ("witness_hunt.py", ["--scan", "200"]),
    ],
    ids=["descent_stats", "height_ladder", "roundtrip_corpus", "split_local", "witness_hunt"],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
