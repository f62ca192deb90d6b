"""Self-test of the benchmark (`run.py --smoke`).

1. BENCHMARK.json names exactly the metrics the code reports, with the
   same units.
2. Short runs of each gated workload print every metric with its unit, and
   the result line holds exactly the listed metrics as finite numbers;
   traced counts are per op (one or two CLI calls per op).
3. Tampered outputs are counted as failed: a wrong witness b, a wrong
   witness prime, a wrong Galois label, a wrong factor, a wrong
   double-cover form, a simulator report hiding failures, a wrong lemma
   row and a witness point that is not a zero.  The untampered outputs
   pass.
4. After the runs, the program's modules and sympy in sys.modules are the
   ones the runs used: the repeated imports of setup_s put them back.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import corpus
import tracer as tr


def _load_spec(run_mod):
    with open(os.path.join(run_mod.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _deadlines(run_mod, spec):
    cmd = spec["command"]
    return run_mod.parse_deadlines(cmd[cmd.index("--deadlines") + 1])


def _benchmark_json_problems(run_mod, spec) -> list[str]:
    problems = []
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if e2e != list(run_mod.END_TO_END):
        problems.append(f"end_to_end in BENCHMARK.json {e2e} != reported {list(run_mod.END_TO_END)}")
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layer != run_mod.per_layer_metrics():
        problems.append("per_layer in BENCHMARK.json differs from the traced metrics")
    deadlines = _deadlines(run_mod, spec)
    for w in spec["workloads"]:
        if w["name"] not in deadlines:
            problems.append(f"no deadline for workload {w['name']}")
    return problems


def _run_problems(run_mod, lib, import_s, deadlines, workload, trace) -> list[str]:
    lines: list[str] = []
    args = SimpleNamespace(workload=workload, seed=7, seconds=3.0, trace=trace)
    result = run_mod.run(args, lib, import_s, deadlines, emit=lines.append)
    expected = run_mod.per_layer_metrics() if trace else list(run_mod.END_TO_END)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if [(k, v["unit"]) for k, v in result["metrics"].items()] != expected:
        problems.append(f"{workload} trace {trace}: metric names or units differ")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{k} = {v['value']!r}")
    text = "\n".join(lines)
    for name, unit in expected:
        if not any(name in line and unit in line for line in lines):
            problems.append(f"{workload}: {name} not printed with unit {unit}")
    if trace:
        calls = result["metrics"]["cli.main.calls"]["value"]
        if not 1 <= calls <= 2:
            problems.append(f"{workload}: cli.main.calls = {calls}, not one or two per op")
    else:
        for name in ("wall_s", "fail_ratio", "undecided_ratio", "deadline_misses",
                     "analyze_tail_ms"):
            if name not in text:
                problems.append(f"{workload}: {name} not printed")
        if workload == "models" and text.count("  probe ") != 4:
            problems.append("models: the four known-defect probes are not all reported")
    if result["attempted"] < 1 or not result["correct"]:
        problems.append(f"{workload} trace {trace}: attempted {result['attempted']}, "
                        f"correct {result['correct']}")
    return problems


def _tamper_problems(run_mod, lib, deadline) -> list[str]:
    """Run a few models ops for real, then re-judge tampered copies of their
    outputs through the same record path the benchmark uses."""
    workdir = os.path.join(run_mod.WORK, f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        wl = corpus.make_workload("models", 0, workdir, lib)
        ops = {op.label: op for op in wl.fixed}
        runner = run_mod.Runner(lib, deadline)

        def outputs(label):
            op = ops[label]
            res = runner._cli(op.steps[0])
            rec, _ = _replay(runner, op, res)
            if rec["status"] == "failed":
                problems.append(f"untampered {label} failed: {rec['problems']}")
            return op, res

        def expect_failed(op, res, how):
            rec, _ = _replay(runner, op, res)
            if rec["status"] != "failed" or rec["failure"] != "check":
                problems.append(f"tampered output not counted as failed: {how}")

        def tampered(res, edit):
            code, out, err = res
            rep = json.loads(out)
            edit(rep)
            return code, json.dumps(rep), err

        op, res = outputs("readme search t^5-2")
        expect_failed(op, tampered(res, lambda r: r.update(b=_shift(r["b"], 1))), "witness b + 1")
        expect_failed(op, tampered(res, lambda r: r.update(primes=[r["primes"][0] + 2])),
                      "witness prime + 2")
        op, res = outputs("readme search d10")
        expect_failed(op, tampered(res, lambda r: r.update(primes=list(reversed(r["primes"])))),
                      "witness primes swapped between conditions")
        op, res = outputs("readme analyze pencil.json")

        def relabel(r):
            r["galois"]["label"] = "S5"
        expect_failed(op, tampered(res, relabel), "Galois label F20 -> S5")

        def refactor(r):
            r["factors"][0][0] = "-3/1"
        expect_failed(op, tampered(res, refactor), "factor changed")
        op, res = outputs("readme kummer split")

        def regram(r):
            r["gram3"][0][0] = _shift(r["gram3"][0][0], 1)
        expect_failed(op, tampered(res, regram), "double-cover form changed")
        op, res = outputs("readme simulate --systems 200 --dims 4,4,4")

        def hide(r):
            r["duality"]["failures"] = 1
        expect_failed(op, tampered(res, hide), "simulator failure")
        op, res = outputs("readme verify-lemmas")

        def lemma(r):
            r["rows"][0]["end_degree"] += 1
        expect_failed(op, tampered(res, lemma), "lemma table row")
        op, res = outputs("readme local")

        def point(r):
            for c in r["certificates"]:
                if c["place"] != "real" and c["verdict"] == "soluble":
                    w = c["witness"]
                    key = "point_mod_p" if "point_mod_p" in w else "point_mod_pk"
                    w[key] = [v + 1 for v in w[key]]
        expect_failed(op, tampered(res, point), "p-adic witness point")
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def _shift(rat_str, k):
    from fractions import Fraction

    x = Fraction(rat_str) + k
    return f"{x.numerator}/{x.denominator}"


def _replay(runner, op, res):
    """Judge a recorded output through Runner.execute, as a timed op."""
    fake = corpus.Op(op.label, op.verb, [lambda: res], op.judge, op.malformed)
    return runner.execute(fake, traced=False)


def main(lib, import_s, run_mod) -> int:
    """run_mod is the benchmark's main module (run.py)."""
    tr.install_deadline_handler()
    spec = _load_spec(run_mod)
    deadlines = _deadlines(run_mod, spec)
    problems = _benchmark_json_problems(run_mod, spec)
    problems += _tamper_problems(run_mod, lib, deadlines["models"])
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += _run_problems(run_mod, lib, import_s, deadlines, w["name"], trace)
    # the repeated imports of setup_s must leave the run's modules in place
    if sys.modules.get("quadpencil.cli") is not lib.cli or \
            sys.modules.get("sympy") is not lib.cli.sympy:
        problems.append("the set-up samples did not put the run's modules back")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0

