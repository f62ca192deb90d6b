#!/usr/bin/env python3
"""Seeded benchmark for quadpencil.

    python3 perfbench/run.py --deadlines analyze-h9=20,models=3 \\
        --workload analyze-h9 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke          # self-test, about a minute

Run from the root of a source checkout: the program is imported from
./src, in this one process.  Ops go through the public CLI entry
`quadpencil.cli.main([...])` (plus `canon.roundtrip_invariants` for the
round trip) one after another in a closed loop with one client, each under
a per-op deadline enforced with SIGALRM; no threads, no child processes.
sympy's result caches are cleared before every op, as in a fresh CLI call.
Latencies and set-up time are gated after rescaling to a reference machine
speed, measured by a fixed kernel sampled about once a second during the
run (see calibration.py); the raw values are printed next to them.

Probes (inputs on which the program is known to fail) run once per run
after the timed loop; their failures count in ok_ratio but not in the
result line's `failed`, which counts only timed ops the program got wrong
(deadline misses count in ok_ratio too).

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 every op runs twice, untraced and
traced in alternating order, and the JSON holds the per-layer metrics (per
op, over the complete passes) and the tracing overhead.  The lines before
it print every metric with its unit and sample count, the per-op
failures, the byte-determinism digest and static counts of the program's
sources.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibration  # noqa: E402  (standard library only)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Gated end-to-end metrics: (name, unit).  Names and units must match
# BENCHMARK.json; the smoke test checks that they do.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("analyze_p50_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


# Times the set-up steps are repeated after a run (see setup_samples).
SETUP_REPEATS = 7


def per_layer_metrics():
    """(name, unit) of every per-layer metric of a traced run."""
    from tracer import LAYERS, SELF_LAYERS, TARGETS

    out = []
    for key, *_ in TARGETS:
        out += [(f"{key}.calls", "calls/op"), (f"{key}.self_ms", "ms/op")]
    out += [(f"{layer}.self_ms", "ms/op") for layer in SELF_LAYERS]
    out += [
        ("galois.tschirnhausen_steps", "count/op"),
        ("exact.cycle_type.from_galois.calls", "calls/op"),
        ("exact.sqrt_in_etale.decided_ratio", "ratio"),
        ("localarith.padic_soluble.decided_ratio", "ratio"),
        ("localarith.find_bT.primes_scanned", "count/op"),
        ("localarith.find_bT.match_ratio", "ratio"),
    ]
    out += [(f"{layer}.deadline_misses", "count/op") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _cache_reset():
    """Clear sympy's process-wide result caches (its expression cache and,
    from sympy 1.14, the prime-factor cache), so that every op starts as a
    fresh CLI process would and no op reuses another op's factorizations."""
    import sympy
    from sympy.core.cache import clear_cache

    factor_cache = getattr(sympy, "factor_cache", None)

    def reset():
        clear_cache()
        if factor_cache is not None:
            factor_cache.cache_clear()
    return reset


PROGRAM_MODULES = ("canon", "cli", "exact", "galois", "localarith", "pencil")

# Top-level packages imported again for each set-up sample.  numpy is
# imported once: a C extension cannot be imported twice in one process.
REIMPORTED = ("quadpencil", "sympy", "mpmath")


def import_program():
    """Import the program's modules; returns (modules by name, seconds)."""
    t0 = time.perf_counter()
    mods = {name: importlib.import_module("quadpencil." + name) for name in PROGRAM_MODULES}
    return mods, time.perf_counter() - t0


def setup_samples(wl_args, n: int):
    """n more samples of the set-up steps a program change can move:
    (program import times, fixed input build times), each in seconds at the
    reference speed, from kernel samples taken just before and after it.

    Each import runs with quadpencil, sympy and mpmath dropped from
    sys.modules, and the dropped copies collected outside the timing
    (otherwise every other import pays for collecting its predecessors);
    the modules of the run are put back afterwards, so the process is left
    as it was.  Each build makes the workload's fixed inputs again, without
    the benchmark's own reference computations (Workload.checker_side).
    """
    import corpus

    def drop():
        for k in [k for k in sys.modules if k.partition(".")[0] in REIMPORTED]:
            del sys.modules[k]
        gc.collect()

    def import_s():
        drop()
        return import_program()[1]

    def build_s():
        t0 = time.perf_counter()
        wl = corpus.make_workload(*wl_args)
        return time.perf_counter() - t0 - wl.checker_s

    saved = {k: v for k, v in sys.modules.items() if k.partition(".")[0] in REIMPORTED}
    imports, builds = [], []
    try:
        for _ in range(n):
            imports.append(calibration.at_reference_speed(import_s))
    finally:
        drop()
        sys.modules.update(saved)
    for _ in range(n):
        builds.append(calibration.at_reference_speed(build_s))
    return imports, builds


def load_program():
    """Import the program from ./src; returns its modules or None."""
    if not os.path.isfile(os.path.join(SRC, "quadpencil", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (see REIMPORTED)

    mods, program_import_s = import_program()
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        return None
    with open(os.path.join(SRC, "quadpencil", "schema", "report.schema.json")) as fh:
        schema = json.load(fh)
    return SimpleNamespace(**mods, schema=schema, program_import_s=program_import_s,
                           reset_caches=_cache_reset())


# ---------------------------------------------------------------------------
# Running ops


class Runner:
    """Executes ops under the deadline, optionally traced, and keeps records."""

    def __init__(self, lib, deadline, tracer=None):
        self.lib = lib
        self.deadline = deadline
        self.tracer = tracer
        self.op_count = 0
        self.labels = {}

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(list(argv))
            except SystemExit as e:  # argparse rejected the arguments
                raise RuntimeError(f"argparse exit {e.code}: {err.getvalue().strip()[-200:]}")
        return code, out.getvalue(), err.getvalue()

    def execute(self, op, traced: bool):
        """Run op once: (record dict, stdout bytes of its CLI steps)."""
        import tracer as tr

        op_id = self.op_count
        self.op_count += 1
        self.labels[op_id] = op.label
        rec = {"label": op.label, "verb": op.verb, "malformed": op.malformed,
               "status": "failed", "failure": None, "problems": [], "deadline": None}
        results = []

        def body():
            for step in op.steps:
                results.append(step() if callable(step) else self._cli(step))

        self.lib.reset_caches()
        if traced:
            self.tracer.begin_op(op_id)
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            tr.run_with_deadline(body, self.deadline)
        except tr.DeadlineExceeded as e:
            rec["latency"] = time.perf_counter() - t0
            if traced:
                rec["deadline"] = self.tracer.last_deadline
            else:
                rec["deadline"] = tr.deadline_location(e, SRC)
            rec["failure"] = "deadline"
            layer, inner = rec["deadline"]
            rec["problems"] = [f"missed the {self.deadline:g} s deadline in {layer} ({inner})"]
        except Exception as e:  # an exception escaped the program
            rec["latency"] = time.perf_counter() - t0
            rec["failure"] = "exception"
            rec["problems"] = [f"{type(e).__name__}: {str(e)[:200]}"]
        else:
            rec["latency"] = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.end_op()
        outputs = "".join(r[1] for r in results if isinstance(r, tuple))
        if rec["failure"] is None:
            rec["status"], rec["problems"], rec["failure"] = op.judge(results)
        return rec, outputs


# ---------------------------------------------------------------------------
# Statistics


def percentile_rank(values, q):
    """Nearest-rank percentile of a sorted list (q in (0, 1])."""
    k = max(1, math.ceil(q * len(values)))
    return values[k - 1]


def latency_summary(lat):
    """Median and the highest percentile with at least ten samples beyond it,
    when that percentile lies above the median (21 samples or more).

    Failed ops are +inf: they miss every latency limit.
    """
    xs = sorted(lat)
    n = len(xs)
    if n == 0:
        return None
    out = {"n": n, "p50": percentile_rank(xs, 0.5)}
    if n >= 21:
        out["tail"] = xs[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out


def fmt(v, unit):
    if v is None:
        return "n/a"
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return f"{v:.6g} {unit}"


# ---------------------------------------------------------------------------
# One run


class Measurement:
    """What one time-boxed run of a workload produced."""

    def __init__(self):
        self.records = []  # one per timed op (the untraced run in a traced pair)
        self.probes = []  # one per known-defect probe, run once after timing
        self.complete_passes = []  # indices of the passes that ran to the end
        self.pass_setup = []  # input generation time of each pass
        self.fixed_setup = 0.0
        self.program_import_s = 0.0  # the run's own import of the program (rescaled)
        self.setup_samples = ([], [])  # see setup_samples()
        self.peak_rss_mb = 0.0
        self.trace_basis = None  # (tracer snapshot, ops) at the last complete pass
        self.kernel_ms = []  # kernel samples, about one a second
        self.overhead = [0.0, 0.0]  # traced, untraced seconds over the same ops
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.repeat_same = None
        self.pass_len = 0
        self.measured_s = 0.0


def measure(args, wl, runner) -> Measurement:
    """Closed loop over the workload's passes until args.seconds elapse."""
    m = Measurement()
    ops, dt = pass_setup(wl, 0)
    m.pass_setup.append(dt)
    # warm-up, and the first half of the byte-determinism check
    warm, warm_out = runner.execute(ops[0], traced=False)
    m.kernel_ms.append(calibration.kernel_ms())
    t_begin = t_sample = time.perf_counter()
    j = 0
    while True:
        m.pass_len = len(ops)
        for k, op in enumerate(ops):
            if time.perf_counter() - t_begin >= args.seconds:
                m.measured_s = time.perf_counter() - t_begin
                return m
            rec, out = _timed_op(args, runner, op, m)
            rec["pass"] = j
            m.records.append(rec)
            if time.perf_counter() - t_sample >= calibration.INTERVAL_S:
                m.kernel_ms.append(calibration.kernel_ms())
                t_sample = time.perf_counter()
            if rec["status"] == "failed" or j:
                continue
            if k == 0 and warm["status"] != "failed":
                m.repeat_same = out == warm_out
                if not m.repeat_same:
                    _mark_wrong(rec, "repeating the op changed its --json bytes")
            m.digest.update(f"{k}\0".encode() + out.encode())
            m.digest_ops += 1
        m.complete_passes.append(j)
        if runner.tracer:
            m.trace_basis = (runner.tracer.snapshot(), len(m.records))
        j += 1
        ops, dt = pass_setup(wl, j)
        m.pass_setup.append(dt)


def pass_setup(wl, j):
    """(ops of pass j, their set-up time without the benchmark's own
    reference computations, which wl.checker_side() times)."""
    checker_s, t0 = wl.checker_s, time.perf_counter()
    ops = wl.make_pass(j)
    return ops, time.perf_counter() - t0 - (wl.checker_s - checker_s)


def _timed_op(args, runner, op, m):
    """One op; traced runs execute it twice, untraced and traced, in
    alternating order: the untraced run is the record and the traced run
    must agree with it byte for byte."""
    if not args.trace:
        return runner.execute(op, traced=False)
    order = (False, True) if len(m.records) % 2 else (True, False)
    pair = {flag: runner.execute(op, traced=flag) for flag in order}
    rec, out = pair[False]
    traced, traced_out = pair[True]
    if rec["status"] != "failed" and traced["status"] != "failed":
        m.overhead[0] += traced["latency"]
        m.overhead[1] += rec["latency"]
        if out != traced_out:
            _mark_wrong(rec, "output differs with tracing on")
    elif traced["failure"] == "check":
        _mark_wrong(rec, "traced run: " + "; ".join(traced["problems"]))
    return rec, out


def summarize(m: Measurement, import_s):
    """(gated, printed-only) metrics: name -> (value, unit, note).

    Gated times are rescaled to the reference machine speed
    (calibration.py); their notes give the raw values.
    """
    import corpus

    records = m.records
    # the ratios count the probes and the deadline misses; the result line's
    # `failed` counts neither (see errors())
    judged = records + m.probes
    attempted = len(judged)
    failed = sum(r["status"] == "failed" for r in judged)
    undecidable = [r for r in records if r["verb"] in corpus.UNDECIDABLE_VERBS]
    undecided = sum(r["status"] == "undecided" for r in undecidable)
    normal = [r for r in records if not r["malformed"]]

    def summary(verb=None):
        return latency_summary([math.inf if r["status"] == "failed" else r["latency"]
                                for r in normal if verb is None or r["verb"] == verb])

    factor = calibration.speed_factor(m.kernel_ms)

    def gated_ms(verb):
        value, unit, note = _ms(summary(verb), "p50")
        if value is not None:
            note += f", raw {value:.6g} ms"
            value /= factor
        return value, unit, note

    # set-up at the reference speed: the imports before the program's (the
    # standard library, numpy) once, the program's import and the fixed
    # inputs as medians of samples rescaled one by one, and the per-pass
    # inputs as their median rescaled by the run's speed
    imports, builds = m.setup_samples
    imports = [m.program_import_s] + imports
    base_s = import_s - m.program_import_s
    pass_s = statistics.median(m.pass_setup) / factor
    setup = base_s + statistics.median(imports) + statistics.median(builds) + pass_s
    walls = [sum(r["latency"] for r in records if r["pass"] == j) for j in m.complete_passes]
    gated = {
        "setup_s": (setup, "s",
                    f"imports {base_s:.3f} s + median of {len(imports)} program imports "
                    f"{statistics.median(imports):.3f} s, median of {len(builds)} fixed input "
                    f"builds {statistics.median(builds):.3f} s (raw {m.fixed_setup:.3f} s in "
                    f"the run), median of {len(m.pass_setup)} pass set-ups {pass_s:.3f} s"),
        "op_p50_ms": gated_ms(None),
        "analyze_p50_ms": gated_ms("analyze"),
        "ok_ratio": (1 - failed / attempted if attempted else None, "ratio", f"n={attempted}"),
        "decided_ratio": (1 - undecided / len(undecidable) if undecidable else None, "ratio",
                          f"n={len(undecidable)}"),
        "peak_rss_mb": (m.peak_rss_mb, "MB", "whole process, before the repeated imports"),
    }
    info = {
        "speed_factor": (factor, "x", f"mean of {len(m.kernel_ms)} kernel samples over "
                         f"{calibration.REFERENCE_MS:g} ms, range {min(m.kernel_ms):.3f}-"
                         f"{max(m.kernel_ms):.3f} ms"),
        "wall_s": (statistics.median(walls) if walls else None, "s",
                   f"median over {len(walls)} complete passes of {m.pass_len} ops"),
        "fail_ratio": (failed / attempted if attempted else None, "ratio", f"n={attempted}"),
        "undecided_ratio": (undecided / len(undecidable) if undecidable else None, "ratio",
                            f"n={len(undecidable)}"),
        "deadline_misses": (sum(r["failure"] == "deadline" for r in records), "count",
                            f"of {len(records)} timed ops"),
        "analyze_tail_ms": _ms(summary("analyze"), "tail"),
    }
    for verb in ("roundtrip", "search", "simulate"):
        info[f"{verb}_p50_ms"] = _ms(summary(verb), "p50")
        if verb != "simulate":
            info[f"{verb}_tail_ms"] = _ms(summary(verb), "tail")
    return gated, info


def run(args, lib, import_s, deadlines, emit=print):
    """One benchmark run; returns the result object of the last stdout line."""
    import corpus
    import tracer as tr
    from static_counts import static_counts

    name = args.workload
    if name not in deadlines:
        raise SystemExit(fail(f"no deadline given for workload {name!r}"))
    deadline = deadlines[name]
    workdir = os.path.join(WORK, f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tr.install_deadline_handler()
    tracer = tr.Tracer() if args.trace else None
    runner = Runner(lib, deadline, tracer)
    try:
        t = time.perf_counter()
        wl = corpus.make_workload(name, args.seed, workdir, lib)
        fixed_setup = time.perf_counter() - t - wl.checker_s
        m = measure(args, wl, runner)
        m.fixed_setup = fixed_setup
        m.probes = [dict(runner.execute(op, traced=False)[0], **{"pass": None})
                    for op in wl.probes]
        m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m.program_import_s = lib.program_import_s
        m.setup_samples = setup_samples((name, args.seed, workdir, lib), SETUP_REPEATS)
    finally:
        signal_off()
        shutil.rmtree(workdir, ignore_errors=True)

    gated, info = summarize(m, import_s)
    emit(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
         f"deadline {deadline:g} s  measured {m.measured_s:.1f} s  "
         f"passes {len(m.complete_passes)} complete")
    for key, (v, unit, note) in list(gated.items()) + list(info.items()):
        kind = "gated" if key in gated else "info "
        emit(f"  {kind} {key:<18} {fmt(v, unit):>16}   ({note})")
    for r in m.records:
        if r["status"] == "failed":
            emit(f"  failed op ({r['failure']}): {r['label']}: {'; '.join(r['problems'])[:300]}")
    for r in m.probes:
        outcome = f"failed ({r['failure']}): {'; '.join(r['problems'])[:300]}" \
            if r["status"] == "failed" else "ok"
        emit(f"  probe {r['label']}: {outcome}")
    emit(f"  --json sha256 {m.digest.hexdigest()} over {m.digest_ops} completed ops of pass 0; "
         f"repeated op byte-identical: {m.repeat_same}")
    for mod, (loc, code_loc, calls, uses) in static_counts(SRC).items():
        emit(f"  static {mod:<11} lines {loc:>4}  code lines {code_loc:>4}  "
             f"third-party call sites {calls:>3}  uses {uses:>3}")
    rec_path = _write_records(m.records + m.probes, f"{name}-{args.seed}-trace{args.trace}")
    emit(f"  per-op records written to {os.path.relpath(rec_path, ROOT)}")

    if args.trace:
        if m.trace_basis is None:  # no pass completed: every op that ran
            m.trace_basis = (tracer.snapshot(), len(m.records))
        snapshot, n_ops = m.trace_basis
        emit(f"  per-layer metrics per op over {n_ops} traced ops "
             f"({len(m.complete_passes)} complete passes)")
        metrics = tracer.metrics(snapshot, n_ops)
        metrics["trace.overhead_ratio"] = m.overhead[0] / m.overhead[1] if m.overhead[1] else 0.0
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_path = os.path.join(WORK, "traces", f"{name}-{args.seed}.jsonl")
        tracer.dump(trace_path, runner.labels)
        emit(f"  trace written to {os.path.relpath(trace_path, ROOT)} "
             f"({len(tracer.spans)} spans)")
        units = dict(per_layer_metrics())
        for key, v in metrics.items():
            emit(f"  layer {key:<44} {fmt(v, units[key])}")
        result = {k: {"value": metrics[k], "unit": u} for k, u in per_layer_metrics()}
    else:
        # a median over more than half failed ops is +inf: reported as null
        result = {k: {"value": v if v is not None and math.isfinite(v) else None, "unit": unit}
                  for k, (v, unit, _) in gated.items()}
    return {
        "correct": not any(r["failure"] == "check" for r in m.records),
        "attempted": len(m.records),
        "failed": len(errors(m.records)),
        "metrics": result,
    }


def errors(records):
    """Timed ops the program got wrong: an exception escaped, a wrong exit
    code or a wrong answer.  A deadline miss is a slow op, not a wrong one;
    it counts in ok_ratio, deadline_misses and the latencies instead."""
    return [r for r in records if r["failure"] in ("exception", "exit", "check")]


def _write_records(records, stem):
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    path = os.path.join(WORK, "records", stem + ".jsonl")
    keys = ("pass", "label", "verb", "status", "latency", "failure", "problems")
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps({k: r[k] for k in keys}) + "\n")
    return path


def _mark_wrong(rec, problem):
    rec["status"], rec["failure"] = "failed", "check"
    rec["problems"].append(problem)


def _ms(summary, key):
    """(value in ms, unit, note) of a latency_summary entry."""
    if summary is None:
        return (None, "ms", "no samples")
    if key not in summary:
        return (None, "ms", f"n={summary['n']}, too few for a tail above the median")
    note = f"n={summary['n']}"
    if key == "tail":
        note = f"p{summary['tail_pct']:.1f}, n={summary['n']}, 10 beyond"
    return (summary[key] * 1e3, "ms", note)


def signal_off():
    import signal

    signal.setitimer(signal.ITIMER_REAL, 0)


def parse_deadlines(text):
    out = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        out[name.strip()] = float(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quadpencil benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadlines", default=None,
                    help="per-op deadline in seconds per workload, e.g. analyze-h9=20,models=3")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = ap.parse_args(argv)

    # imports at the reference speed, from kernel samples around the program's
    t = time.perf_counter()
    before = calibration.kernel_ms()
    t_load = time.perf_counter()
    lib = load_program()
    t_loaded = time.perf_counter()
    if lib is None:
        return fail(f"no program sources under {SRC}; run from the root of a checkout")
    factor = calibration.speed_factor([before, calibration.kernel_ms()])
    import_s = (t - T_START + t_loaded - t_load) / factor
    lib.program_import_s /= factor

    if args.smoke:
        import selftest

        return selftest.main(lib, import_s, sys.modules[__name__])
    if not args.workload or not args.deadlines:
        return fail("--workload and --deadlines are required")
    result = run(args, lib, import_s, parse_deadlines(args.deadlines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
