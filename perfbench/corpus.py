"""Seeded inputs for each workload, as ops with their output checks.

A workload is a stream of passes.  Pass j of workload w under seed s is a
pure function of (w, s, j): the same seed gives the same inputs.  Every op
is one closed-loop request: the next op starts when the previous one ends.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks
from checks import from_roots, poly_expr

# Verbs whose exit code 2 is an honest "undecided"/"unknown" verdict.
UNDECIDABLE_VERBS = ("analyze", "local", "search")

# find_bT's default margin: every prime below it is in the bad set.
MARGIN = 100


@dataclass
class Op:
    """One request: CLI calls (argv lists) and library calls, timed together.

    judge(results) -> (status, problems, failure): status is "ok",
    "undecided" or "failed"; failure is None, "exit" (a wrong exit code or
    error report) or "check" (a wrong answer).  results holds (exit code,
    stdout, stderr) per CLI step and the returned value per library step.
    """

    label: str
    verb: str
    steps: list
    judge: Callable
    malformed: bool = False


def _cli_judge(verb: str, check: Optional[Callable]):
    def judge(results):
        code, out, err = results[0]
        if code == 2 and verb in UNDECIDABLE_VERBS:
            status = "undecided"
            if not out:  # e.g. search: no witness below the prime bound
                return status, [], None
        elif code == 0:
            status = "ok"
        else:
            return "failed", [f"exit {code}: {err.strip()[:200]}"], "exit"
        problems = check(code, out) if check else []
        return _verdict(status, problems)
    return judge


def _verdict(status, problems):
    return ("failed", problems, "check") if problems else (status, [], None)


def cli_op(label, verb, argv, check=None) -> Op:
    return Op(label, verb, [argv], _cli_judge(verb, check))


def malformed_op(label, verb, argv) -> Op:
    def judge(results):
        code, out, err = results[0]
        problems = checks.check_error_exit(code, out, err)
        return ("failed", problems, "exit") if problems else ("ok", [], None)
    return Op(label, verb, [argv], judge, malformed=True)


def _pencil_matrices(pen):
    return [pen.phi1, pen.phi2]


class Workload:
    """Base: a seed, the program's modules and a work directory for input files."""

    name = ""

    def __init__(self, seed: int, workdir: str, lib):
        self.seed = seed
        self.workdir = workdir
        self.lib = lib  # the program's modules, for building inputs
        self.schema = lib.schema
        self.checker_s = 0.0  # time spent in checker_side()
        # inputs on which the program is known to fail: malformed inputs
        # that must end in exit 1 with one `error:` line, and well-formed
        # ones the program raises on.  They run once per run, outside the
        # timed loop, so the failures among them do not depend on how far a
        # run gets or on the seed.
        self.probes: list[Op] = []

    @contextmanager
    def checker_side(self):
        """Time the benchmark's own reference computations (sympy work for
        the checks), which no change to the program can move; set-up time
        is measured without them."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.checker_s += time.perf_counter() - t0

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def analyze_op(self, label, pen, fname, expected_label=None) -> Op:
        path = self.write(fname, self.lib.pencil.pencil_dumps(pen))
        spec = {"pencil": _pencil_matrices(pen), "label": expected_label}
        schema = self.schema
        return cli_op(label, "analyze", ["--json", "analyze", path],
                      lambda code, out: checks.check_analyze(code, out, spec, schema))

    def make_pass(self, j: int) -> list[Op]:
        raise NotImplementedError


class AnalyzeWorkload(Workload):
    """`analyze` on a fixed corpus of random smooth integral pencils with
    entries in [-entry_bound, entry_bound] (`pencil.random_pencil` drawn
    from random.Random(0)).  Every pass runs the whole corpus, in an order
    drawn from the seed: the inputs are the same in every run, so runs
    differ only in which pencils the last, unfinished pass reaches."""

    def __init__(self, name, entry_bound, corpus_size, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        self.name = name
        rng = random.Random(0)
        self.corpus = [
            self.analyze_op(f"{name}[{k}]", lib.pencil.random_pencil(rng, entry_bound),
                            f"{name}-{k}.json")
            for k in range(corpus_size)
        ]

    def make_pass(self, j):
        ops = list(self.corpus)
        random.Random(f"{self.name}:{self.seed}:{j}").shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# models: README models, the C5 quintic, a round-trip corpus, README examples

T5_2 = [Fraction(c) for c in (-2, 0, 0, 0, 0, 1)]
T5_D10 = [Fraction(c) for c in (12, -5, 0, 0, 0, 1)]
D10_DELTA = [Fraction(c) for c in (-5, 0, 0, 0, 5)]
SPLIT = from_roots([0, 1, 2, 3, 4])
C5 = [Fraction(c) for c in (1, 3, -3, -4, 1, 1)]  # t^5+t^4-4t^3-3t^2+3t+1
# t^5+9t^4-9t^3+3t+8, a quintic _random_quintic drew: with delta' = c P',
# its canonical pencil has entries beyond int64 and `analyze` raises
# OverflowError in localarith.padic_soluble
INT64_PROBE = [Fraction(c) for c in (8, 3, 0, -9, 9, 1)]
INT64_MAX = 2**63 - 1
ONE = [Fraction(1)]

README_SEARCH_CONDITIONS = {
    "t5-2": [[[1, 0], [1, 0], [1, 0], [1, 0], [1, 0]]],
    "d10": [[[2, 1], [2, 1], [1, 0]], [[2, 0], [2, 0], [1, 0]]],
}


@dataclass
class Quintic:
    """A (P, delta') pair with the CLI strings that name it."""

    key: str
    P: list  # Fraction coefficients, low to high
    delta: list  # one class (coefficients) or one entry per factor
    poly_arg: str
    delta_arg: str
    label: Optional[str] = None  # known Galois label
    pencil: object = None  # canonical pencil, once computed


def _per_factor_arg(entries) -> str:
    return ";".join(str(e[0]) for e in entries)


def split_delta(pattern):
    return [[Fraction(x)] for x in pattern]


class ModelsWorkload(Workload):
    """Quintics through canon -> kummer -> round trip, search and analyze of
    the canonical pencil, plus every README CLI example."""

    name = "models"

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        self.readme = [
            Quintic("t5-2", T5_2, ONE, "t^5-2", "1", "F20"),
            Quintic("d10", T5_D10, D10_DELTA, "t^5-5*t+12", "5*t^4-5", "D10"),
            Quintic("split", SPLIT, split_delta([5, 5, 1, 1, 1]),
                    "t*(t-1)*(t-2)*(t-3)*(t-4)", "5;5;1;1;1", "REDUCIBLE"),
        ]
        self.fixed = self._readme_ops()
        self.probes = self._malformed_probes(self.readme_pencil)
        q = self._disc_twisted(INT64_PROBE)
        self.probes.append(self.canonical_analyze_op(f"int64 overflow {q.key} analyze", q))

    # -- fixed part: README examples, built once --------------------------

    def _readme_ops(self) -> list[Op]:
        lib = self.lib
        t52 = self.readme[0]
        model = lib.canon.canonical_quadrics(lib.exact.RatPoly.of(T5_2), lib.exact.RatPoly.of(ONE))
        pen = self.readme_pencil = model.to_pencil()
        ops = [self.analyze_op("readme analyze pencil.json", pen, "pencil.json", "F20")]
        pencil_path = ops[0].steps[0][-1]
        local_spec = {"pencil": _pencil_matrices(pen), "places": [3, 5, 7]}
        ops.append(cli_op("readme local", "local",
                          ["--json", "local", pencil_path, "--places", "3,5,7"],
                          lambda code, out: checks.check_local(code, out, local_spec)))
        ops.append(self.canon_op("readme canon", t52))
        ops.append(self.kummer_op("readme kummer split", self.readme[2], 7))
        ops.append(self.search_op("readme search t^5-2", t52, README_SEARCH_CONDITIONS["t5-2"]))
        ops.append(self.search_op("readme search d10", self.readme[1], README_SEARCH_CONDITIONS["d10"]))
        for argv, spec in (
            (["--json", "simulate", "--systems", "200", "--dims", "4,4,4"],
             {"systems": 200, "dims": [4, 4, 4]}),
            (["--json", "simulate", "--dims", "4,4,4,4,4", "--mode", "A", "--start-dim", "5"],
             {"systems": 100, "dims": [4, 4, 4, 4, 4], "mode": "A", "start_dim": 5}),
            (["--json", "simulate", "--systems", "50", "--dims", "2,2,2", "--negative-control"],
             {"systems": 50, "dims": [2, 2, 2], "negative_control": True}),
        ):
            ops.append(cli_op("readme " + " ".join(argv[1:]), "simulate", argv,
                              lambda code, out, spec=spec: checks.check_simulate(code, out, spec)))
        ops.append(cli_op("readme verify-lemmas", "verify-lemmas", ["--json", "verify-lemmas"],
                          lambda code, out: checks.check_lemmas(code, out, {})))
        for q in self.readme:
            ops.extend(self.chain(q, f"readme {q.key}", b=7, n_conditions=1))
        return ops

    def _malformed_probes(self, pen) -> list[Op]:
        """Malformed inputs; each must end in exit 1 with one `error:` line.
        The README's own kummer example is one: '2,0,1' is three per-factor
        entries for an irreducible P."""
        bad_json = self.write("malformed.json", "{not json")
        data = json.loads(self.lib.pencil.pencil_dumps(pen))
        data["phi1"][0][1] = data["phi1"][1][0] = "1/0"
        zero_den = self.write("zero-denominator.json", json.dumps(data))
        return [
            malformed_op("readme kummer t^5-2", "kummer",
                         ["--json", "kummer", "--poly", "t^5-2", "--delta", "2,0,1", "--b", "1"]),
            malformed_op("malformed pencil json", "analyze", ["--json", "analyze", bad_json]),
            malformed_op("pencil entry 1/0", "analyze", ["--json", "analyze", zero_den]),
        ]

    # -- op builders ----------------------------------------------------------

    def _model_spec(self, q: Quintic, b=None):
        return {"P": q.P, "delta": q.delta, "b": None if b is None else Fraction(b)}

    def canon_op(self, label, q: Quintic) -> Op:
        spec = self._model_spec(q)
        return cli_op(label, "canon", ["--json", "canon", "--poly", q.poly_arg, "--delta", q.delta_arg],
                      lambda code, out: checks.check_canon(code, out, spec))

    def kummer_op(self, label, q: Quintic, b) -> Op:
        spec = self._model_spec(q, b)
        return cli_op(label, "kummer",
                      ["--json", "kummer", "--poly", q.poly_arg, "--delta", q.delta_arg, "--b", str(b)],
                      lambda code, out: checks.check_kummer(code, out, spec))

    def search_op(self, label, q: Quintic, conditions) -> Op:
        spec = {"P": q.P, "delta": q.delta, "conditions": conditions, "margin": MARGIN}
        argv = ["--json", "search", "--poly", q.poly_arg, "--delta", q.delta_arg,
                "--conditions", json.dumps(conditions)]
        return cli_op(label, "search", argv, lambda code, out: checks.check_search(code, out, spec))

    def roundtrip_op(self, label, q: Quintic, b) -> Op:
        """canon, kummer at b, and roundtrip_invariants, timed as one op."""
        lib = self.lib
        RatPoly = lib.exact.RatPoly
        P = RatPoly.of(q.P)
        if q.delta and isinstance(q.delta[0], list):
            delta = [RatPoly.of(e) for e in q.delta]
        else:
            delta = RatPoly.of(q.delta)
        canon_argv = ["--json", "canon", "--poly", q.poly_arg, "--delta", q.delta_arg]
        kummer_argv = ["--json", "kummer", "--poly", q.poly_arg, "--delta", q.delta_arg, "--b", str(b)]
        spec = self._model_spec(q, b)

        def judge(results):
            (c1, o1, e1), (c2, o2, e2), report = results
            if c1 or c2:
                return "failed", [f"exit {c1}/{c2}: {(e1 + e2).strip()[:200]}"], "exit"
            problems = checks.check_canon(c1, o1, spec) + checks.check_kummer(c2, o2, spec)
            if not report.ok:
                problems.append(f"round trip: {report.failures()}")
            return _verdict("ok", problems)

        steps = [canon_argv, kummer_argv, lambda: lib.canon.roundtrip_invariants(P, delta)]
        return Op(label, "roundtrip", steps, judge)

    def chain(self, q: Quintic, label, b, n_conditions) -> list[Op]:
        """Round trip, search and analyze of the canonical pencil of q."""
        lib = self.lib
        with self.checker_side():
            conditions = checks.pick_conditions(q.P, q.delta, n_conditions, start=MARGIN + 1)
        return [
            self.roundtrip_op(f"{label} roundtrip", q, b),
            self.search_op(f"{label} search", q, conditions),
            self.canonical_analyze_op(f"{label} analyze", q),
        ]

    def canonical_analyze_op(self, label, q: Quintic) -> Op:
        """`analyze` of the canonical pencil of q."""
        fname = label.replace(" ", "-").replace("[", "").replace("]", "") + ".json"
        return self.analyze_op(label, self.canonical_pencil(q), fname, q.label)

    def canonical_pencil(self, q: Quintic):
        if q.pencil is None:
            RatPoly = self.lib.exact.RatPoly
            delta = ([RatPoly.of(e) for e in q.delta] if isinstance(q.delta[0], list)
                     else RatPoly.of(q.delta))
            q.pencil = self.lib.canon.canonical_quadrics(RatPoly.of(q.P), delta).to_pencil()
        return q.pencil

    # -- seeded part ----------------------------------------------------------

    def _c5_variant(self, rng) -> Quintic:
        """C5 quintic under a seeded shift t -> t - c and rescaling
        t -> t / lam (times lam^5, so P stays monic and integral)."""
        c = rng.randint(-3, 3)
        lam = rng.choice([1, 1, 2, 3])
        shifted, power = [], [Fraction(1)]
        for coef in C5:  # sum of a_k (t - c)^k
            term = [coef * x for x in power]
            shifted = [x + y for x, y in zip(shifted + [0] * len(term), term)]
            power = checks.pmul(power, [Fraction(-c), Fraction(1)])
        P = [shifted[k] * lam ** (5 - k) for k in range(6)]
        return Quintic(f"c5(c={c},lam={lam})", P, ONE, poly_expr(P), "1", "C5")

    def _split_quintic(self, rng) -> Quintic:
        """roundtrip_corpus style: five distinct rational roots and a
        per-factor class whose norm is a square."""
        roots = rng.sample(range(-6, 10), 5)
        P = from_roots(roots)
        pattern = [rng.choice([1, 1, 2, 3, 5]) for _ in range(4)]
        pattern.append(pattern[0] * pattern[1] * pattern[2] * pattern[3])
        return Quintic(f"split{sorted(roots)}", P, split_delta(pattern), poly_expr(P),
                       _per_factor_arg(split_delta(pattern)))

    def _random_quintic(self, rng) -> Quintic:
        """roundtrip_corpus style: random monic quintic with nonzero
        discriminant.  Quintics whose canonical pencil does not fit int64
        (see fits_int64) are drawn again; INT64_PROBE shows that defect."""
        while True:
            with self.checker_side():
                P = [Fraction(rng.randrange(-9, 10)) for _ in range(5)] + [Fraction(1)]
                if checks.discriminant(P) == 0:
                    continue
            q = self._disc_twisted(P)
            if fits_int64(self.canonical_pencil(q)):
                return q

    def _disc_twisted(self, P) -> Quintic:
        """(P, delta' = c P') with c the squarefree part of disc(P), so that
        the norm is a square."""
        with self.checker_side():
            c = _squarefree_part(int(checks.discriminant(P)))
        delta = [c * k * P[k] for k in range(1, 6)]
        return Quintic(f"random[{poly_expr(P)}]", P, delta, poly_expr(P), poly_expr(delta))

    def make_pass(self, j):
        """The README part plus quintics and a `simulate` drawn from the pass
        index alone, in an order drawn from the seed.  Pass j holds the same
        inputs in every run, so runs differ only in which ops the last,
        unfinished pass reaches, as in AnalyzeWorkload; the undecided share
        of a run no longer depends on which quintics its seed drew."""
        rng = random.Random(f"{self.name}:{j}")
        ops = list(self.fixed)
        for q in (self._c5_variant(rng), self._split_quintic(rng), self._random_quintic(rng)):
            b = rng.choice([x for x in range(-9, 10) if checks.peval(q.P, Fraction(x)) != 0])
            ops.extend(self.chain(q, f"[{j}] {q.key}", b, n_conditions=1 if q.label == "C5" else 2))
        dims = [rng.choice([2, 4]) for _ in range(3)]
        sim_seed = rng.randrange(10**6)
        argv = ["--json", "--seed", str(sim_seed), "simulate", "--systems", "40",
                "--dims", ",".join(map(str, dims))]
        spec = {"systems": 40, "dims": dims}
        ops.append(cli_op(f"[{j}] simulate seed {sim_seed} dims {dims}", "simulate", argv,
                          lambda code, out: checks.check_simulate(code, out, spec)))
        random.Random(f"{self.name}:{self.seed}:{j}").shuffle(ops)
        return ops


def fits_int64(pen) -> bool:
    """Whether both forms of the pencil, each scaled by the lcm of its
    denominators, have entries within int64.  localarith.padic_soluble
    casts them so (np.array(..., dtype=np.int64)) and raises OverflowError
    when they do not; the timed corpus leaves such inputs to INT64_PROBE."""
    for m in (pen.phi1, pen.phi2):
        den = math.lcm(*(x.denominator for row in m for x in row))
        if any(abs(x * den) > INT64_MAX for row in m for x in row):
            return False
    return True


def _squarefree_part(n: int) -> int:
    import sympy

    out = -1 if n < 0 else 1
    for q, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= int(q)
    return out


def make_workload(name: str, seed: int, workdir: str, lib) -> Workload:
    if name == "analyze-h9":
        return AnalyzeWorkload(name, 9, 24, seed, workdir, lib)
    if name == "analyze-tall":
        return AnalyzeWorkload(name, 1000, 8, seed, workdir, lib)
    if name == "models":
        return ModelsWorkload(seed, workdir, lib)
    raise ValueError(f"unknown workload {name!r}")
