"""Command-line front end.

Verbs: analyze, canon, kummer, search, local, simulate, verify-lemmas.
All randomness flows through the single --seed value recorded in report
headers; JSON reports are deterministic functions of (input, seed, config)
and wall-clock timings appear only in the human-readable output.

Exit codes: 0 success (and --help); 2 for honest "unknown" outcomes,
a witness search that exhausts its prime bound included; 1 for errors
(bad input or arguments, singular pencils, an unwritable --out).  Each verb
returns (payload, human, code): the report's own fields, its human text
and its exit code.  `main` alone writes them, adding the report header and
encoding the payload as JSON, and maps what the verbs raise to an exit
code, reporting errors and exhausted searches as one `error:` line each.
The verbs parse and encode only: the library returns values, and which
places a report covers and which procedure decides each one is
`localarith`'s choice (`sweep_places`, `local_certificates`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__, canon, exact, galois, groupmod, localarith, pencil, selmersim
from .exact import RatPoly, prime_place
from .pencil import rat_str

SCHEMA_VERSION = "quadpencil-report-4"


def parse_rational(text: str) -> Fraction:
    """A rational such as '-3/4'; ValueError when it is not one."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# A number (integer or decimal), t, an operator or a parenthesis.
_TOKEN = re.compile(r"\s*(\d+\.?\d*|\.\d+|\*\*|[-+*/^()t])", re.ASCII)

# The largest degree of a parsed polynomial and of every intermediate
# result, so that no expression builds an unbounded power of t.
MAX_DEGREE = 16

# Coefficient size bound for parsed expressions, so that a tower of
# constant powers such as ((9^16)^16)^16 is refused instead of computed.
_MAX_BITS = 4096


def parse_poly(text: str) -> RatPoly:
    """Accept comma-separated coefficients (low to high) or an expression
    in t, e.g. 't^5 - 2'; ValueError for anything else.

    Expressions are read exactly, by the grammar
        sum     := product (('+' | '-') product)*
        product := factor (('*' | '/') factor)*
        factor  := ('+' | '-') factor | atom (('^' | '**') integer)?
        atom    := number | 't' | '(' sum ')'
    with division by nonzero constants only, exponents of at most
    MAX_DEGREE and no intermediate result of higher degree.
    """
    if "," in text:
        return RatPoly.of([parse_rational(part) for part in text.split(",")])
    try:
        toks = _tokens(text)
        f = _sum(toks)
        if toks:
            raise ValueError(f"unexpected {toks[-1]!r}")
        return f
    except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
        msg = f"not a polynomial in t with rational coefficients: {text!r} ({e})"
        raise ValueError(msg) from None


def _tokens(text: str) -> list[str]:
    """The tokens of text, last first, so that the parser pops them."""
    toks = _TOKEN.findall(text)
    if "".join(toks) != "".join(text.split()):
        raise ValueError("unexpected character")
    return toks[::-1]


def _sum(toks: list[str]) -> RatPoly:
    f = _product(toks)
    while toks and toks[-1] in ("+", "-"):
        f = f + _product(toks) if toks.pop() == "+" else f - _product(toks)
    return f


def _product(toks: list[str]) -> RatPoly:
    f = _factor(toks)
    while toks and toks[-1] in ("*", "/"):
        op, g = toks.pop(), _factor(toks)
        if op == "*":
            f = _bounded(f * g)
        elif g.degree != 0:
            raise ValueError("division by zero or by a non-constant")
        else:
            f = f * (1 / g[0])
    return f


def _factor(toks: list[str]) -> RatPoly:
    tok = toks.pop() if toks else "end of input"
    if tok in ("+", "-"):
        return -_factor(toks) if tok == "-" else _factor(toks)
    if tok == "(":
        f = _sum(toks)
        if not toks or toks.pop() != ")":
            raise ValueError("missing ')'")
    elif tok == "t":
        f = RatPoly.x()
    elif tok[0].isdigit() or tok[0] == ".":
        f = RatPoly.const(parse_rational(tok))
    else:
        raise ValueError(f"unexpected {tok!r}")
    if toks and toks[-1] in ("^", "**"):
        toks.pop()
        e = toks.pop() if toks else ""
        if not e.isdigit() or int(e) > MAX_DEGREE:
            raise ValueError(f"exponent {e!r} is not an integer of at most {MAX_DEGREE}")
        f, base = RatPoly.const(1), f
        for _ in range(int(e)):
            f = _bounded(f * base)
    return f


def _bounded(f: RatPoly) -> RatPoly:
    if f.degree > MAX_DEGREE:
        raise ValueError(f"degree above {MAX_DEGREE}")
    if any(max(abs(c.numerator), c.denominator).bit_length() > _MAX_BITS for c in f.coeffs):
        raise ValueError(f"a coefficient exceeds {_MAX_BITS} bits")
    return f


def parse_delta(text: str, P: RatPoly):
    if ";" in text or ("," in text and "t" not in text):
        sep = ";" if ";" in text else ","
        return [parse_poly(part) if "t" in part else RatPoly.const(parse_rational(part))
                for part in text.split(sep)]
    return parse_poly(text)


def parse_conditions(text: str) -> list:
    """JSON list of local conditions, each a list of [cycle length, sign bit]."""
    try:
        return [localarith.normalize_condition(c) for c in json.loads(text)]
    except (TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise ValueError(f"malformed conditions {text!r}: {e}") from None


def _json_value(x):
    """The JSON form of a report value: rationals as "num/den" strings,
    polynomials as their coefficients (low to high), places as their names
    and certificates and classifications as their fields; TypeError for any
    other type."""
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, RatPoly):
        return [rat_str(c) for c in x.coeffs]
    if isinstance(x, exact.LocalPlace):
        return str(x)
    if isinstance(x, (localarith.LocalCertificate, pencil.HasseClassification)):
        return _json_value(vars(x))
    raise TypeError(f"no JSON form for a report value of type {type(x).__name__}")


def _load_pencil(path: str) -> pencil.Pencil:
    with open(path) as fh:
        return pencil.pencil_loads(fh.read())


def _witness_fields(wit: localarith.BTWitness) -> dict:
    return {"b": wit.b, "primes": wit.primes, "valuations": wit.valuations}


def _verdicts_code(certs) -> int:
    """2 when some local verdict is unknown, else 0."""
    return 2 if any(c.verdict == "unknown" for c in certs) else 0


# ---------------------------------------------------------------------------
# analyze


def run_analyze(args) -> tuple[dict, str, int]:
    t0 = time.time()
    pen = _load_pencil(args.input)
    conditions = None if args.conditions is None else parse_conditions(args.conditions)
    digest = hashlib.sha256(pencil.pencil_dumps(pen).encode()).hexdigest()
    norm = pencil.normalize_pencil(pen)
    inv = pencil.delta_invariant(norm)
    profile = galois.galois_group_quintic(inv)
    b_dim = pencil.b_delta_group(inv)
    cls = pencil.hasse_class(inv, profile, b_dim)

    s0 = localarith.bad_set_s0(inv, args.margin)
    certs = localarith.local_certificates(norm, inv.factors, localarith.sweep_places(s0), args.effort)

    witness = None
    if conditions is not None:
        wit = localarith.find_bT(inv, conditions, s0, prime_bound=args.prime_bound)
        witness = _witness_fields(wit)

    elapsed = time.time() - t0
    payload = {
        "kind": "analysis",
        "config": {
            "margin": args.margin,
            "effort": args.effort,
            "prime_bound": args.prime_bound,
        },
        "input_sha256": digest,
        "chart": [rat_str(x) for x in norm.chart],
        "P": norm.P,
        "lead": norm.lead,
        "factors": inv.factors,
        "delta_reps": inv.delta_reps,
        "square_flags": inv.square_flags,
        "galois": {
            "label": profile.label,
            "disc_is_square": profile.disc_is_square,
            "resolvent_root": profile.resolvent_root,
            "certificate": profile.certificate,
        },
        "brauer_dimension": b_dim,
        "classification": cls,
        "local_certificates": certs,
        "witness": witness,
    }
    lines = [
        f"pencil {digest[:16]}  (quadpencil {__version__}, seed {args.seed})",
        f"chart: {payload['chart']}   P = {norm.P}",
        f"factors: {[str(f) for f in inv.factors]}",
        f"delta flags: {list(inv.square_flags)}",
        f"galois: {profile.label}",
        f"B-dimension: {b_dim}",
        f"classification: {cls.kind}",
        "local: " + ", ".join(f"{c.place}:{c.verdict}" for c in certs),
        f"elapsed: {elapsed:.2f}s",
    ]
    return payload, "\n".join(lines), _verdicts_code(certs)


# ---------------------------------------------------------------------------
# canon / kummer


def _model_payload(model: canon.CanonicalModel) -> dict:
    return {"P": model.P, "delta": model.delta, "gram1": model.gram1, "gram2": model.gram2}


def _quadric_str(g, names) -> str:
    terms = []
    n = len(g)
    for i in range(n):
        for j in range(i, n):
            c = g[i][j] if i == j else 2 * g[i][j]
            if c == 0:
                continue
            mono = f"{names[i]}^2" if i == j else f"{names[i]}*{names[j]}"
            cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            terms.append(f"{cs}{mono}")
    return " + ".join(terms).replace("+ -", "- ") or "0"


def run_canon(args) -> tuple[dict, str, int]:
    P = parse_poly(args.poly)
    model = canon.canonical_quadrics(P, parse_delta(args.delta, P))
    payload = {"kind": "canonical-model", **_model_payload(model)}
    names = ["u0", "u1", "u2", "u3", "u4"]
    human = "\n".join(
        [
            f"P = {P}",
            f"delta' = {model.delta}",
            f"Q1: {_quadric_str(model.gram1, names)} = 0",
            f"Q2: {_quadric_str(model.gram2, names)} = 0",
        ]
    )
    return payload, human, 0


def run_kummer(args) -> tuple[dict, str, int]:
    P = parse_poly(args.poly)
    km = canon.kummer_model(P, parse_delta(args.delta, P), parse_rational(args.b))
    qs = km.quadrics()
    payload = {
        "kind": "kummer-model",
        "b": km.b,
        **_model_payload(km.base),
        "gram3": km.gram3,
        "quadrics": qs,
    }
    names = ["x", "u0", "u1", "u2", "u3", "u4"]
    human = "\n".join(
        [f"P = {P},  b = {km.b}"]
        + [f"Q{i+1}: {_quadric_str(q, names)} = 0" for i, q in enumerate(qs)]
    )
    return payload, human, 0


# ---------------------------------------------------------------------------
# search / local


def run_search(args) -> tuple[dict, str, int]:
    P = parse_poly(args.poly)
    if P.degree != 5:
        # normalize_delta's factor_q refuses an inseparable quintic
        raise ValueError(f"not a quintic: {P}")
    _, inv = canon.normalize_delta(P, parse_delta(args.delta, P))
    conditions = parse_conditions(args.conditions)
    s0 = localarith.bad_set_s0(inv, args.margin)
    wit = localarith.find_bT(inv, conditions, s0, prime_bound=args.prime_bound)
    payload = {"kind": "bt-witness", **_witness_fields(wit), "classes": wit.class_data}
    human = f"b = {wit.b}\nT = {list(wit.primes)} (val of P(b): {list(wit.valuations)})"
    return payload, human, 0


def run_local(args) -> tuple[dict, str, int]:
    pen = _load_pencil(args.input)
    places = args.places and [prime_place(int(p)).p for p in args.places.split(",")]
    norm = pencil.normalize_pencil(pen)
    if places:
        # the linear factors alone tell whether P splits, with no degree-set walk
        factors = exact.linear_factors(norm.P)
    else:
        inv = pencil.delta_invariant(norm)
        factors = inv.factors
        s0 = localarith.bad_set_s0(inv, 2)
        places = localarith.sweep_places(s0)
    certs = localarith.local_certificates(norm, factors, places, args.effort)
    payload = {"kind": "local-certificates", "certificates": certs}
    human = "\n".join(f"{c.place}: {c.verdict} ({c.reason})" for c in certs)
    return payload, human, _verdicts_code(certs)


# ---------------------------------------------------------------------------
# simulate / verify-lemmas


# Largest local dimension and number of places `simulate` accepts: the
# simulator's cost grows steeply with both (100 systems on three places of
# dimension 32 take about six times as long as at 16; on a 2-core Xeon
# container one system on 16 places of dimension 16 takes about 4 s, on
# 32 such places about 35 s).
MAX_LOCAL_DIM = 16
MAX_PLACES = 16


def run_simulate(args) -> tuple[dict, str, int]:
    """Check --dims, run the seeded corpus of `selmersim.check_corpus` and,
    with --mode, the descent search, and report both."""
    dims = [int(x) for x in args.dims.split(",")]
    if any(d < 0 or d % 2 or d > MAX_LOCAL_DIM for d in dims):
        raise ValueError(
            f"local dimensions must be even, nonnegative and at most {MAX_LOCAL_DIM}: "
            f"{args.dims!r}"
        )
    if len(dims) > MAX_PLACES:
        raise ValueError(f"at most {MAX_PLACES} places: {len(dims)} given")
    corpus = selmersim.check_corpus(args.seed, dims, args.systems, args.negative_control)
    descent = None
    if args.mode:
        found = selmersim.find_descent_instance(
            args.mode, args.start_dim, len(dims), dims, max_seed=args.descent_seeds
        )
        if found:
            seed, _, trace = found
            descent = {"seed": seed, "dims": trace.dims, "mode": args.mode}
    payload = {
        "kind": "simulation",
        "config": {
            "dims": dims,
            "systems": args.systems,
            "mode": args.mode,
            "negative_control": args.negative_control,
        },
        **corpus,
        "descent": descent,
    }
    duality, twists = corpus["duality"], corpus["twists"]
    human = "\n".join(
        [
            f"systems: {args.systems}, dims {dims}",
            f"duality: {duality['checks'] - duality['failures']}/{duality['checks']} pass",
            f"twist laws: {twists['checks']}/{twists['checks'] + twists['failures']} pass",
            f"descent: {descent}",
        ]
    )
    if args.negative_control:
        return payload, human, 0 if duality["failures"] > 0 else 1
    return payload, human, 0 if duality["failures"] == 0 and twists["failures"] == 0 else 1


EXPECTED_LEMMA_TABLE = {
    "C5": (0, 4),
    "D10": (0, 2),
    "F20": (0, 1),
    "A5": (0, 1),
    "S5": (0, 1),
}


def run_verify_lemmas(args) -> tuple[dict, str, int]:
    rows = groupmod.lemma_table()
    ok = True
    lines = [f"{'subgroup':>9} {'order':>6} {'H1':>4} {'r':>3}  expected"]
    payload_rows = []
    for label, order, h1, r in rows:
        eh1, er = EXPECTED_LEMMA_TABLE[label]
        match = (h1, r) == (eh1, er)
        ok = ok and match
        lines.append(
            f"{label:>9} {order:>6} {h1:>4} {r:>3}  H1={eh1}, r={er}  {'ok' if match else 'MISMATCH'}"
        )
        payload_rows.append(
            {"subgroup": label, "order": order, "h1_dim": h1, "end_degree": r, "ok": match}
        )
    payload = {"kind": "lemma-table", "rows": payload_rows, "all_ok": ok}
    return payload, "\n".join(lines), 0 if ok else 1


# ---------------------------------------------------------------------------


class UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing a usage block and exiting 2,
    the code that means "unknown"; `main` reports it as one error line.
    argparse takes a value that begins with '-' (and is not a plain number)
    for an option, so an option that then lacks its value says how to
    write one."""

    def error(self, message):
        if message.endswith("expected one argument"):
            message += " (write a value that begins with '-' as --option=value)"
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; each parse_args returns a fresh
    namespace."""
    ap = _Parser(
        prog="quadpencil",
        description="arithmetic invariants of pencils of quadrics in P^4 over Q",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prime-bound", type=int, default=100_000)
    ap.add_argument("--effort", type=int, default=3,
                    help="levels of the p-adic search for a pencil that does not split "
                         "completely (a split pencil is always decided)")
    ap.add_argument("--margin", type=int, default=100)
    ap.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    ap.add_argument("--out", default=None, help="write output to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a pencil JSON file")
    p.add_argument("input")
    p.add_argument(
        "--conditions",
        default=None,
        help="optional JSON local conditions to search a (b, T) witness for",
    )
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("canon", help="canonical quadrics for (P, delta')")
    p.add_argument("--poly", required=True, help="quintic, e.g. 't^5-2' or coefficients")
    p.add_argument("--delta", default="1", help="delta' as expression or per-factor list")
    p.set_defaults(func=run_canon)

    p = sub.add_parser("kummer", help="double-cover model at a parameter b")
    p.add_argument("--poly", required=True)
    p.add_argument("--delta", default="1")
    p.add_argument("--b", required=True)
    p.set_defaults(func=run_kummer)

    p = sub.add_parser("search", help="(b, T) witness for admissible local conditions")
    p.add_argument("--poly", required=True)
    p.add_argument("--delta", default="1")
    p.add_argument(
        "--conditions",
        required=True,
        help='JSON, e.g. "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"',
    )
    p.set_defaults(func=run_search)

    p = sub.add_parser("local", help="local solubility certificates for a pencil")
    p.add_argument("input")
    p.add_argument("--places", default=None, help="comma-separated primes")
    p.set_defaults(func=run_local)

    p = sub.add_parser("simulate", help="Selmer twisting simulator corpus")
    p.add_argument("--systems", type=int, default=100)
    p.add_argument("--dims", default="4,4,4",
                   help=f"even local dimensions per place, each at most {MAX_LOCAL_DIM}, "
                        f"at most {MAX_PLACES} places")
    p.add_argument("--mode", choices=["A", "B"], default=None)
    p.add_argument("--start-dim", type=int, default=5)
    p.add_argument("--descent-seeds", type=int, default=2000)
    p.add_argument("--negative-control", action="store_true")
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("verify-lemmas", help="H^1 and endomorphism table check")
    p.set_defaults(func=run_verify_lemmas)

    return ap


def main(argv=None) -> int:
    """Run one command line and write its verb's report, the payload with
    the schema version and seed as JSON under --json and the human text
    otherwise, to stdout or --out.  The exit code is the verb's, or that of
    what the parser or the verb raised: 2 for an exhausted witness search,
    1 for an error.  Either is reported as one `error:` line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        payload, text, code = args.func(args)
        if args.json:
            payload = {**payload, "schema_version": SCHEMA_VERSION, "seed": args.seed}
            text = json.dumps(_json_value(payload), indent=1, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        sys.stdout.flush()
        return code
    except BrokenPipeError as e:  # an OSError, so it is matched first
        # the reader closed stdout early; send what is still buffered to
        # devnull so that the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: output closed early: {e}", file=sys.stderr)
        return 1
    except localarith.NoWitnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except pencil.SingularPencilError as e:
        print(f"error: singular base locus: {e}", file=sys.stderr)
        return 1
    except (UsageError, OSError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
