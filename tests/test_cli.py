"""CLI tests: verbs, exit codes, schema validation, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import quadpencil
from quadpencil.cli import _MAX_BITS, MAX_DEGREE, _json_value, main, parse_delta, parse_poly
from quadpencil.canon import canonical_quadrics
from quadpencil.exact import RatPoly, discriminant
from quadpencil.pencil import Pencil, pencil_dumps, matrix_of
from reference import count_calls, count_factor_q, diag, load_schema, refuse_sympy, squarefree_part

SRC = pathlib.Path(quadpencil.__file__).resolve().parent.parent


def poly(*coeffs):
    return RatPoly.of(coeffs)


@pytest.fixture
def split_pencil_file(tmp_path):
    model = canonical_quadrics(RatPoly.from_roots([0, 1, 2, 3, 4]), poly(1))
    path = tmp_path / "pencil.json"
    path.write_text(pencil_dumps(model.to_pencil()))
    return path


@pytest.fixture
def t52_pencil_file(tmp_path):
    model = canonical_quadrics(poly(-2, 0, 0, 0, 0, 1), poly(1))
    path = tmp_path / "pencil.json"
    path.write_text(pencil_dumps(model.to_pencil()))
    return path


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@st.composite
def t_expressions(draw, max_degree=MAX_DEGREE):
    """A t-expression; every subexpression of lower precedence than its
    context is parenthesized, so the parse tree is the generation tree.

    Each node carries a degree bound and a bit bound b: the node is g / L
    with integers g (its coefficients) and L > 0 of at most b bits each, so
    no reduced coefficient exceeds b bits either.  Every node, not only the
    root, stays within the parser's bounds (MAX_DEGREE, _MAX_BITS)."""

    def node(text, degree, bits):
        assume(degree <= max_degree and bits <= _MAX_BITS)
        return text, degree, bits

    def atom():
        if draw(st.booleans()):
            return "t", 1, 1
        c = abs(draw(rationals))
        text = draw(st.sampled_from([str(c), f"{c.numerator}/{c.denominator}", f"{float(c):.3f}"]))
        v = Fraction(text)
        return (f"({text})" if "/" in text else text), 0, max(v.numerator, v.denominator).bit_length()

    def gen(depth):
        kinds = ["atom", "sum", "product", "power", "neg", "div"] if depth else ["atom"]
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            return atom()
        if kind == "neg":
            a, da, ba = gen(depth - 1)
            return f"-({a})", da, ba
        if kind == "div":
            # g / L divided by n / d is (g * d) / (L * n)
            a, da, ba = gen(depth - 1)
            c = draw(rationals.filter(bool))
            return node(f"({a})/({c})", da, ba + max(abs(c.numerator), c.denominator).bit_length())
        if kind == "power":
            # each coefficient of g^e is at most ((da + 1) * max|g_i|)^e
            a, da, ba = gen(depth - 1)
            e = draw(st.integers(0, 4))
            op = draw(st.sampled_from(["^", "**", " ^ "]))
            return node(f"({a}){op}{e}", da * e, e * (ba + (da + 1).bit_length()) if e else 1)
        (a, da, ba), (b, db, bb) = gen(depth - 1), gen(depth - 1)
        if kind == "sum":
            # (g1 * L2 +- g2 * L1) / (L1 * L2)
            op = draw(st.sampled_from(["+", "-"]))
            return node(f"{a} {op} ({b})", max(da, db), ba + bb + 1)
        # a coefficient of g1 * g2 sums at most min(da, db) + 1 products
        return node(f"({a})*({b})", da + db, ba + bb + (min(da, db) + 1).bit_length())

    return gen(4)[0]


def sympify_reference(text: str) -> RatPoly:
    """The expression read by sympy (decimals as exact rationals)."""
    t = sympy.Symbol("t")
    expr = sympy.sympify(text.replace("^", "**"), locals={"t": t}, rational=True)
    coeffs = reversed(sympy.Poly(expr, t).all_coeffs())
    return RatPoly.of([Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs)])


class TestParsePoly:
    def test_expression(self):
        assert parse_poly("t^5 - 2") == poly(-2, 0, 0, 0, 0, 1)

    def test_coefficients(self):
        assert parse_poly("-2,0,0,0,0,1") == poly(-2, 0, 0, 0, 0, 1)

    def test_precedence(self):
        assert parse_poly("-t**2 + 2*t^3/4 - (1 - t)^2") == poly(-1, 2, -2, Fraction(1, 2))

    def test_decimal_is_exact(self):
        assert parse_poly("0.1*t + .5") == poly(Fraction(1, 2), Fraction(1, 10))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(rationals, max_size=MAX_DEGREE + 1))
    def test_round_trip(self, coeffs):
        f = RatPoly.of(coeffs)
        assert parse_poly(str(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(t_expressions())
    def test_matches_sympify(self, text):
        assert parse_poly(text) == sympify_reference(text)

    @pytest.mark.parametrize(
        "text",
        ["t^(2)", "2t", "t^2^2", "t^-1", "(t^9)^2", "t^16*t", "((9^16)^16)^16",
         "((((999999)^4)^4)^4)^4", "1e5", "(" * 5000],
        ids=["paren-exponent", "implicit-product", "chained-power", "negative-exponent",
             "power-degree", "product-degree", "constant-tower", "nested-constant-powers",
             "exponent-notation", "deep-nesting"],
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_poly(text)


class TestAnalyze:
    def test_split_trivial(self, split_pencil_file, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--json", "--out", str(out), "analyze", str(split_pencil_file)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["classification"]["kind"] == "SPLIT_TRIVIAL_BRAUER"
        assert report["galois"]["label"] == "REDUCIBLE"
        assert report["brauer_dimension"] == 0

    def test_brauer_group_computed_once(self, split_pencil_file, monkeypatch):
        # the split classification reads the B-group that the report states
        calls = count_calls(monkeypatch, "b_delta_group", "quadpencil.pencil")
        assert main(["--json", "analyze", str(split_pencil_file)]) == 0
        assert len(calls) == 1

    def test_irreducible_f20(self, t52_pencil_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--json", "--out", str(out), "analyze", str(t52_pencil_file)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["classification"]["kind"] == "IRREDUCIBLE"
        assert report["galois"]["label"] == "F20"

    def test_huge_square_root_decided(self, tmp_path):
        # delta' = (10^300 t + 7)^2: the square class of the component is
        # decided by a root with coefficients of thousands of digits
        model = canonical_quadrics(poly(-2, 0, 0, 0, 0, 1), poly(7, 10**300) * poly(7, 10**300))
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(model.to_pencil()))
        out = tmp_path / "report.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) == 0
        report = json.loads(out.read_text())
        assert report["square_flags"] == ["square"]
        assert report["classification"]["kind"] == "IRREDUCIBLE"

    def test_schema(self, split_pencil_file, tmp_path):
        out = tmp_path / "report.json"
        main(["--json", "--out", str(out), "analyze", str(split_pencil_file)])
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())

    def test_real_witness_schema(self, split_pencil_file, tmp_path):
        # the schema admits exactly the two exact real certificates
        definite = tmp_path / "definite.json"
        definite.write_text(pencil_dumps(Pencil(diag(1, 1, 1, 1, 1), diag(0, 1, 2, 3, 4))))
        schema = load_schema()
        reals = []
        for path in (split_pencil_file, definite):
            out = tmp_path / "report.json"
            main(["--json", "--out", str(out), "analyze", str(path)])
            report = json.loads(out.read_text())
            jsonschema.validate(report, schema)
            reals.append(report["local_certificates"][0])
        soluble, insoluble = reals
        assert soluble["verdict"] == "soluble" and "indefinite_members_at" in soluble["witness"]
        assert insoluble["verdict"] == "insoluble"
        assert insoluble["witness"]["signature"] == [5, 0]
        t = Fraction(insoluble["witness"]["definite_member_at"])
        assert all(1 - t * b > 0 for b in range(5))
        item = schema["properties"]["local_certificates"]["items"]
        for bad in (
            {**soluble, "witness": insoluble["witness"]},
            {**insoluble, "witness": None},
            {**soluble, "witness": {"point": [0.5, 0.5, 0.5, 0.5, 0.0]}},
        ):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, {**item, "definitions": schema["definitions"]})

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps({"phi1": [["1/0"] * 5] * 5, "phi2": [["1/1"] * 5] * 5}),
        ],
        ids=["not-json", "zero-denominator"],
    )
    def test_malformed_input(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_int64_overflow_quintic(self, tmp_path):
        # delta' = c P' with c the squarefree part of disc(P): the canonical
        # pencil of this quintic has entries beyond int64
        P = parse_poly("t^5+9*t^4-9*t^3+3*t+8")
        model = canonical_quadrics(P, P.derivative() * squarefree_part(int(discriminant(P))))
        pen = model.to_pencil()
        assert max(abs(x) for m in (pen.phi1, pen.phi2) for row in m for x in row) > 2**63
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(pen))
        out = tmp_path / "report.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) == 0
        report = json.loads(out.read_text())
        assert [c["place"] for c in report["local_certificates"]][1:] == ["3", "5", "7", "11", "13"]

    def test_singular_pencil(self, tmp_path):
        m = [["1/1"] * 5 for _ in range(5)]
        path = tmp_path / "sing.json"
        path.write_text(json.dumps({"phi1": m, "phi2": m}))
        assert main(["analyze", str(path)]) == 1

    def test_pencil_determinant_computed_once(self, tmp_path, monkeypatch):
        import random

        import quadpencil.pencil as pencil_mod

        pen = pencil_mod.random_pencil(random.Random(314))
        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(pen))
        calls = []
        original = pencil_mod._int_char_poly

        def counting(a, b):
            if (a, b) == pen.cleared[1:]:
                calls.append(1)
            return original(a, b)

        monkeypatch.setattr(pencil_mod, "_int_char_poly", counting)
        assert main(["--json", "--out", str(tmp_path / "r.json"), "analyze", str(path)]) in (0, 2)
        assert len(calls) == 1

    def test_factor_q_on_p_only(self, tmp_path, monkeypatch):
        import random

        from quadpencil.pencil import random_pencil

        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(random_pencil(random.Random(314))))
        calls = count_factor_q(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) in (0, 2)
        report = json.loads(out.read_text())
        assert report["galois"]["label"] != "REDUCIBLE"
        P = RatPoly.of(report["P"])
        assert calls == [P]

    @pytest.mark.parametrize("kind", ["random", "readme-split"])
    def test_factor_q_without_sympy(self, kind, tmp_path, monkeypatch):
        # factor_q proves P irreducible (h = 9) or completely split itself,
        # and no sympy is imported
        import random

        from quadpencil.pencil import random_pencil

        if kind == "random":
            pen = random_pencil(random.Random(9))
        else:
            pen = canonical_quadrics(RatPoly.from_roots([0, 1, 2, 3, 4]), [5, 5, 1, 1, 1]).to_pencil()
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(pen))
        refuse_sympy(monkeypatch)
        assert main(["--json", "--out", str(tmp_path / "r.json"), "analyze", str(path)]) in (0, 2)

    def test_smooth_pencil_takes_no_rational_gcd(self, tmp_path, monkeypatch):
        import random

        from quadpencil.pencil import random_pencil

        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(random_pencil(random.Random(314))))
        calls = []
        original = RatPoly.gcd

        def counting(f, g):
            calls.append((f, g))
            return original(f, g)

        monkeypatch.setattr(RatPoly, "gcd", counting)
        assert main(["--json", "--out", str(tmp_path / "r.json"), "analyze", str(path)]) in (0, 2)
        assert calls == []

    def test_s5_analyze_takes_each_discriminant_and_resultant_once(self, tmp_path, monkeypatch):
        # disc(P) once, shared by Galois, the bad set and the square test of
        # its one delta component (smoothness is decided mod a small prime);
        # likewise Res(P, delta) for the bad set, the square test and the B
        # group
        import random

        from quadpencil.pencil import random_pencil

        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(random_pencil(random.Random(314))))
        discs = count_calls(monkeypatch, "discriminant")
        resultants = count_calls(monkeypatch, "resultant")
        out = tmp_path / "r.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) in (0, 2)
        report = json.loads(out.read_text())
        assert report["galois"]["label"] == "S5"
        assert discs == [RatPoly.of(report["P"])]
        assert len(resultants) == len(set(resultants))
        assert (RatPoly.of(report["P"]), RatPoly.of(report["delta_reps"][0])) in resultants

    def test_s5_analyze_reads_one_principal_minor(self, tmp_path, monkeypatch):
        # the delta component of the irreducible P is one diagonal cofactor,
        # a 4x4 principal minor at t = 0..4; the other eliminations are
        # det(phi1 - t phi2) at t = 0..5, the two definiteness tests of the
        # real place, disc(P) and Res(P, delta), 9x9 Sylvester matrices, and
        # the 2x2 Jacobian minors of the level-1 Hensel tests of the sweep
        import random

        from quadpencil.pencil import random_pencil

        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(random_pencil(random.Random(314))))
        eliminations = count_calls(monkeypatch, "_bareiss")
        out = tmp_path / "r.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) in (0, 2)
        assert json.loads(out.read_text())["galois"]["label"] == "S5"
        assert sorted(len(a) for a in eliminations) == [2] * 18 + [4] * 5 + [5] * 8 + [9] * 2

    def test_galois_failure_is_one_error_line(self, t52_pencil_file, monkeypatch, capsys):
        import quadpencil.galois as galois_mod

        def failing(P):
            raise ArithmeticError("resolvent coefficient not divisible by 625^6")

        monkeypatch.setattr(galois_mod, "resolvent_sextic", failing)
        assert main(["--json", "analyze", str(t52_pencil_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "625^6" in lines[0]

    def test_determinism(self, split_pencil_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["--json", "--out", str(out1), "analyze", str(split_pencil_file)])
        main(["--json", "--out", str(out2), "analyze", str(split_pencil_file)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_random_pencil(self, tmp_path):
        import random

        from quadpencil.pencil import random_pencil

        pen = random_pencil(random.Random(314))
        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(pen))
        out = tmp_path / "report.json"
        code = main(["--json", "--out", str(out), "analyze", str(path)])
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())
        assert code in (0, 2)
        assert sum(len(f) - 1 for f in report["factors"]) == 5  # degrees sum to 5
        assert report["galois"]["label"] in ("C5", "D10", "F20", "A5", "S5", "REDUCIBLE")

    def test_witness_in_report(self, t52_pencil_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "--json",
                "--out",
                str(out),
                "analyze",
                str(t52_pencil_file),
                "--conditions",
                "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["witness"]["primes"] == [151]


@pytest.mark.parametrize(
    "argv",
    [
        ["kummer", "--poly", "t^5-2", "--b", "1/0"],
        ["canon", "--poly", "t^5-1/0"],
        ["canon", "--poly", "t^5+x"],
        ["canon", "--poly", "t^5+1/t"],
        ["canon", "--poly", "sin(t)"],
        ["canon", "--poly", "t^5+"],
        ["search", "--poly", "t^5-2", "--conditions", "[[1,0"],
        ["search", "--poly", "t^5-2", "--conditions", "[[[1,0],[1,0]]]"],
        ["search", "--poly", "0", "--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"],
        ["search", "--poly", "1", "--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"],
        ["search", "--poly", "t^5", "--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"],
        ["analyze", "PENCIL", "--conditions", "[[1,0"],
        ["analyze", "PENCIL", "--conditions", "[[[1,0],[1,0]]]"],
        ["analyze", "PENCIL", "--conditions", "[[[5,0]]]"],
        ["analyze", "PENCIL", "--conditions", "[]"],
        ["search", "--poly", "t*(t-1)*(t-2)*(t-3)*(t-4)", "--delta", "5;5;1;1;1", "--conditions", "[]"],
        ["canon", "--poly", "t^5-2", "--delta", "t^2+__import__('os').getpid()"],
        ["canon", "--poly", "9**9**9**9"],
        ["canon", "--poly", "t^17"],
        ["canon", "--poly", "2t"],
        ["local", "PENCIL", "--places", "a"],
        ["local", "PENCIL", "--places", "4"],
        ["simulate", "--dims", "a"],
        ["simulate", "--dims", "3"],
        ["simulate", "--dims", "1000000"],
        ["simulate", "--dims", "4,18,4"],
        ["simulate", "--dims", ",".join(["2"] * 400)],
        ["--margin", "x", "analyze", "PENCIL"],
        ["--prime-bound-small", "5", "analyze", "PENCIL"],
        ["nosuchverb"],
        ["analyze"],
        ["canon"],
    ],
    ids=[
        "kummer-b-zero-denominator",
        "canon-zero-denominator",
        "canon-second-variable",
        "canon-negative-power",
        "canon-function",
        "canon-syntax",
        "search-conditions-not-json",
        "search-conditions-lengths",
        "search-poly-zero",
        "search-poly-constant",
        "search-poly-not-separable",
        "analyze-conditions-not-json",
        "analyze-conditions-lengths",
        "analyze-conditions-inadmissible",
        "analyze-conditions-empty",
        "search-conditions-empty",
        "canon-python-call",
        "canon-power-tower",
        "canon-exponent-above-bound",
        "canon-implicit-product",
        "local-places-not-integer",
        "local-places-not-prime",
        "simulate-dims-not-integer",
        "simulate-dims-odd",
        "simulate-dims-huge",
        "simulate-dims-above-cap",
        "simulate-too-many-places",
        "usage-margin-not-integer",
        "usage-no-split-prime-budget",
        "usage-unknown-verb",
        "usage-analyze-no-input",
        "usage-canon-no-poly",
    ],
)
def test_malformed_argument(argv, t52_pencil_file, capsys):
    argv = [str(t52_pencil_file) if a == "PENCIL" else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["kummer", "--poly", "t^5-2", "--b", "-7/3"], "--b"),
        (["canon", "--poly", "t^5-2", "--delta", "-t^2+2"], "--delta"),
        (["canon", "--poly", "-t^5+2"], "--poly"),
    ],
    ids=["kummer-b", "canon-delta", "canon-poly"],
)
def test_value_that_begins_with_a_dash(argv, option, capsys):
    # argparse takes the value for an option; the one error line says how
    # to write it, and the `=` form is read as the value
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: argument {option}: expected one argument")
    assert "--option=value" in lines[0]
    assert main(["kummer", "--poly", "t^5-2", "--b=-7/3"]) == 0
    assert "b = -7/3" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["missing/report.txt", "."], ids=["missing-directory", "directory"])
def test_unwritable_out(target, tmp_path, capsys):
    # the report is written after the verb's work, and that open fails
    assert main(["--out", str(tmp_path / target), "verify-lemmas"]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "analyze", "PENCIL"],
        ["--json", "canon", "--poly", "t^5-2"],
        ["--json", "kummer", "--poly", "t^5-2", "--b", "1"],
        ["--json", "search", "--poly", "t^5-2", "--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"],
        ["--json", "local", "PENCIL", "--places", "3"],
        ["--json", "simulate", "--systems", "5", "--dims", "2,2"],
        ["--json", "verify-lemmas"],
        ["kummer", "--poly", "t^5-2", "--b", "1"],
    ],
    ids=["analyze", "canon", "kummer", "search", "local", "simulate", "verify-lemmas", "human"],
)
def test_out_writes_stdout_bytes(argv, t52_pencil_file, tmp_path, capsys):
    # --out FILE holds exactly what the same command prints, with the same
    # exit code and nothing on stdout
    argv = [str(t52_pencil_file) if a == "PENCIL" else a for a in argv]
    code = main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "report"
    assert main(["--out", str(out), *argv]) == code
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


@pytest.mark.parametrize("value", [1.5, {"x": [object()]}, {1, 2}], ids=["float", "nested", "set"])
def test_report_value_without_json_form(value):
    # a report value of a type the encoder does not name fails loudly
    with pytest.raises(TypeError):
        _json_value(value)


def _cli_env() -> dict:
    """The environment of a `python -m quadpencil.cli` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("dims", ["0", "2", "0,2"])
def test_negative_control_without_dimension(dims):
    # no nonzero vector exists at total dimension 0, so a redraw of the
    # global subspace could never stop; at total dimension 2 the redrawn
    # line is the anisotropic vector, and duality cannot fail.  A
    # subprocess, so a hang fails
    proc = subprocess.run(
        [sys.executable, "-m", "quadpencil.cli", "simulate", "--dims", dims, "--negative-control"],
        capture_output=True, env=_cli_env(), text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["main", "verb"])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


class TestGoldenBytes:
    """The --json analyze reports of a fixed corpus, pinned by sha256: an
    optimisation of any stage must leave every byte as it was."""

    @staticmethod
    def _analyze(pen, tmp_path, capsys) -> tuple[int, str]:
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(pen))
        code = main(["--json", "analyze", str(path)])
        return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_random_corpus(self, tmp_path, capsys):
        import random

        from quadpencil.pencil import random_pencil

        rng = random.Random(0)
        digest = hashlib.sha256()
        for _ in range(24):
            code, out = self._analyze(random_pencil(rng, 9), tmp_path, capsys)
            digest.update(f"{code}:{out}\n".encode())
        assert digest.hexdigest() == "269d923dbc905fce4e6072f26ed3d63c904f33bd8e92847a4ba1d5d52a55d3ac"

    @pytest.mark.parametrize(
        "P, delta, expected",
        [
            ("t^5-2", "1", (0, "baf7264b9d30831f45f97f4bc2e7f6710fb5a1592df3fa52ec118e4031ba6d39")),
            (
                "t*(t-1)*(t-2)*(t-3)*(t-4)",
                "5;5;1;1;1",
                (0, "4cbafc199330982aea3ad9b31206deb1cf2e0f20e505cf7d8c9c6723c4a2984e"),
            ),
        ],
    )
    def test_canonical_pencils(self, P, delta, expected, tmp_path, capsys):
        q = parse_poly(P)
        pen = canonical_quadrics(q, parse_delta(delta, q)).to_pencil()
        assert self._analyze(pen, tmp_path, capsys) == expected

    def test_huge_height(self, tmp_path, capsys):
        # height 10^400: delta contents of 1,334 to 5,322 bits
        pen = Pencil(diag(10**400, -1, 2, -3, 5), diag(1, 2, 3, 4, 5))
        expected = (0, "9489b6765f8c3eddba462cd96889b6bea2b786b171db8597d69a503efbfb7bb8")
        assert self._analyze(pen, tmp_path, capsys) == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["canon", "--poly", "t^5-2"],
             "78f37f744f4d31519a24a59738846721e5f6d60f6b4902cd6d38ee5fc2acecc1"),
            (["kummer", "--poly", "t^5-2", "--delta", "t^2+2", "--b", "1"],
             "f78db026d88d331544b3c4caf02f979c50f37e90dcd2b3d14efb71979c37b6ce"),
            (["kummer", "--poly", "t*(t-1)*(t-2)*(t-3)*(t-4)", "--delta", "5;5;1;1;1", "--b", "7"],
             "8e4b1a5ea71ec5a67b04538ee7b31812b0e4b455cc0f2a2194ecc02a437c8c2c"),
            (["search", "--poly", "t^5-2", "--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"],
             "9909e402ec7e6133c044f0545b11c29aaff92f02d1f5ad35448ef714f7ca9620"),
            (["search", "--poly", "t^5-5*t+12", "--delta", "5*t^4-5",
              "--conditions", "[[[2,1],[2,1],[1,0]],[[2,0],[2,0],[1,0]]]"],
             "c5ac19a3ed47dd53fdd604594a5b76aaf7b9209c637e7dfd32b817388af2ee95"),
            (["simulate", "--systems", "200", "--dims", "4,4,4"],
             "860e8108eba6435c057a899c764f2ffdf468d04a1304ff472d05c8b7dd919637"),
            (["simulate", "--dims", "4,4,4,4,4", "--mode", "A", "--start-dim", "5"],
             "bfb2dffe2325aa60332e480dbf232f2255e4c80f2b429f96eb0b1822638f799b"),
            (["simulate", "--systems", "50", "--dims", "2,2,2", "--negative-control"],
             "fd27f03b20abd12f53c83bcb631308b6bdbfb8ea335db3318a5552fd7863c8ec"),
            (["--seed", "123", "simulate", "--systems", "40", "--dims", "2,4,2"],
             "2c83831a7223c1a4cc899bdd6b7fba3cfc69548c82c4a03205bca43c7db61323"),
            (["--seed", "5", "simulate", "--systems", "20", "--dims", "4,0,4", "--negative-control"],
             "60699a553d3d3cb52f6399d2cd25e68d63ea7c58206f08dcc6dc27efb570fcfe"),
            (["--seed", "9", "simulate", "--systems", "30", "--dims", "8,8,8", "--mode", "B",
              "--start-dim", "7", "--descent-seeds", "300"],
             "dd7e0cfe623fef0345831e7f4c7449ac9a24212c682616e2de859aa1c2ee5e64"),
        ],
        ids=["canon", "kummer-t5-2", "kummer-split", "search-t5-2", "search-d10",
             "simulate", "simulate-descent", "simulate-negative-control",
             "simulate-mixed-dims", "simulate-zero-place-control", "simulate-mode-b"],
    )
    def test_readme_examples(self, argv, expected, capsys):
        # the README's canon, kummer, search and simulate examples with --json,
        # and three more simulate runs: mixed dimensions, a zero-dimensional
        # place under the negative control, and a mode B descent
        code = main(["--json", *argv])
        assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == (0, expected)


class TestCanonKummer:
    def test_canon_json(self, tmp_path):
        out = tmp_path / "canon.json"
        assert main(["--json", "--out", str(out), "canon", "--poly", "t^5-2"]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "canonical-model"
        assert len(data["gram1"]) == 5

    def test_canon_human(self, capsys):
        assert main(["canon", "--poly", "t^5-2"]) == 0
        text = capsys.readouterr().out
        assert "Q1:" in text and "Q2:" in text

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_closed_stdout_is_one_error_line(self, json_flag):
        # a reader that closes the pipe early, as `| head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadpencil.cli", *json_flag, "canon", "--poly", "t^5-2", "--delta", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_kummer(self, tmp_path):
        out = tmp_path / "kummer.json"
        assert (
            main(["--json", "--out", str(out), "kummer", "--poly", "t^5-2", "--b", "1"]) == 0
        )
        data = json.loads(out.read_text())
        assert len(data["quadrics"]) == 3
        assert len(data["quadrics"][0]) == 6

    def test_kummer_per_factor_delta(self, tmp_path):
        out = tmp_path / "kummer.json"
        code = main(
            [
                "--json",
                "--out",
                str(out),
                "kummer",
                "--poly",
                "t*(t-1)*(t-2)*(t-3)*(t-4)",
                "--delta",
                "5;5;1;1;1",
                "--b",
                "7",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "verb, extra",
        [
            ("canon", []),
            ("kummer", ["--b", "1"]),
            ("search", ["--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"]),
        ],
        ids=["canon", "kummer", "search"],
    )
    def test_delta_count_mismatch(self, verb, extra, capsys):
        # three per-factor delta entries for the one factor of t^5 - 2
        assert main([verb, "--poly", "t^5-2", "--delta", "2,0,1", *extra]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: 3 delta entries for 1 factors"]

    def test_canon_factors_without_sympy(self, monkeypatch, capsys):
        refuse_sympy(monkeypatch)
        assert main(["canon", "--poly", "t^5-2"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["canon", "--delta", "5;5;1;1;1"],
            ["kummer", "--delta", "5;5;1;1;1", "--b", "7"],
            ["search", "--delta", "5;5;1;1;1", "--conditions", "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"],
        ],
        ids=["canon", "kummer", "search"],
    )
    def test_quintic_factored_once(self, argv, monkeypatch, capsys):
        P = "t*(t-1)*(t-2)*(t-3)*(t-4)"
        calls = count_factor_q(monkeypatch)
        assert main(["--json", argv[0], "--poly", P, *argv[1:]]) == 0
        assert calls == [parse_poly(P)]


class TestSearch:
    def test_identity_witness(self, tmp_path):
        out = tmp_path / "witness.json"
        code = main(
            [
                "--json",
                "--out",
                str(out),
                "search",
                "--poly",
                "t^5-2",
                "--conditions",
                "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["primes"] == [151]
        assert data["valuations"] == [1]

    def test_inadmissible(self, capsys):
        code = main(
            ["search", "--poly", "t^5-2", "--conditions", "[[[5,0]]]"]
        )
        assert code == 1

    def test_bound_exhausted(self):
        code = main(
            [
                "--prime-bound",
                "120",
                "search",
                "--poly",
                "t^5-2",
                "--conditions",
                "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]",
            ]
        )
        assert code == 2

    def test_analyze_bound_exhausted(self, tmp_path, capsys):
        # the same exhausted witness search from analyze --conditions: exit
        # 2, one error line
        import random

        from quadpencil.pencil import random_pencil

        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(random_pencil(random.Random(0), 9)))
        identity = "[[[1,0],[1,0],[1,0],[1,0],[1,0]]]"
        code = main(["--prime-bound", "120", "analyze", str(path), "--conditions", identity])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: no prime below 120 realizes condition")


class TestLocal:
    def test_places_without_factor_q(self, t52_pencil_file, monkeypatch, capsys):
        # splitting is read off the rational roots of P, so an irreducible
        # P is never factored
        calls = count_factor_q(monkeypatch)
        assert main(["--json", "local", str(t52_pencil_file), "--places", "3,5,7"]) == 0
        assert calls == []
        assert [c["place"] for c in json.loads(capsys.readouterr().out)["certificates"]] == [
            "real", "3", "5", "7"]

    def test_place_past_the_primality_bound(self, t52_pencil_file, capsys):
        # psi_13: Miller-Rabin with the first 13 prime bases is not exact
        # from here on, so the place is an error rather than a guess
        assert main(["local", str(t52_pencil_file), "--places", "3317044064679887385961981"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: primality of 3317044064679887385961981")

    def test_split_places_bytes(self, tmp_path, capsys):
        q = parse_poly("t*(t-1)*(t-2)*(t-3)*(t-4)")
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(canonical_quadrics(q, parse_delta("5;5;1;1;1", q)).to_pencil()))
        assert main(["--json", "local", str(path), "--places", "2,3,5,7"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "fe378d65731801cfac0fdd8a1ba77b366362c44bae49d183b3736552e31e70cd"

    def test_certificates(self, t52_pencil_file, tmp_path):
        out = tmp_path / "local.json"
        code = main(
            ["--json", "--out", str(out), "local", str(t52_pencil_file), "--places", "3,7"]
        )
        data = json.loads(out.read_text())
        places = [c["place"] for c in data["certificates"]]
        assert places[0] == "real"
        assert "3" in places and "7" in places
        assert code in (0, 2)

    @pytest.mark.parametrize("places", [[], ["--places", "3"]], ids=["default", "places-3"])
    def test_singular_pencil(self, places, tmp_path, capsys):
        m = [["1/1"] * 5 for _ in range(5)]
        path = tmp_path / "sing.json"
        path.write_text(json.dumps({"phi1": m, "phi2": m}))
        assert main(["local", str(path), *places]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: singular base locus: ") and err.count("\n") == 1

    def test_entry_beyond_float_range(self, tmp_path, capsys):
        # the real witness is exact at any height: one indefinite member on
        # each arc between the singular members t = a_i / b_i, the first two
        # on the arc through infinity, each written "n/d"
        d1, d2 = (1, -1, 2, -3, 5), (10**400, 2, -3, 4, -5)
        path = tmp_path / "huge.json"
        path.write_text(pencil_dumps(Pencil(diag(*d1), diag(*d2))))
        out = tmp_path / "local.json"
        assert main(["--json", "--out", str(out), "local", str(path), "--places", "3"]) == 0
        real = json.loads(out.read_text())["certificates"][0]
        assert real["verdict"] == "soluble" and list(real["witness"]) == ["indefinite_members_at"]
        texts = real["witness"]["indefinite_members_at"]
        ts = [Fraction(x) for x in texts]
        assert texts == [f"{t.numerator}/{t.denominator}" for t in ts]
        roots = sorted(Fraction(a, b) for a, b in zip(d1, d2))
        lo, hi, *mids = ts
        assert lo < roots[0] and roots[-1] < hi and len(mids) == 4
        assert all(r < m < s for r, m, s in zip(roots, mids, roots[1:]))
        for t in ts:
            assert {a - t * b > 0 for a, b in zip(d1, d2)} == {True, False}
        assert capsys.readouterr().err == ""


class TestSimulate:
    def test_default_all_pass(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main(
            ["--json", "--out", str(out), "simulate", "--systems", "40", "--dims", "4,2,4"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["duality"]["failures"] == 0
        assert data["twists"]["failures"] == 0

    def test_negative_control_detected(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main(
            [
                "--json",
                "--out",
                str(out),
                "simulate",
                "--systems",
                "30",
                "--dims",
                "2,2,2",
                "--negative-control",
            ]
        )
        assert code == 0  # failures detected as expected
        data = json.loads(out.read_text())
        assert data["duality"]["failures"] > 0

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["--json", "simulate", "--systems", "25", "--dims", "4,4"]
        main(argv[:1] + ["--out", str(a)] + argv[1:])
        main(argv[:1] + ["--out", str(b)] + argv[1:])
        assert a.read_bytes() == b.read_bytes()

    def test_descent_search(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main(
            [
                "--json",
                "--out",
                str(out),
                "simulate",
                "--systems",
                "5",
                "--dims",
                "4,4,4,4,4",
                "--mode",
                "A",
                "--start-dim",
                "5",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["descent"] is not None
        assert data["descent"]["dims"] == [5, 3, 1]


class TestVerifyLemmas:
    def test_table(self, capsys):
        assert main(["verify-lemmas"]) == 0
        text = capsys.readouterr().out
        assert "C5" in text and "ok" in text and "MISMATCH" not in text

    def test_json(self, tmp_path):
        out = tmp_path / "lemmas.json"
        assert main(["--json", "--out", str(out), "verify-lemmas"]) == 0
        data = json.loads(out.read_text())
        assert data["all_ok"]
        got = {r["subgroup"]: (r["h1_dim"], r["end_degree"]) for r in data["rows"]}
        assert got == {"C5": (0, 4), "D10": (0, 2), "F20": (0, 1), "A5": (0, 1), "S5": (0, 1)}


class TestParserReuse:
    def test_consecutive_calls_share_no_arguments(self, tmp_path, capsys):
        from quadpencil.cli import build_parser

        assert build_parser() is build_parser()
        out = tmp_path / "canon.json"
        argv = ["--json", "--seed", "7", "--out", str(out), "canon", "--poly", "t^5-2", "--delta", "3"]
        assert main(argv) == 0
        first = json.loads(out.read_text())
        assert first["seed"] == 7 and first["delta"] == ["3/1"]
        # no --json, --out, --seed or --delta carried over
        assert main(["canon", "--poly", "t^5-2"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["P = t^5 - 2", "delta' = 1"]
        assert main(["--json", "simulate", "--systems", "2", "--dims", "2", "--mode", "A",
                     "--descent-seeds", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["mode"] == "A"
        assert main(["--json", "simulate", "--systems", "2", "--dims", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 0 and report["config"]["mode"] is None


def test_every_option_is_read():
    """Each option of the parser, subcommands included, is read by cli.py
    as args.<dest>: an option that nothing reads is a dead knob."""
    from quadpencil.cli import build_parser

    text = (SRC / "quadpencil" / "cli.py").read_text()
    parsers, dests = [build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            dests.add(action.dest)
            if action.choices and isinstance(action.choices, dict):
                parsers.extend(action.choices.values())
    unread = sorted(d for d in dests - {"help", "command", "func"} if f"args.{d}" not in text)
    assert unread == []
