"""CLI tests: verbs, exit codes, schema validation, determinism."""

import json
from fractions import Fraction

import jsonschema
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from quadpencil.cli import _MAX_BITS, main, parse_poly
from quadpencil.canon import canonical_quadrics
from quadpencil.exact import MAX_DEGREE, RatPoly, discriminant, squarefree_part
from quadpencil.pencil import Pencil, pencil_dumps, matrix_of
from reference import count_calls, count_factor_q, diag, load_schema


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

    def test_irreducible_f20(self, t52_pencil_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--json", "--out", str(out), "analyze", str(t52_pencil_file)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["classification"]["kind"] == "IRREDUCIBLE"
        assert report["galois"]["label"] == "F20"

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
        original = pencil_mod.char_poly_t

        def counting(phi1, phi2):
            if (phi1, phi2) == (pen.phi1, pen.phi2):
                calls.append(1)
            return original(phi1, phi2)

        monkeypatch.setattr(pencil_mod, "char_poly_t", counting)
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

    def test_s5_analyze_takes_four_discriminants(self, tmp_path, monkeypatch):
        # disc(q) once for smoothness, disc(P) for Galois, the bad set and
        # the square test of its one delta component
        import random

        from quadpencil.pencil import random_pencil

        path = tmp_path / "random.json"
        path.write_text(pencil_dumps(random_pencil(random.Random(314))))
        calls = count_calls(monkeypatch, "discriminant")
        out = tmp_path / "r.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) in (0, 2)
        assert json.loads(out.read_text())["galois"]["label"] == "S5"
        assert len(calls) == 4

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


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]], ids=["main", "verb"])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


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


class TestLocal:
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
