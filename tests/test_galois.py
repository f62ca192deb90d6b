"""Tests for Galois profiles and Frobenius sampling."""

import itertools
import json
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import quadpencil.exact as exact_mod
import quadpencil.galois as galois_mod
import quadpencil.localarith as localarith_mod
from quadpencil import gf2
from quadpencil.canon import canonical_quadrics
from quadpencil.cli import main, parse_poly
from quadpencil.exact import (
    BadSet,
    RatPoly,
    cycle_type,
    discriminant,
    good_primes,
    is_square_q,
    resultant,
)
from quadpencil.galois import (
    _THETA_REPS,
    _rational_roots,
    _theta_value,
    _tschirnhausen,
    CLASS_SETS,
    GaloisProfile,
    RamifiedPrimeError,
    SignedFrobenius,
    frobenius_class,
    galois_group_quintic,
    resolvent_sextic,
)
from quadpencil.pencil import pencil_dumps
from reference import count_factor_q, galois_profile, shift, sympy_rational_roots, to_wreath


def poly(*coeffs):
    return RatPoly.of(coeffs)


T5_MINUS_2 = poly(-2, 0, 0, 0, 0, 1)
SPLIT_QUINTIC = RatPoly.from_roots([0, 1, 2, 3, 4])
S5_QUINTIC = poly(-1, -1, 0, 0, 0, 1)
D10_QUINTIC = poly(12, -5, 0, 0, 0, 1)
A5_QUINTIC = poly(-16, 20, 0, 0, 0, 1)
C5_QUINTIC = poly(1, 3, -3, -4, 1, 1)  # real subfield of the 11th cyclotomic field


def galois_bad_set(P):
    """2 and the primes dividing disc(P) or a denominator of P."""
    disc = discriminant(P)
    return BadSet((disc.numerator, disc.denominator, P.denominator_lcm()), 0)


def sample_cycle_types(P, count):
    """Cycle types of P at its first `count` good odd primes."""
    primes = itertools.islice(good_primes(galois_bad_set(P), 3), count)
    return [(p, cycle_type(P, p)) for p in primes]


KNOWN = [
    (S5_QUINTIC, "S5"),
    (T5_MINUS_2, "F20"),
    (D10_QUINTIC, "D10"),
    (A5_QUINTIC, "A5"),
    (C5_QUINTIC, "C5"),
]


class TestGaloisLabel:
    @pytest.mark.parametrize("P,label", KNOWN)
    def test_known_labels(self, P, label):
        prof = galois_profile(P)
        assert prof.label == label

    @pytest.mark.parametrize("P,label", KNOWN)
    def test_against_sympy(self, P, label):
        # independent oracle: sympy's own Galois group machinery
        from sympy.polys.numberfields.galoisgroups import galois_group

        t = sympy.Symbol("t")
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(P.coeffs))
        name = galois_group(sympy.Poly(expr, t), by_name=True)[0].name
        translate = {"C5": "C5", "D5": "D10", "M20": "F20", "A5": "A5", "S5": "S5"}
        assert translate[name] == galois_profile(P).label

    def test_reducible(self):
        assert galois_profile(SPLIT_QUINTIC).label == "REDUCIBLE"

    def test_c5_records_bound(self):
        prof = galois_profile(C5_QUINTIC, c5_bound=500)
        assert prof.label == "C5"
        assert prof.c5_bound == 500
        assert prof.probabilistic

    def test_d10_not_probabilistic(self):
        prof = galois_profile(D10_QUINTIC)
        assert prof.c5_bound is None

    def test_evidence_class_sets(self):
        # consistency over 100 sampled primes per polynomial
        for P, label in KNOWN:
            prof = galois_profile(P)
            for _, ct in prof.evidence:
                assert ct in CLASS_SETS[label], (label, ct)
            for _, ct in sample_cycle_types(P, 100):
                assert ct in CLASS_SETS[label], (label, ct)

    def test_s5_realizes_rich_types(self):
        # cycle-type sampling over 100 primes realizes a 5-cycle and a
        # transposition-bearing type
        types = {ct for _, ct in sample_cycle_types(S5_QUINTIC, 100)}
        assert (5,) in types
        assert any(2 in ct and ct != (2, 2, 1) for ct in types) or (2, 1, 1, 1) in types

    def test_shift_and_scale_invariance(self):
        # 50 random shifts/monic rescalings across the known labels
        import random

        rng = random.Random(11)
        done = 0
        while done < 50:
            P, label = KNOWN[done % len(KNOWN)]
            c = rng.randrange(-20, 21)
            lam = rng.choice([1, 2, 3, 5])
            # roots scaled by lam: Q(t) = lam^5 P(t / lam)
            scaled = RatPoly.of(
                [coef * Fraction(lam) ** (5 - i) for i, coef in enumerate(shift(P, c).coeffs)]
            )
            assert galois_profile(scaled).label == label
            done += 1

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            GaloisProfile("F20", True, Fraction(0), ())


class TestEvidenceWalk:
    @staticmethod
    def _record_cycle_types(monkeypatch):
        """Primes of every cycle_type call, from any module of the package."""
        primes = []
        original = exact_mod.cycle_type

        def recording(f, p):
            primes.append(p)
            return original(f, p)

        for module in (exact_mod, galois_mod, localarith_mod):
            monkeypatch.setattr(module, "cycle_type", recording)
        return primes

    def test_analyze_of_s5_pencil_samples_ten_primes(self, tmp_path, monkeypatch):
        pen = canonical_quadrics(S5_QUINTIC, poly(1)).to_pencil()
        path = tmp_path / "s5.json"
        path.write_text(pencil_dumps(pen))
        out = tmp_path / "report.json"
        primes = self._record_cycle_types(monkeypatch)
        assert main(["--json", "--out", str(out), "analyze", str(path)]) in (0, 2)
        report = json.loads(out.read_text())
        assert report["galois"]["label"] == "S5"
        assert len(primes) == 10
        assert [p for p, _ in report["galois"]["evidence"]] == primes

    def test_c5_hunt_walks_the_bounded_good_primes_once(self, monkeypatch):
        expected = list(good_primes(galois_bad_set(C5_QUINTIC), 3, 500))
        factors = [f for f, _ in exact_mod.factor_q(C5_QUINTIC)]
        primes = self._record_cycle_types(monkeypatch)
        factored = count_factor_q(monkeypatch)
        prof = galois_group_quintic(C5_QUINTIC, factors, c5_bound=500)
        assert prof.label == "C5"
        assert primes == expected
        assert [p for p, _ in prof.evidence] == expected[:10]
        # P arrives factored, and the resolvent's rational roots are lifted
        assert factored == []


class TestResolvent:
    def test_t5_minus_2_has_root(self):
        sext = resolvent_sextic(T5_MINUS_2)
        assert len(sext) == 7 and sext[0] == 1
        # 0 must be a root: constant coefficient vanishes
        assert sext[-1] == 0

    def test_s5_no_root(self):
        prof = galois_profile(S5_QUINTIC)
        assert prof.resolvent_root is None

    @staticmethod
    def _product_over_conjugates(roots):
        """prod_j (y - theta_j), high to low, expanded exactly from the roots."""
        out = [1]
        for perm in _THETA_REPS:
            th = _theta_value(roots, perm)
            out = [a - th * b for a, b in zip(out + [0], [0] + out)]
        return out

    @settings(max_examples=150, deadline=None)
    @given(
        roots=st.lists(st.integers(-60, 60), min_size=5, max_size=5),
        num=st.integers(-9, 9).filter(bool),
        den=st.integers(1, 9),
    )
    @example(roots=[-13, 17, 19, -23, 11], num=1, den=1)  # coefficients up to 1.06e6
    @example(roots=[3, -5, 11, -17, 19], num=7, den=4)  # integer quintic up to 9.8e20
    def test_matches_roots_oracle(self, roots, num, den):
        # the table against prod (y - theta_j) on the roots of the integer
        # quintic, for P and for P rescaled by x -> x / lam
        P = RatPoly.from_roots(roots)
        lam = Fraction(num, den)
        Q = RatPoly.of([c * lam ** (5 - i) for i, c in enumerate(P.coeffs)])  # roots lam * r
        for F, scaled in ((P, roots), (Q, [lam * r for r in roots])):
            mu = F.denominator_lcm()  # the integer quintic has roots mu * r
            assert resolvent_sextic(F) == self._product_over_conjugates([mu * r for r in scaled])


def sympy_tschirnhausen(coeffs: list[int], c: int):
    """Reference: Res_y(P(y), t - y^2 - c*y) with sympy, monic high to low,
    or None when it is not separable."""
    t, y = sympy.symbols("t y")
    Py = sympy.Poly([1] + list(reversed(coeffs[:-1])), y)
    q = sympy.Poly(sympy.resultant(Py.as_expr(), t - (y**2 + c * y), y), t)
    cs = [int(v) for v in q.all_coeffs()]
    if cs[0] < 0:
        cs = [-v for v in cs]
    if q.degree() != 5 or cs[0] != 1:
        return None
    return cs if sympy.gcd(sympy.Poly(cs, t), sympy.Poly(cs, t).diff(t)).is_ground else None


class TestExactAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-50, 50), min_size=5, max_size=5),
        c=st.integers(1, 3),
    )
    @example(coeffs=[0, 0, 0, 0, 0], c=1)  # t^5: every transform is inseparable
    @example(coeffs=[0, 1, 0, 0, 0], c=1)  # t^5 + t: its resolvent needs a transform
    def test_tschirnhausen(self, coeffs, c):
        P = RatPoly.of(coeffs + [1])
        q = _tschirnhausen(P, c)
        exact = None if q is None else [int(v) for v in reversed(q.coeffs)]
        assert exact == sympy_tschirnhausen(coeffs + [1], c)

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    @example(coeffs=[-2, 0, 0, 0, 0])  # t^5 - 2: resolvent root 0
    def test_resolvent_rational_roots(self, coeffs):
        sext = resolvent_sextic(RatPoly.of(coeffs + [1]))
        assert _rational_roots(RatPoly.of(sext[::-1])) == sympy_rational_roots(sext)


class TestNoFloat:
    @pytest.fixture(autouse=True)
    def no_root_finding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.polyroots called")

        monkeypatch.setattr(mpmath, "polyroots", refuse)

    @pytest.mark.parametrize("P,label", KNOWN)
    def test_labels(self, P, label):
        assert galois_profile(P).label == label

    @pytest.mark.parametrize(
        "P,delta,label,code",
        [
            ("t*(t-1)*(t-2)*(t-3)*(t-4)", [5, 5, 1, 1, 1], "REDUCIBLE", 2),  # 3-adic unknown
            ("t^5-2", [1], "F20", 0),
        ],
        ids=["split", "t5-2"],
    )
    def test_analyze(self, P, delta, label, code, tmp_path, capsys):
        model = canonical_quadrics(parse_poly(P), delta)
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(model.to_pencil()))
        out = tmp_path / "report.json"
        assert main(["--json", "--out", str(out), "analyze", str(path)]) == code
        assert json.loads(out.read_text())["galois"]["label"] == label
        assert capsys.readouterr().err == ""


class TestFrobenius:
    def test_t5_minus_2_trivial_delta(self):
        fr = frobenius_class(T5_MINUS_2, [(T5_MINUS_2, poly(1))], 11)
        assert all(b == 0 for b in fr.bits)
        # 2 is not a 5th power mod 11 while mu_5 lies in F_11, so t^5 - 2
        # stays irreducible mod 11
        assert fr.cycle_type == (5,)

    def test_split_delta_55111_at_7(self):
        factors = [(poly(-r, 1), poly(d)) for r, d in zip([0, 1, 2, 3, 4], [5, 5, 1, 1, 1])]
        fr = frobenius_class(SPLIT_QUINTIC, factors, 7)
        assert fr.cycle_type == (1, 1, 1, 1, 1)
        # 5 is a non-residue mod 7
        by_root = dict(zip([(7 - f[0]) % 7 for f in fr.local_factors], fr.bits))
        assert by_root == {0: 1, 1: 1, 2: 0, 3: 0, 4: 0}

    def test_ramified_rejected(self):
        with pytest.raises(RamifiedPrimeError):
            frobenius_class(T5_MINUS_2, [(T5_MINUS_2, poly(1))], 5)

    def test_zero_sum_relation(self):
        # sum of bits == residue bit of the rational norm at p, here 0 for
        # norm-square delta
        import random

        rng = random.Random(3)
        factors = [(T5_MINUS_2, (poly(0, 1) * poly(0, 1)) % T5_MINUS_2)]
        for p in (7, 11, 13, 17, 19, 23):
            fr = frobenius_class(T5_MINUS_2, factors, p)
            n = resultant(T5_MINUS_2, factors[0][1])
            assert is_square_q(n)
            assert sum(fr.bits) % 2 == 0

    def test_to_wreath_representative(self):
        fr = frobenius_class(T5_MINUS_2, [(T5_MINUS_2, poly(1))], 11)
        g = to_wreath(fr)
        assert gf2.parity(g.sign) == 0
        assert sorted(
            len(c) for c in _cycles(g.perm)
        ) == sorted(fr.cycle_type)


def _cycles(perm):
    seen, out = set(), []
    for i in range(5):
        if i in seen:
            continue
        c, j = [], i
        while j not in seen:
            seen.add(j)
            c.append(j)
            j = perm[j]
        out.append(c)
    return out
