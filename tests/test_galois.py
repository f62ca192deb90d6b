"""Tests for Galois profiles and Frobenius sampling."""

import itertools
import json
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import quadpencil.exact as exact_mod
import quadpencil.galois as galois_mod
from quadpencil import gf2
from quadpencil.canon import canonical_quadrics
from quadpencil.cli import _MAX_BITS, main, parse_poly
from quadpencil.exact import (
    BadSet,
    RatPoly,
    cycle_type,
    discriminant,
    factor_q,
    good_primes,
    integer_roots,
    is_square_q,
    resultant,
    unramified_prime,
)
from quadpencil.galois import (
    _tschirnhausen,
    GaloisProfile,
    RamifiedPrimeError,
    frobenius_class,
    galois_group_quintic,
    resolvent_has_rational_root,
    resolvent_sextic,
)
from quadpencil.localarith import condition_representative
from quadpencil.pencil import pencil_dumps
from f20_table import THETA_REPS, theta_value
from reference import (
    CLASS_SETS,
    count_calls,
    count_factor_q,
    delta_record,
    frobenius_datum,
    frobenius_ramified,
    galois_profile,
    shift,
    sympy_rational_roots,
    to_sympy,
)


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
    return BadSet((disc.numerator, disc.denominator, P.den), 0)


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

    def test_c5_records_automorphism(self):
        prof = galois_profile(C5_QUINTIC)
        assert prof.label == "C5"
        assert prof.certificate == poly(0, -3, 0, 1)  # t^3 - 3t
        assert is_automorphism(C5_QUINTIC, prof.certificate)

    def test_d10_not_probabilistic(self):
        # every label is proved: D10 by a good prime of cycle type (2,2,1),
        # the labels other than C5 and D10 without a certificate
        prof = galois_profile(D10_QUINTIC)
        p = prof.certificate
        assert p not in galois_bad_set(D10_QUINTIC) and cycle_type(D10_QUINTIC, p) == (2, 2, 1)
        for P, label in KNOWN + [(SPLIT_QUINTIC, "REDUCIBLE")]:
            prof = galois_profile(P)
            assert not hasattr(prof, "probabilistic") and not hasattr(prof, "c5_bound")
            assert (prof.certificate is None) == (label not in ("C5", "D10"))

    def test_evidence_class_sets(self):
        # consistency over 100 sampled primes per polynomial
        for P, label in KNOWN:
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
            GaloisProfile("F20", True, Fraction(0))
        with pytest.raises(ValueError):
            GaloisProfile("C5", True, Fraction(0))  # no automorphism
        with pytest.raises(ValueError):
            GaloisProfile("S5", False, None, 7)


def lehmer(n: int) -> RatPoly:
    """Emma Lehmer's quintic for n, cyclic of degree 5 for every integer n."""
    return poly(1, n**3 + 4 * n**2 + 10 * n + 10, n**4 + 5 * n**3 + 11 * n**2 + 15 * n + 5,
                -(2 * n**3 + 6 * n**2 + 10 * n + 10), n**2, 1)


def shift_and_scale(P: RatPoly, c: int, lam: Fraction) -> RatPoly:
    """The monic quintic whose roots are lam * (r - c) for the roots r of P."""
    Q = shift(P, c)
    return RatPoly.of([coef * lam ** (5 - i) for i, coef in enumerate(Q.coeffs)])


def is_automorphism(P: RatPoly, g: RatPoly) -> bool:
    """g != t and P(g) = 0 mod P, by sympy."""
    Ps, gs = to_sympy(P), to_sympy(g)
    return g != RatPoly.x() and g.degree < 5 and Ps.compose(gs).rem(Ps).is_zero


class TestCertificates:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(-30, 60), st.sampled_from([10**3, 10**4])),
        c=st.one_of(st.integers(-40, 40), st.sampled_from([10**6, -(10**12)])),
        lam=st.fractions(-9, 9, max_denominator=9).filter(bool),
    )
    @example(n=1, c=10**12, lam=Fraction(1))
    @example(n=-1, c=0, lam=Fraction(1, 7))
    def test_lehmer_quintics_are_c5(self, n, c, lam):
        P = shift_and_scale(lehmer(n), c, lam)
        prof = galois_profile(P)
        assert prof.label == "C5"
        assert is_automorphism(P, prof.certificate)

    @pytest.mark.parametrize("n", [-3, 17, 1000])
    def test_lehmer_against_sympy(self, n):
        from sympy.polys.numberfields.galoisgroups import galois_group

        assert galois_group(to_sympy(lehmer(n)), by_name=True)[0].name == "C5"

    @settings(max_examples=30, deadline=None)
    @given(
        control=st.sampled_from([(P, label) for P, label in KNOWN if label != "C5"]),
        c=st.integers(-10**6, 10**6),
        lam=st.fractions(-9, 9, max_denominator=9).filter(bool),
    )
    def test_controls_keep_their_labels(self, control, c, lam):
        P, label = control
        Q = shift_and_scale(P, c, lam)
        prof = galois_profile(Q)
        assert prof.label == label
        if label == "D10":
            p = prof.certificate
            assert p not in galois_bad_set(Q) and cycle_type(Q, p) == (2, 2, 1)

    def test_c5_at_the_coefficient_limit(self):
        # a shift by 10^245 puts P's coefficients just under the 4096 bits
        # the CLI parses, and g's constant term near 10^735
        P = shift(C5_QUINTIC, 10**245)
        assert 4000 < max(abs(c.numerator).bit_length() for c in P.coeffs) <= _MAX_BITS
        prof = galois_profile(P)
        assert prof.label == "C5"
        assert is_automorphism(P, prof.certificate)
        assert max(abs(c.numerator) for c in prof.certificate.coeffs) > 10**700

    def test_d10_past_split_primes(self):
        # scaling the roots by the (2,2,1) primes below the sixth totally
        # split prime of D10_QUINTIC makes them bad, so the walk meets six
        # split primes before its certificate
        types = sample_cycle_types(D10_QUINTIC, 80)
        split = [p for p, ct in types if ct == (1, 1, 1, 1, 1)]
        lam = 1
        for p, ct in types:
            if p < split[5] and ct == (2, 2, 1):
                lam *= p
        Q = shift_and_scale(D10_QUINTIC, 0, Fraction(lam))
        prof = galois_profile(Q)
        assert prof.label == "D10"
        p = prof.certificate
        assert p not in galois_bad_set(Q) and cycle_type(Q, p) == (2, 2, 1)
        walked = [q for q in good_primes(galois_bad_set(Q), 3, p) if q < p]
        assert sum(cycle_type(Q, q) == (1, 1, 1, 1, 1) for q in walked) >= 6


class TestPrimeWalk:
    @staticmethod
    def _record_cycle_types(monkeypatch):
        """Primes of every cycle_type call, from any module of the package."""
        primes = []
        original = exact_mod.cycle_type

        def recording(f, p):
            primes.append(p)
            return original(f, p)

        for module in (exact_mod, galois_mod):
            monkeypatch.setattr(module, "cycle_type", recording)
        return primes

    def test_analyze_of_s5_pencil_samples_no_primes(self, tmp_path, monkeypatch):
        pen = canonical_quadrics(S5_QUINTIC, poly(1)).to_pencil()
        path = tmp_path / "s5.json"
        path.write_text(pencil_dumps(pen))
        out = tmp_path / "report.json"
        primes = self._record_cycle_types(monkeypatch)
        assert main(["--json", "--out", str(out), "analyze", str(path)]) in (0, 2)
        galois = json.loads(out.read_text())["galois"]
        assert galois["label"] == "S5" and galois["certificate"] is None
        assert primes == []

    def test_c5_walk_stops_at_first_split_prime(self, monkeypatch):
        walk = good_primes(galois_bad_set(C5_QUINTIC), 3)
        expected = list(itertools.takewhile(lambda p: p <= 23, walk))
        assert cycle_type(C5_QUINTIC, 23) == (1, 1, 1, 1, 1)
        factors = exact_mod.factor_q(C5_QUINTIC)
        primes = self._record_cycle_types(monkeypatch)
        factored = count_factor_q(monkeypatch)
        prof = galois_group_quintic(delta_record(C5_QUINTIC, [(f, poly(1)) for f in factors]))
        assert prof.label == "C5"
        assert primes == expected
        assert all(cycle_type(C5_QUINTIC, p) == (5,) for p in expected[:-1])
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
        for perm in THETA_REPS:
            th = theta_value(roots, perm)
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
            mu = F.den  # the integer quintic has roots mu * r
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
        # where the sextic is separable, resolvent_has_rational_root lifts
        # its roots from the prime of the separability test
        P = RatPoly.of(coeffs + [1])
        sext = resolvent_sextic(P)
        expected = sympy_rational_roots(sext)
        f = RatPoly.of(sext[::-1])
        assert [Fraction(r) for r in integer_roots(f)] == expected
        if unramified_prime(f) is not None:
            assert resolvent_has_rational_root(P) == ((expected or [None])[0], 0)


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
            ("t*(t-1)*(t-2)*(t-3)*(t-4)", [5, 5, 1, 1, 1], "REDUCIBLE", 0),  # every place decided
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


ODD_PRIMES = list(sympy.primerange(3, 2000))
SHAPES = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
small_rationals = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 1, 1, 3, 5, 7])
)


@st.composite
def quintic_with_delta(draw):
    """A monic separable quintic, the product of random monic factors of a
    random shape (so irreducible, reducible or split), with a random nonzero
    delta representative per irreducible factor over Q."""
    P = RatPoly.of([1])
    for d in draw(st.sampled_from(SHAPES)):
        P = P * RatPoly.of(draw(st.lists(small_rationals, min_size=d, max_size=d)) + [1])
    assume(discriminant(P) != 0)
    factors = []
    for f in factor_q(P):
        d = RatPoly.of(draw(st.lists(small_rationals, min_size=f.degree, max_size=f.degree)))
        factors.append((f, d if not d.is_zero else poly(1)))
    return P, factors


class TestFrobenius:
    def test_t5_minus_2_trivial_delta(self):
        # 2 is not a 5th power mod 11 while mu_5 lies in F_11, so t^5 - 2
        # stays irreducible mod 11, and the bit of a square delta is 0
        assert frobenius_class(T5_MINUS_2, [(T5_MINUS_2, poly(1))], 11) == ((5, 0),)

    def test_split_delta_55111_at_7(self):
        roots, deltas = [0, 1, 2, 3, 4], [5, 5, 1, 1, 1]
        factors = [(poly(-r, 1), poly(d)) for r, d in zip(roots, deltas)]
        assert frobenius_class(SPLIT_QUINTIC, factors, 7) == ((1, 1), (1, 1), (1, 0), (1, 0), (1, 0))
        # 5 is a non-residue mod 7: the bit at each root, one pair at a time
        for pair, bit in zip(factors, [1, 1, 0, 0, 0]):
            assert frobenius_class(pair[0], [pair], 7) == ((1, bit),)

    def test_ramified_rejected(self):
        with pytest.raises(RamifiedPrimeError):
            frobenius_class(T5_MINUS_2, [(T5_MINUS_2, poly(1))], 5)

    @settings(max_examples=300, deadline=None)
    @given(quintic_with_delta(), st.one_of(st.sampled_from(ODD_PRIMES), st.sampled_from(ODD_PRIMES[:8])))
    @example((SPLIT_QUINTIC, [(poly(-r, 1), poly(d)) for r, d in zip(range(5), [5, 5, 1, 1, 1])]), 7)
    @example((T5_MINUS_2, [(T5_MINUS_2, poly(0, 1))]), 2)
    @example((T5_MINUS_2, [(T5_MINUS_2, poly(Fraction(1, 3)))]), 3)
    @example((T5_MINUS_2, [(T5_MINUS_2, poly(-3, 1))]), 241)  # 241 | Res = 3^5 - 2
    def test_against_full_factorization(self, P_factors, p):
        # the class from the distinct-degree split equals the one from the
        # full factorization of P mod p with one Euler bit per local factor,
        # and it is refused exactly at the primes dividing 2, a denominator,
        # disc(P) or some Res(P_i, d_i)
        P, factors = P_factors
        if frobenius_ramified(P, factors, p):
            with pytest.raises(RamifiedPrimeError):
                frobenius_class(P, factors, p)
        else:
            assert frobenius_class(P, factors, p) == frobenius_datum(P, factors, p)

    def test_takes_no_discriminant_or_resultant(self, monkeypatch):
        discs = count_calls(monkeypatch, "discriminant")
        resultants = count_calls(monkeypatch, "resultant")
        factors = [(poly(-r, 1), poly(d)) for r, d in zip(range(5), [5, 5, 1, 1, 1])]
        for P, fs in ((T5_MINUS_2, [(T5_MINUS_2, poly(0, 1))]), (SPLIT_QUINTIC, factors)):
            for p in (3, 5, 7, 11, 13, 241):
                try:
                    frobenius_class(P, fs, p)
                except RamifiedPrimeError:
                    pass
        assert discs == [] and resultants == []

    def test_zero_sum_relation(self):
        # sum of bits == residue bit of the rational norm at p, here 0 for
        # norm-square delta
        factors = [(T5_MINUS_2, (poly(0, 1) * poly(0, 1)) % T5_MINUS_2)]
        for p in (7, 11, 13, 17, 19, 23):
            datum = frobenius_class(T5_MINUS_2, factors, p)
            n = resultant(T5_MINUS_2, factors[0][1])
            assert is_square_q(n)
            assert sum(b for _, b in datum) % 2 == 0

    def test_condition_representative(self):
        datum = frobenius_class(T5_MINUS_2, [(T5_MINUS_2, poly(1))], 11)
        g = condition_representative(datum)
        assert gf2.parity(g.sign) == 0
        assert sorted(len(c) for c in _cycles(g.perm)) == sorted(length for length, _ in datum)


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
