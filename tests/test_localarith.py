"""Tests for local solubility, residues and the witness search."""

import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from quadpencil.exact import (
    RatPoly,
    discriminant,
    factor_q,
    is_square_q,
    resultant,
    strip_square_content,
    val_unit,
)
from quadpencil.canon import canonical_quadrics
from quadpencil.cli import main, parse_poly
from quadpencil.localarith import (
    DT_RES_NONZERO,
    DT_RES_ZERO,
    IDENTITY_CONDITION,
    BTWitness,
    InadmissibleConditionError,
    arc_points,
    bad_set_s0,
    diagonal_model,
    find_bT,
    padic_soluble,
    real_soluble,
    split_soluble,
)
from quadpencil.pencil import Pencil, matrix_of, normalize_pencil, pencil_dumps, random_pencil
import quadpencil.localarith as localarith_mod
from height_ladder import rational_pencil
from reference import (
    count_calls,
    delta_record,
    delta_residue_at,
    diagonal_insoluble_at,
    diagonal_primitive_count,
    fraction_sturm_chain,
    fraction_sturm_var,
    jacobian_rank,
    mat_congruent,
    signature,
    split_soluble_per_ball,
    time_limit,
    zeros_mod_p_by_enumeration,
)
from split_local import random_split


def poly(*coeffs):
    return RatPoly.of(coeffs)


def diag5(*entries):
    return matrix_of([[entries[i] if i == j else 0 for j in range(5)] for i in range(5)])


T5_MINUS_2 = poly(-2, 0, 0, 0, 0, 1)
SPLIT_QUINTIC = RatPoly.from_roots([0, 1, 2, 3, 4])
D10_QUINTIC = poly(12, -5, 0, 0, 0, 1)
D10_DELTA = strip_square_content(D10_QUINTIC.derivative())  # norm = disc, a square


class TestBadSet:
    def test_t5_minus_2(self):
        s0 = bad_set_s0(delta_record(T5_MINUS_2, [(T5_MINUS_2, poly(1))]), margin=100)
        assert 2 in s0 and 5 in s0
        assert 97 in s0  # margin
        assert 101 not in s0

    def test_margin_definition(self):
        s0 = bad_set_s0(delta_record(SPLIT_QUINTIC), margin=50)
        for p in (2, 3, 5, 7, 11, 47):
            assert p in s0
        assert 53 not in s0

    def test_delta_denominator(self):
        s0 = bad_set_s0(
            delta_record(T5_MINUS_2, [(T5_MINUS_2, poly(Fraction(1, 7)))]), margin=5
        )
        assert 7 in s0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=5, max_size=5),
        st.integers(1, 6),
        st.one_of(
            st.fractions(-50, 50, max_denominator=30).filter(bool).map(lambda c: [c]),
            st.just(None),
            st.lists(st.fractions(-9, 9, max_denominator=6), min_size=2, max_size=5),
        ),
        st.sampled_from([2, 14, 100]),
    )
    def test_matches_factoring_definition(self, low, lead, delta, margin):
        """S0 by division equals S0 by factoring; delta is a nonzero
        constant, the derivative (None) or a small polynomial."""
        P = RatPoly.of(low + [lead])
        d = P.derivative() if delta is None else RatPoly.of(delta)
        assume(discriminant(P) != 0 and not d.is_zero and resultant(P, d) != 0)
        s0 = bad_set_s0(delta_record(P, [(P, d)]), margin)

        def divisors(x: Fraction) -> set[int]:
            return set(sympy.factorint(abs(x.numerator))) | set(sympy.factorint(x.denominator))

        ref = {2} | set(sympy.primerange(2, margin))
        ref |= divisors(discriminant(P)) | divisors(resultant(P, d))
        ref |= set(sympy.factorint(P.denominator_lcm())) | set(sympy.factorint(d.denominator_lcm()))
        ref |= set(sympy.factorint(math.gcd(*(c.numerator for c in d.coeffs))))
        for p in sympy.primerange(2, 500):
            assert (p in s0) == (p in ref), p

    @pytest.mark.parametrize(
        "P, delta",
        [
            ("t*(t-1)*(t-2)*(t-3)*(t-4)", [5, 5, 1, 1, 1]),
            ("t^5-2", [1]),
        ],
        ids=["split", "t5-2"],
    )
    def test_cli_never_factors(self, P, delta, tmp_path, monkeypatch, capsys):
        model = canonical_quadrics(parse_poly(P), delta)
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(model.to_pencil()))

        def no_factoring(*args, **kwargs):
            raise AssertionError("factorint called")

        monkeypatch.setattr(sympy, "factorint", no_factoring)
        assert main(["--json", "analyze", str(path)]) in (0, 2)
        assert main(["--json", "local", str(path)]) in (0, 2)
        assert capsys.readouterr().err == ""


class TestSignature:
    def test_identity(self):
        assert signature(diag5(1, 1, 1, 1, 1)) == (5, 0)

    def test_mixed(self):
        assert signature(diag5(1, -1, 2, -3, 5)) == (3, 2)

    def test_congruence_invariance(self):
        rng = random.Random(4)
        m = diag5(1, -1, 2, -3, 5)
        u = matrix_of(
            [[1, 2, 0, 0, 1], [0, 1, 0, 0, 0], [3, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 2, 1]]
        )
        assert signature(mat_congruent(m, u)) == signature(m)


def far_roots():
    # magnitudes up to 10^400, beyond float range, and their reciprocals
    return st.sampled_from([10**12, 10**100, 10**400]).flatmap(
        lambda c: st.sampled_from([c, -c, Fraction(1, c)])
    )


def special_roots():
    # 0, +-2^j and dyadic midpoints are split points of the search
    dyadic = st.tuples(st.integers(-2**12, 2**12), st.integers(0, 12)).map(
        lambda nk: Fraction(nk[0], 2 ** nk[1])
    )
    powers = st.tuples(st.sampled_from([1, -1]), st.integers(-40, 40)).map(
        lambda sj: sj[0] * Fraction(2) ** sj[1]
    )
    return st.one_of(
        st.fractions(min_value=-20, max_value=20, max_denominator=6), dyadic, powers, far_roots()
    )


@st.composite
def arc_polynomials(draw):
    """Nonconstant polynomials with repeated, clustered (r, r + 2^-60), far
    and irrational real roots, quadratics without real roots, and a rational
    leading coefficient."""
    roots = draw(st.lists(special_roots(), max_size=4))
    roots += roots[: draw(st.integers(0, 3))] * draw(st.integers(1, 2))
    if roots and draw(st.booleans()):
        roots.append(roots[0] + Fraction(1, 2**60))
    f = RatPoly.from_roots(roots)
    for s in draw(st.lists(st.sampled_from([-2, -3, -7, 1, 2, 3]), max_size=2)):
        f = f * RatPoly.of([s, 0, 1])  # t^2 + s: roots +-sqrt(-s) when s < 0
    assume(f.degree >= 1)
    return f * draw(st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool))


class TestIsolateRoots:
    """arc_points isolates the real roots: lo, the separators and hi cut the
    line into arcs holding one distinct root each."""

    def test_split_quintic(self):
        lo, hi, *separators = arc_points(SPLIT_QUINTIC)
        assert lo < 0 and hi > 4 and len(separators) == 4
        assert all(r < s < r + 1 for r, s in enumerate(separators))

    def test_gaps_are_strict(self):
        lo, hi, *separators = arc_points(SPLIT_QUINTIC)
        ordered = [lo, *separators, hi]
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        assert all(SPLIT_QUINTIC(x) != 0 for x in ordered)

    def test_multiple_roots_on_bisection_points(self):
        # the first two have a multiple root at 0, the first midpoint of the
        # symmetric start interval; each multiple root is isolated once
        cases = [
            (poly(0, 0, -1, 1), [0, 1]),
            (poly(0, 0, 0, 1, -2, 1) * poly(3, 1), [-3, 0, 1]),
            (RatPoly.from_roots([Fraction(1, 2)] * 3 + [2, 2, -5]) * Fraction(-7, 3), [-5, Fraction(1, 2), 2]),
        ]
        with time_limit(10):
            for f, roots in cases:
                lo, hi, *separators = arc_points(f)
                ordered = [lo, *separators, hi]
                assert len(ordered) == len(roots) + 1
                assert all(a < r < b for a, b, r in zip(ordered, ordered[1:], roots))

    # the rational Sturm chain of tests/reference.py is the oracle: no point
    # is a root, lo and hi enclose every root, consecutive points of lo,
    # separators, hi enclose exactly one distinct root, and [0] exactly when
    # there is no real root
    @settings(max_examples=60, deadline=None)
    @given(f=arc_polynomials())
    # degree 4 with no real root
    @example(f=poly(1, 0, 1) * poly(2, 0, 1))
    def test_against_oracle(self, f):
        with time_limit(20):
            points = arc_points(f)
        chain = fraction_sturm_chain(f)
        bound = 1 + max(abs(c / f.lc) for c in f.coeffs)  # Cauchy
        n_roots = fraction_sturm_var(chain, -bound) - fraction_sturm_var(chain, bound)
        assert all(f(x) != 0 for x in points)
        if n_roots == 0:
            assert points == [0]
            return
        lo, hi, *separators = points
        ordered = [lo, *separators, hi]
        assert len(ordered) == n_roots + 1
        counts = [
            fraction_sturm_var(chain, a) - fraction_sturm_var(chain, b)
            for a, b in zip(ordered, ordered[1:])
        ]
        assert counts == [1] * n_roots

    # non-monic, rational coefficients, repeated roots, roots near 10^100
    @settings(max_examples=30, deadline=None)
    @given(
        roots=st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6), min_size=1, max_size=4
        ),
        repeat=st.integers(0, 2),
        far=st.sampled_from([None, 10**12]),
        cofactor=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=2),
        lc=st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool),
    )
    @example(
        roots=[Fraction(0), Fraction(1)], repeat=1, far=10**100, cofactor=[], lc=Fraction(-3, 2),
    )
    @example(
        roots=[Fraction(-7, 2), Fraction(5)], repeat=0, far=10**100,
        cofactor=[Fraction(1, 3), 0], lc=Fraction(2, 5),
    )
    def test_against_rational_chain(self, roots, repeat, far, cofactor, lc):
        if far is not None:
            roots = roots + [far + roots[0]]
        f = RatPoly.from_roots(roots + roots[:repeat]) * RatPoly.of(cofactor + [1]) * lc
        chain = localarith_mod._sturm_chain(f)
        reference_chain = fraction_sturm_chain(f)
        assert len(chain) == len(reference_chain)
        for g, h in zip(chain, reference_chain):
            ratio = h.lc / g[-1]
            assert ratio > 0 and RatPoly.of(g) * ratio == h
        for x in roots + [r + Fraction(1, 7) for r in roots] + [Fraction(0)]:
            assert localarith_mod._sturm_var(chain, x) == fraction_sturm_var(reference_chain, x)


class TestRealSoluble:
    def test_definite_member_insoluble(self):
        pencil = Pencil(diag5(1, 1, 1, 1, 1), diag5(0, 1, 2, 3, 4))
        cert = real_soluble(pencil)
        assert cert.verdict == "insoluble"

    def test_canonical_model_soluble(self):
        model = canonical_quadrics(SPLIT_QUINTIC, poly(1))
        cert = real_soluble(model.to_pencil())
        assert cert.verdict == "soluble"

    def test_indefinite_everywhere_soluble(self):
        # the pairs (phi1_ii, phi2_ii) point in five distinct directions with
        # no half-plane holding them all, so every member is indefinite (the
        # pencil is smooth: the ratios 1, -1, 2, -3, 3 are distinct)
        pencil = Pencil(diag5(1, 1, 1, -1, -1), diag5(1, -1, 2, 3, -3))
        cert = real_soluble(pencil)
        assert cert.verdict == "soluble"

    def test_no_real_singular_member(self):
        # char polynomial (t^2+1)(t^2+2) of degree 4: no real roots and a
        # singular member at infinity; one sample decides the whole circle
        phi1 = matrix_of(
            [
                [1, 0, 0, 0, 0],
                [0, -1, 0, 0, 0],
                [0, 0, 2, 0, 0],
                [0, 0, 0, -1, 0],
                [0, 0, 0, 0, 1],
            ]
        )
        phi2 = matrix_of(
            [
                [0, 1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        from quadpencil.pencil import char_poly_t

        q = char_poly_t(phi1, phi2)
        assert q.degree == 4
        assert arc_points(q) == [0]
        pencil = Pencil(phi1, phi2)
        pencil.smoothness_certificate
        assert real_soluble(pencil).verdict == "soluble"

    def test_huge_height_sturm_work(self, monkeypatch):
        # singular members at 10^400 and at four small t: the search finds
        # magnitudes by bisecting exponents, so the work grows with the bit
        # length of the height's logarithm, not with the height itself
        pencil = Pencil(diag5(10**400, -1, 2, -3, 5), diag5(1, 2, 3, 4, 5))
        calls = count_calls(monkeypatch, "_sturm_var", "quadpencil.localarith")
        assert real_soluble(pencil).verdict == "insoluble"
        assert len(calls) <= 64

    def test_congruence_invariance(self):
        rng = random.Random(13)
        for _ in range(5):
            pencil = random_pencil(rng)
            u = matrix_of(
                [[1, 0, 0, 0, 2], [1, 1, 0, 0, 0], [0, 0, 1, 3, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
            )
            conj = Pencil(
                mat_congruent(pencil.phi1, u), mat_congruent(pencil.phi2, u)
            )
            assert real_soluble(pencil).verdict == real_soluble(conj).verdict

    def test_float_scan_agreement(self):
        rng = random.Random(77)
        for _ in range(6):
            pencil = random_pencil(rng)
            cert = real_soluble(pencil)
            a1 = np.array([[float(x) for x in row] for row in pencil.phi1])
            a2 = np.array([[float(x) for x in row] for row in pencil.phi2])
            definite = False
            for theta in np.linspace(0, np.pi, 1000, endpoint=False):
                m = np.cos(theta) * a1 - np.sin(theta) * a2
                ev = np.linalg.eigvalsh(m)
                if ev[0] > 1e-9 or ev[-1] < -1e-9:
                    definite = True
                    break
            assert cert.verdict == ("insoluble" if definite else "soluble")


def oracle_padic_p4(model, p):
    """Independent oracle: plain enumeration of P^4(F_p) plus smooth check."""
    den = 1
    from math import lcm

    for m in model:
        for row in m:
            for x in row:
                den = lcm(den, x.denominator)
    forms = [[[int(x * den) % p for x in row] for row in m] for m in model]
    pts = []
    for vec in itertools.product(range(p), repeat=5):
        nz = [i for i, v in enumerate(vec) if v]
        if not nz or vec[nz[0]] != 1:
            continue
        vals = [
            sum(vec[i] * f[i][j] * vec[j] for i in range(5) for j in range(5)) % p
            for f in forms
        ]
        if any(vals):
            continue
        pts.append(vec)
    if not pts:
        return "insoluble"
    for vec in pts:
        rows = [
            [2 * sum(f[i][j] * vec[j] for j in range(5)) % p for i in range(5)]
            for f in forms
        ]
        # rank over F_p
        a = [r[:] for r in rows]
        rank = 0
        rr = 0
        for col in range(5):
            piv = next((r for r in range(rr, len(a)) if a[r][col] % p), None)
            if piv is None:
                continue
            a[rr], a[piv] = a[piv], a[rr]
            inv = pow(a[rr][col], -1, p)
            a[rr] = [v * inv % p for v in a[rr]]
            for r2 in range(len(a)):
                if r2 != rr and a[r2][col] % p:
                    f2 = a[r2][col]
                    a[r2] = [(v - f2 * w) % p for v, w in zip(a[r2], a[rr])]
            rank += 1
            rr += 1
        if rank == len(forms):
            return "soluble"
    return "singular-only"


def chart_order_scan(model, p):
    """(first smooth common zero or None, whether any common zero exists) of
    integer forms over P^(n-1)(F_p), in the chart order of
    `zeros_mod_p_by_enumeration`.  The forms are divided by their p-content
    first."""
    forms = []
    for m in model:
        f = [[int(x) for x in row] for row in m]
        while all(v % p == 0 for row in f for v in row):
            f = [[v // p for v in row] for row in f]
        forms.append(f)
    n = len(forms[0])
    any_zero = False
    for x in zeros_mod_p_by_enumeration(forms, p):
        any_zero = True
        grads = [[2 * sum(f[i][j] * x[j] for j in range(n)) % p for i in range(n)]
                 for f in forms]
        # two gradients are independent mod p iff some 2x2 minor is a unit
        if any((grads[0][a] * grads[1][b] - grads[0][b] * grads[1][a]) % p
               for a, b in itertools.combinations(range(n), 2)):
            return list(x), True
    return None, any_zero


@st.composite
def integer_models(draw):
    """(forms, p): 1-3 symmetric integer forms in 2-5 variables, entries
    from small to far beyond int64, many of them multiples of p so that
    lines vanish and forms agree mod p; P^(n-1)(F_p) has at most 15,000
    points."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(2, max(k for k in range(2, 6) if p ** (k - 1) <= 15_000)))
    m = draw(st.integers(1, 3))
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**100), 2**100),
        st.integers(-(2**70), 2**70).map(lambda v: p * v),
    )
    forms = []
    for _ in range(m):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(entry)
        forms.append(a)
    return forms, p


class TestZerosModP:
    @settings(max_examples=150, deadline=None)
    @given(integer_models())
    def test_matches_enumeration(self, model):
        forms, p = model
        assert list(localarith_mod._zeros_mod_p(forms, p)) == list(zeros_mod_p_by_enumeration(forms, p))

    @pytest.mark.parametrize("forms, p", [
        # 2 x0 x2 vanishes on the whole line x2 = 0 of chart 0
        ([[[0, 0, 1], [0, 0, 0], [1, 0, 0]]], 5),
        # restricted to x2 = 0 both are multiples of x1^2 - x0^2
        ([[[-1, 0, 0], [0, 1, 0], [0, 0, 3]], [[-2, 0, 1], [0, 2, 0], [1, 0, 0]]], 7),
        # e_3 is a zero: no form has an x3^2 term mod p
        ([[[1, 1, 0, 0], [1, 0, 0, 2], [0, 0, 1, 0], [0, 2, 0, 3 * 10**30]],
          [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 2, 0], [0, 0, 0, 0]]], 3),
        # forms that vanish mod p: every point is a zero
        ([[[2, 4], [4, 6]], [[0, 2], [2, 2**80]]], 2),
    ])
    def test_explicit_cases(self, forms, p):
        zeros = list(localarith_mod._zeros_mod_p(forms, p))
        assert zeros == list(zeros_mod_p_by_enumeration(forms, p))
        assert zeros


@st.composite
def jacobian_cases(draw):
    """(forms, x, p): one or two symmetric integer forms in 3-5 variables,
    many entries multiples of every p drawn, and a point x."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(3, 5))
    m = draw(st.integers(1, 2))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70).map(lambda v: p * v))
    forms = []
    for _ in range(m):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(entry)
        forms.append(a)
    x = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))
    return forms, x, p


class TestLifting:
    @settings(max_examples=150, deadline=None)
    @given(jacobian_cases())
    @example(([[[1, 0, 0], [0, 0, 0], [0, 0, 0]]], [0, 1, 0], 3))
    @example(([[[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]], [1, 0, 0], 5))
    @example(([[[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]], [1, 0, 0], 2))
    def test_level_one_is_full_rank(self, case):
        # at level 1 the one Hensel test says "lifts" exactly when the
        # Jacobian has full rank mod p, at the drawn point and at the first
        # common zeros of the forms mod p
        forms, x, p = case
        m = len(forms)
        zeros = itertools.islice(localarith_mod._zeros_mod_p(forms, p), 30)
        for point in [tuple(x), *zeros]:
            cert = localarith_mod._lifting(forms, point, p, 1, "smooth point on the reduction")
            assert (cert is not None) == (jacobian_rank(forms, point, p) == m)
            if cert is not None:
                assert cert.verdict == "soluble" and cert.place.p == p
                assert cert.witness == {"point_mod_p": list(point), "level": 1, "minor_valuation": 0}


class TestPadicSoluble:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        entry_bound=st.sampled_from([1, 2, 9]),
        n=st.sampled_from([3, 4, 5]),
        p=st.sampled_from([3, 5, 7, 11, 13]),
    )
    def test_scan_matches_chart_order_reference(self, seed, entry_bound, n, p):
        # level 1 decides exactly: the first smooth zero in chart order is
        # the witness, and "insoluble" means no common zero at all; leading
        # principal submatrices (n < 5) reach the insoluble case
        pencil = random_pencil(random.Random(seed), entry_bound=entry_bound)
        model = [[row[:n] for row in m[:n]] for m in (pencil.phi1, pencil.phi2)]
        assume(all(any(any(row) for row in m) for m in model))
        smooth, any_zero = chart_order_scan(model, p)
        cert = padic_soluble(model, p, effort=1)
        if smooth is not None:
            assert cert.verdict == "soluble"
            assert cert.witness["point_mod_p"] == smooth
        elif any_zero:
            assert cert.verdict == "unknown"
        else:
            assert cert.verdict == "insoluble"

    def test_effort_zero_unknown(self):
        model = [diag5(1, 1, 1, 1, 1), diag5(0, 1, 2, 3, 4)]
        assert padic_soluble(model, 3, effort=0).verdict == "unknown"

    def test_smooth_reduction_soluble(self):
        rng = random.Random(5)
        pencil = random_pencil(rng)
        cert = padic_soluble([pencil.phi1, pencil.phi2], 7, effort=2)
        assert cert.verdict in ("soluble", "unknown")

    def test_anisotropic_ternary_insoluble(self):
        m = matrix_of([[1, 0, 0], [0, 1, 0], [0, 0, 3]])
        cert = padic_soluble([m], 3, effort=4)
        assert cert.verdict == "insoluble"

    def test_sum_of_squares_with_generic_form_p3(self):
        q1 = diag5(1, 1, 1, 1, 1)
        q2 = matrix_of(
            [[0, 1, 0, 0, 0], [1, 0, 2, 0, 0], [0, 2, 1, 0, 1], [0, 0, 0, 2, 0], [0, 0, 1, 0, 1]]
        )
        cert = padic_soluble([q1, q2], 3, effort=2)
        oracle = oracle_padic_p4([q1, q2], 3)
        if oracle == "soluble":
            assert cert.verdict == "soluble"
        elif oracle == "insoluble":
            assert cert.verdict == "insoluble"

    def test_oracle_agreement_corpus(self):
        rng = random.Random(99)
        for _ in range(6):
            pencil = random_pencil(rng, entry_bound=4)
            model = [pencil.phi1, pencil.phi2]
            for p in (3, 5):
                cert = padic_soluble(model, p, effort=2)
                oracle = oracle_padic_p4(model, p)
                if oracle == "soluble":
                    assert cert.verdict == "soluble"
                elif oracle == "insoluble":
                    assert cert.verdict == "insoluble"
                else:
                    assert cert.verdict in ("soluble", "insoluble", "unknown")

    def test_level_search_multiplies_residues(self, monkeypatch):
        # the cleared forms of the 10^30-rational pencil have entries of
        # thousands of bits; the level search reads them mod p^(effort + 1)
        pen = rational_pencil(30)
        assert max(abs(v) for m in pen.cleared[1:] for row in m for v in row) > 7**4
        calls = count_calls(monkeypatch, "_form_values", "quadpencil.localarith")
        cert = padic_soluble(pen.cleared[1:], 7, effort=3)
        assert cert.witness["level"] == 3 and calls
        assert all(0 <= v < 7**4 for forms, _ in calls for a in forms for row in a for v in row)

    def test_candidate_budget_bounds_the_refinement(self, monkeypatch):
        # the 10^10 rational rung at p = 11 has only singular zeros mod p
        # and no liftable candidate within reach: after one `_lifting` per
        # level-1 zero, the refinement tests at most 25,000 * effort
        # candidates and then answers "unknown"
        pen = rational_pencil(10)
        calls = count_calls(monkeypatch, "_lifting", "quadpencil.localarith")
        cert = padic_soluble(pen.cleared[1:], 11, effort=3)
        level_one = sum(1 for args in calls if args[3] == 1)
        assert cert.verdict == "unknown" and cert.reason == "candidate budget exhausted"
        assert level_one and len(calls) <= 25_000 * 3 + level_one

    def test_certificates_golden(self):
        # every certificate at p = 3, ..., 13 with effort 3 and 5 of 40
        # pencils at h = 9, 10 at h = 10^6 and the rational rungs 10^3 and
        # 10^30 of scripts/height_ladder.py, pinned by sha256, so reading
        # the forms mod p^(effort + 1) changes no byte
        rng = random.Random(0)
        corpus = [random_pencil(rng, 9) for _ in range(40)]
        corpus += [random_pencil(rng, 10**6) for _ in range(10)]
        corpus += [rational_pencil(k) for k in (3, 30)]
        digest = hashlib.sha256()
        for pen in corpus:
            for effort in (3, 5):
                for p in (3, 5, 7, 11, 13):
                    c = padic_soluble(pen.cleared[1:], p, effort=effort)
                    digest.update(json.dumps([str(c.place), c.verdict, c.reason, c.witness]).encode())
        assert digest.hexdigest() == "cf01101b40930c81339812ff46ad12a3369b89efd2aa27538ff298b265c7ee33"

    def test_escalation_consistency(self):
        # soluble never becomes insoluble when effort grows
        rng = random.Random(17)
        pencil = random_pencil(rng, entry_bound=3)
        model = [pencil.phi1, pencil.phi2]
        verdicts = [padic_soluble(model, 3, effort=e).verdict for e in (1, 2, 3)]
        for early, late in zip(verdicts, verdicts[1:]):
            if early in ("soluble", "insoluble"):
                assert late == early


def split_model(roots, deltas):
    """The canonical pencil of the split quintic with these roots and
    per-factor deltas, and its diagonal model."""
    pen = canonical_quadrics(RatPoly.from_roots(roots), deltas).to_pencil()
    norm = normalize_pencil(pen)
    return pen, diagonal_model(norm, factor_q(norm.P))


def check_hensel_witness(pen, p, witness):
    """The soluble witness re-checked from the pencil: a primitive common
    zero mod p^level of its p-primitive integer forms, at which the least
    valuation of a 2x2 minor of the Jacobian is minor_valuation, with
    2 minor_valuation < level."""
    x, level, e = witness["point_mod_pk"], witness["level"], witness["minor_valuation"]
    forms = []
    for m in pen.cleared[1:]:
        g = math.gcd(*(v for row in m for v in row))
        while g % p == 0:
            g //= p
            m = [[v // p for v in row] for row in m]
        forms.append(m)
    assert all(sum(x[i] * a[i][j] * x[j] for i in range(5) for j in range(5)) % p**level == 0
               for a in forms)
    assert any(v % p for v in x)
    rows = [[2 * sum(a[i][j] * x[j] for j in range(5)) for i in range(5)] for a in forms]
    minors = [rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
              for i, j in itertools.combinations(range(5), 2)]
    assert min(val_unit(Fraction(d), p)[0] for d in minors if d) == e
    assert 2 * e < level


# The precision up to which the oracle looks for a primitive solution mod
# p^k of an insoluble diagonal model: each insoluble verdict of random split
# pencils with roots in [-12, 12] is confirmed by then.
ORACLE_DEPTH = {2: 11, 3: 7, 5: 4, 7: 4}

# three split pencils (roots; deltas) whose places the search of
# padic_soluble leaves undecided at its candidate budget and branch cap
UNDECIDED_BY_SEARCH = [
    ([0, 1, 2, 3, 4], [5, 5, 1, 1, 1]),
    ([-3, 0, 2, 5, 7], [2, 3, 1, 1, 6]),
    ([-6, -5, 2, 7, 9], [5, 5, 1, 1, 1]),
]


@st.composite
def split_pencils(draw):
    """Roots in [-12, 12] and deltas whose product, the norm, is a square."""
    roots = draw(st.lists(st.integers(-12, 12), min_size=5, max_size=5, unique=True))
    deltas = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3, 5, 6, 7]), min_size=4, max_size=4))
    return sorted(roots), deltas + [math.prod(deltas)]


class TestSplitSoluble:
    @pytest.mark.parametrize("roots,deltas", UNDECIDED_BY_SEARCH)
    def test_diagonalization(self, roots, deltas):
        pen, model = split_model(roots, deltas)
        norm = normalize_pencil(pen)
        D = math.lcm(*(f[0].denominator for f in factor_q(norm.P)))
        v = model.vectors

        def form(m, a, b):
            return sum(a[i] * m[i][j] * b[j] for i in range(5) for j in range(5))

        for i in range(5):
            assert form(norm.m2, v[i], v[i]) == model.c[i] != 0
            assert D * form(norm.m1, v[i], v[i]) == model.roots[i] * model.c[i]
            for j in range(i):
                assert form(norm.m1, v[i], v[j]) == form(norm.m2, v[i], v[j]) == 0
        assert len(set(model.roots)) == 5

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_oracle_counts_by_enumeration(self, p, k):
        rng = random.Random(p * 10 + k)
        q = p**k
        for _ in range(3):
            a = [rng.randrange(-30, 30) for _ in range(5)]
            b = [rng.randrange(-30, 30) for _ in range(5)]
            count = sum(
                1 for y in itertools.product(range(q), repeat=5)
                if any(v % p for v in y)
                and sum(x * v * v for x, v in zip(a, y)) % q == 0
                and sum(x * v * v for x, v in zip(b, y)) % q == 0
            )
            assert diagonal_primitive_count(a, b, p, k) == count

    @settings(max_examples=100, deadline=None)
    @given(case=split_pencils(), p=st.sampled_from([2, 3, 5, 7]))
    @example(case=UNDECIDED_BY_SEARCH[2], p=7)
    def test_agrees_with_search_and_oracle(self, case, p):
        pen, model = split_model(*case)
        cert = split_soluble(model, p)
        search = padic_soluble(pen.cleared[1:], p, effort=1)
        assert search.verdict in ("unknown", cert.verdict)
        if cert.verdict == "insoluble":
            assert diagonal_insoluble_at(model.c, model.roots, p, ORACLE_DEPTH[p]) is not None
        else:
            assert cert.verdict == "soluble"
            check_hensel_witness(pen, p, cert.witness)

    def test_soluble_at_good_reduction(self):
        # c_i and the root differences are 11-units, so the reduction is
        # smooth and has a point (Chevalley-Warning)
        pen, model = split_model(*UNDECIDED_BY_SEARCH[0])
        assert all(c % 11 for c in model.c)
        assert all((a - b) % 11 for a, b in itertools.combinations(model.roots, 2))
        cert = split_soluble(model, 11)
        assert cert.verdict == "soluble"
        check_hensel_witness(pen, 11, cert.witness)

    def test_large_prime_builds_no_chart_list(self):
        # a good prime decides in the first balls, so the p + 2 balls of
        # the charts must not all be built before the first is visited
        _, model = split_model(*UNDECIDED_BY_SEARCH[0])
        tracemalloc.start()
        try:
            cert = split_soluble(model, 1000003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.verdict == "soluble"
        assert peak < 2**20

    def test_same_certificates_as_per_ball_tree(self):
        # the pencils of scripts/split_local.py: verdict, depth, node count
        # and witness as the tree with no memo gives them
        rng = random.Random(0)
        for _ in range(60):
            _, model = split_model(*random_split(rng))
            for p in (2, 3, 5, 7, 11, 13):
                assert split_soluble(model, p) == split_soluble_per_ball(model, p)

    # a bad prime 101 (a root and, in the second, a delta): every residue
    # class of the plane is visited, so the tree has about p^2 balls
    @pytest.mark.parametrize("deltas", [[5, 5, 1, 1, 1], [101, 101, 1, 1, 1]])
    def test_bad_prime_reads_each_residue_once(self, deltas, monkeypatch):
        _, model = split_model([0, 1, 2, 3, 101], deltas)
        calls = []
        legendre = localarith_mod.legendre

        def counting(a, p):
            calls.append(a % p)
            return legendre(a, p)

        monkeypatch.setattr(localarith_mod, "legendre", counting)
        cert = split_soluble(model, 101)
        monkeypatch.undo()
        assert cert == split_soluble_per_ball(model, 101)
        assert len(calls) == len(set(calls)) <= 100

    @pytest.mark.parametrize("roots,deltas", UNDECIDED_BY_SEARCH)
    def test_cli_decides_every_place(self, roots, deltas, tmp_path):
        path = tmp_path / "pencil.json"
        path.write_text(pencil_dumps(canonical_quadrics(RatPoly.from_roots(roots), deltas).to_pencil()))
        out = tmp_path / "report.json"
        t0 = time.perf_counter()
        assert main(["--json", "--out", str(out), "analyze", str(path)]) == 0
        assert time.perf_counter() - t0 < 1.0
        certs = json.loads(out.read_text())["local_certificates"]
        assert [c["place"] for c in certs] == ["real", "3", "5", "7", "11", "13"]
        assert main(["--json", "--out", str(out), "local", str(path), "--places", "2,3,5,7"]) == 0
        certs = json.loads(out.read_text())["certificates"]
        assert [c["place"] for c in certs] == ["real", "2", "3", "5", "7"]
        assert all(c["verdict"] != "unknown" for c in certs)


class TestDeltaResidue:
    def test_trivial_delta(self):
        for p in (7, 11, 13):
            res = delta_residue_at(T5_MINUS_2, [(T5_MINUS_2, poly(1))], p)
            assert res.is_zero

    def test_split_nontrivial(self):
        from quadpencil.exact import factor_q

        factors = [(poly(-r, 1), poly(d)) for r, d in zip([0, 1, 2, 3, 4], [5, 5, 1, 1, 1])]
        res = delta_residue_at(SPLIT_QUINTIC, factors, 7)
        assert not res.is_zero
        assert res.class_datum == ((1, 1), (1, 1), (1, 0), (1, 0), (1, 0))

    def test_five_cycle_always_zero(self):
        # G/(sigma - 1) = 0 for a 5-cycle, so the class is forced to vanish
        delta = [(T5_MINUS_2, poly(2, 0, 1))]  # norm 36, a square
        from quadpencil.exact import cycle_type

        found = 0
        for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            if cycle_type(T5_MINUS_2, p) == (5,):
                res = delta_residue_at(T5_MINUS_2, delta, p)
                assert res.is_zero
                found += 1
        assert found >= 2


class TestFindBT:
    def test_identity_on_t5_minus_2(self):
        fs = delta_record(T5_MINUS_2, [(T5_MINUS_2, poly(1))])
        wit = find_bT(fs, [IDENTITY_CONDITION], bad_set_s0(fs))
        assert wit.primes == (151,)  # first totally split prime beyond the margin
        assert wit.valuations == (1,)
        assert val_unit(T5_MINUS_2(wit.b), 151)[0] == 1

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleConditionError):
            find_bT(delta_record(T5_MINUS_2, [(T5_MINUS_2, poly(1))]), [((5, 1),)], bad_set_s0(delta_record(T5_MINUS_2)))
        with pytest.raises(InadmissibleConditionError):
            find_bT(delta_record(T5_MINUS_2, [(T5_MINUS_2, poly(1))]), [((5, 0),)], bad_set_s0(delta_record(T5_MINUS_2)))

    def test_empty_conditions_rejected(self):
        # the CRT of no residues is b = 0, a root of this P
        fs = delta_record(SPLIT_QUINTIC, [(f, poly(1)) for f in factor_q(SPLIT_QUINTIC)])
        with pytest.raises(ValueError, match="no local conditions"):
            find_bT(fs, [], bad_set_s0(fs))

    def test_d10_two_conditions(self):
        delta = [(D10_QUINTIC, D10_DELTA)]
        inv = delta_record(D10_QUINTIC, delta)
        wit = find_bT(inv, [DT_RES_NONZERO, DT_RES_ZERO], bad_set_s0(inv))
        w1, w2 = wit.primes
        assert w1 != w2
        # the residue behavior is what the classes prescribe
        r1 = delta_residue_at(D10_QUINTIC, delta, w1)
        r2 = delta_residue_at(D10_QUINTIC, delta, w2)
        assert not r1.is_zero
        assert r2.is_zero
        for w in (w1, w2):
            assert val_unit(D10_QUINTIC(wit.b), w)[0] == 1

    def test_witness_invariants_reverify(self):
        delta = [(D10_QUINTIC, D10_DELTA)]
        inv = delta_record(D10_QUINTIC, delta)
        s0 = bad_set_s0(inv)
        wit = find_bT(inv, [DT_RES_ZERO], s0)
        assert wit.verify(inv, s0)

    def test_duplicate_conditions_distinct_primes(self):
        delta = [(D10_QUINTIC, D10_DELTA)]
        inv = delta_record(D10_QUINTIC, delta)
        wit = find_bT(inv, [DT_RES_ZERO, DT_RES_ZERO], bad_set_s0(inv))
        assert len(set(wit.primes)) == 2
        for w in wit.primes:
            assert val_unit(D10_QUINTIC(wit.b), w)[0] == 1

    def test_bound_exhaustion(self):
        from quadpencil.localarith import NoWitnessError

        with pytest.raises(NoWitnessError):
            fs = delta_record(T5_MINUS_2, [(T5_MINUS_2, poly(1))])
            find_bT(fs, [IDENTITY_CONDITION], bad_set_s0(fs), prime_bound=120)
