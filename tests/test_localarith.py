"""Tests for local solubility, residues and the witness search."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from quadpencil.exact import (
    RatPoly,
    discriminant,
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
    bad_set_s0,
    find_bT,
    isolate_real_roots,
    padic_soluble,
    real_soluble,
)
from quadpencil.pencil import Pencil, matrix_of, pencil_dumps, random_pencil
import quadpencil.localarith as localarith_mod
from reference import (
    delta_residue_at,
    fraction_sturm_chain,
    fraction_sturm_var,
    mat_congruent,
    signature,
    time_limit,
)


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
        s0 = bad_set_s0(T5_MINUS_2, [(T5_MINUS_2, poly(1))], margin=100)
        assert 2 in s0 and 5 in s0
        assert 97 in s0  # margin
        assert 101 not in s0

    def test_margin_definition(self):
        s0 = bad_set_s0(SPLIT_QUINTIC, margin=50)
        for p in (2, 3, 5, 7, 11, 47):
            assert p in s0
        assert 53 not in s0

    def test_delta_denominator(self):
        s0 = bad_set_s0(
            T5_MINUS_2, [(T5_MINUS_2, poly(Fraction(1, 7)))], margin=5
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
        s0 = bad_set_s0(P, [(P, d)], margin)

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


class TestIsolateRoots:
    def test_split_quintic(self):
        ivs = isolate_real_roots(SPLIT_QUINTIC)
        assert len(ivs) == 5
        for (a, b), r in zip(ivs, range(5)):
            assert a < r <= b

    def test_gaps_are_strict(self):
        ivs = isolate_real_roots(SPLIT_QUINTIC)
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 < a2


    # non-monic, rational coefficients, repeated roots, roots near 10^100
    @settings(max_examples=30, deadline=None)
    @given(
        roots=st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6), min_size=1, max_size=4
        ),
        repeat=st.integers(0, 2),
        square=st.sampled_from([None, 2, 3, 7]),
        far=st.sampled_from([None, 10**12]),
        cofactor=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=2),
        lc=st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool),
    )
    @example(
        roots=[Fraction(0), Fraction(1)], repeat=1, square=2, far=10**100, cofactor=[],
        lc=Fraction(-3, 2),
    )
    @example(
        roots=[Fraction(-7, 2), Fraction(5)], repeat=0, square=None, far=10**100,
        cofactor=[Fraction(1, 3), 0], lc=Fraction(2, 5),
    )
    def test_against_rational_chain(self, roots, repeat, square, far, cofactor, lc):
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

        # The isolation runs on the squarefree part, taken from the integer
        # chain or, in the reference, by the rational gcd; the square of an
        # irreducible quadratic adds repeated irrational roots.
        if square is not None:
            f = f * RatPoly.of([-square, 0, 1]) * RatPoly.of([-square, 0, 1])
        intervals = isolate_real_roots(f)

        def reference_squarefree_chain(g):
            g = g // g.gcd(g.derivative())
            return g, fraction_sturm_chain(g)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localarith_mod, "_squarefree_chain", reference_squarefree_chain)
            mp.setattr(localarith_mod, "_sturm_var", fraction_sturm_var)
            assert intervals == isolate_real_roots(f)


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
                intervals = isolate_real_roots(f)
                assert len(intervals) == len(roots)
                assert all(a < r <= b for (a, b), r in zip(intervals, roots))


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
        assert not isolate_real_roots(q)
        pencil = Pencil(phi1, phi2)
        pencil.smoothness_certificate
        assert real_soluble(pencil).verdict == "soluble"

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
    integer forms over P^(n-1)(F_p), scanned chart by chart: x_k = 1, x_j = 0
    for j < k, and the free coordinates counted with x_(k+1) fastest.  The
    forms are divided by their p-content first."""
    forms = []
    for m in model:
        f = [[int(x) for x in row] for row in m]
        while all(v % p == 0 for row in f for v in row):
            f = [[v // p for v in row] for row in f]
        forms.append([[v % p for v in row] for row in f])
    n = len(forms[0])
    any_zero = False
    for k in range(n):
        free = n - 1 - k
        for idx in range(p**free):
            x = [0] * n
            x[k] = 1
            for j in range(free):
                x[k + 1 + j] = idx // p**j % p
            if any(sum(x[i] * f[i][j] * x[j] for i in range(n) for j in range(n)) % p
                   for f in forms):
                continue
            any_zero = True
            grads = [[2 * sum(f[i][j] * x[j] for j in range(n)) % p for i in range(n)]
                     for f in forms]
            # two gradients are independent mod p iff some 2x2 minor is a unit
            if any((grads[0][a] * grads[1][b] - grads[0][b] * grads[1][a]) % p
                   for a, b in itertools.combinations(range(n), 2)):
                return x, True
    return None, any_zero


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

    def test_escalation_consistency(self):
        # soluble never becomes insoluble when effort grows
        rng = random.Random(17)
        pencil = random_pencil(rng, entry_bound=3)
        model = [pencil.phi1, pencil.phi2]
        verdicts = [padic_soluble(model, 3, effort=e).verdict for e in (1, 2, 3)]
        for early, late in zip(verdicts, verdicts[1:]):
            if early in ("soluble", "insoluble"):
                assert late == early


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
        wit = find_bT(T5_MINUS_2, [(T5_MINUS_2, poly(1))], [IDENTITY_CONDITION])
        assert wit.primes == (151,)  # first totally split prime beyond the margin
        assert wit.valuations == (1,)
        assert val_unit(T5_MINUS_2(wit.b), 151)[0] == 1

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleConditionError):
            find_bT(T5_MINUS_2, [(T5_MINUS_2, poly(1))], [((5, 1),)])
        with pytest.raises(InadmissibleConditionError):
            find_bT(T5_MINUS_2, [(T5_MINUS_2, poly(1))], [((5, 0),)])

    def test_d10_two_conditions(self):
        delta = [(D10_QUINTIC, D10_DELTA)]
        wit = find_bT(delta[0][0], delta, [DT_RES_NONZERO, DT_RES_ZERO])
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
        wit = find_bT(delta[0][0], delta, [DT_RES_ZERO])
        s0 = bad_set_s0(delta[0][0], delta)
        assert wit.verify(delta[0][0], delta, s0)

    def test_duplicate_conditions_distinct_primes(self):
        delta = [(D10_QUINTIC, D10_DELTA)]
        wit = find_bT(delta[0][0], delta, [DT_RES_ZERO, DT_RES_ZERO])
        assert len(set(wit.primes)) == 2
        for w in wit.primes:
            assert val_unit(D10_QUINTIC(wit.b), w)[0] == 1

    def test_bound_exhaustion(self):
        from quadpencil.localarith import NoWitnessError

        with pytest.raises(NoWitnessError):
            find_bT(
                T5_MINUS_2,
                [(T5_MINUS_2, poly(1))],
                [IDENTITY_CONDITION],
                prime_bound=120,
            )
