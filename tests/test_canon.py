"""Tests for the canonical surface models."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadpencil.exact import (
    RatPoly,
    discriminant,
    factor_q,
    inverse_mod,
    is_square_q,
)
from quadpencil.canon import (
    CanonicalModel,
    canonical_quadrics,
    kummer_model,
    normalize_delta,
    roundtrip_invariants,
)
from quadpencil.pencil import mat_det
from reference import (
    branch_form,
    count_calls,
    count_factor_q,
    power_sums,
    squarefree_part,
    weighted_trace_form,
)


def poly(*coeffs):
    return RatPoly.of(coeffs)


T5_MINUS_2 = poly(-2, 0, 0, 0, 0, 1)
SPLIT_QUINTIC = RatPoly.from_roots([0, 1, 2, 3, 4])


def random_quintic(rng):
    while True:
        f = RatPoly.of([rng.randrange(-9, 10) for _ in range(5)] + [1])
        if discriminant(f) != 0:
            return f


def partial_fraction_tau(roots, weight_fn, k):
    """Oracle: sum over roots of theta^k * weight(theta) for split P."""
    acc = Fraction(0)
    for r in roots:
        acc += Fraction(r) ** k * weight_fn(Fraction(r))
    return acc


class TestPowerSums:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
    @example([0, 1, 2, 3, 4])
    def test_against_roots(self, roots):
        # past k = n Newton's identities use all n coefficients of P
        n = len(roots)
        sums = power_sums(RatPoly.from_roots(roots), 2 * n + 2)
        assert sums == [sum(Fraction(r) ** k for r in roots) for k in range(2 * n + 3)]


class TestTraceIdentities:
    def test_split_oracle(self):
        # independent oracle via explicit partial fractions over the roots
        roots = [0, 1, 2, 3, 4]
        P = SPLIT_QUINTIC
        Pd = P.derivative()
        g = weighted_trace_form(P, inverse_mod(Pd, P), poly(1))
        for i in range(5):
            for j in range(5):
                expected = partial_fraction_tau(roots, lambda r: 1 / Pd(r), i + j)
                assert g[i][j] == expected
        assert g[0][0] == 0 and g[0][1] == 0 and g[1][1] == 0 and g[1][2] == 0
        assert g[0][4] == 1 and g[2][2] == 1
        assert g[1][4] == 10  # power sum of the roots

    def test_euler_traces_random(self):
        rng = random.Random(42)
        for _ in range(25):
            P = random_quintic(rng)
            g = weighted_trace_form(P, inverse_mod(P.derivative(), P), poly(1))
            taus = [g[0][0], g[0][1], g[0][2], g[0][3], g[0][4]]
            assert taus[:4] == [0, 0, 0, 0]
            assert taus[4] == 1

    def test_shifted_hankel(self):
        P = T5_MINUS_2
        w1 = inverse_mod(P.derivative(), P)
        g1 = weighted_trace_form(P, w1, poly(1))
        g2 = weighted_trace_form(P, (w1 * poly(0, 1)) % P, poly(1))
        for i in range(5):
            for j in range(4):
                assert g2[i][j] == g1[i][j + 1]

    def test_integrality_t5_minus_2(self):
        model = canonical_quadrics(T5_MINUS_2, poly(1))
        for g in (model.gram1, model.gram2):
            for row in g:
                for x in row:
                    assert x.denominator == 1


coeff = st.fractions(min_value=-9, max_value=9, max_denominator=1000)


@st.composite
def quintic_and_delta(draw):
    """An integer, rational or split quintic, with one delta class mod P or
    a per-factor list."""
    kind = draw(st.sampled_from(["integer", "rational", "split"]))
    if kind == "split":
        P = RatPoly.from_roots(draw(st.lists(st.integers(-6, 6), min_size=5, max_size=5, unique=True)))
    else:
        c = st.integers(-9, 9) if kind == "integer" else coeff
        P = RatPoly.of(draw(st.lists(c, min_size=5, max_size=5)) + [1])
    assume(discriminant(P) != 0)
    factors = factor_q(P)
    if draw(st.booleans()):
        delta = [RatPoly.of(draw(st.lists(coeff, min_size=f.degree, max_size=f.degree))) for f in factors]
    else:
        delta = RatPoly.of(draw(st.lists(coeff, min_size=1, max_size=5)))
    return P, delta


class TestEulerTraces:
    @settings(max_examples=60, deadline=None)
    @given(quintic_and_delta(), coeff)
    @example((SPLIT_QUINTIC, [poly(5), poly(5), poly(1), poly(1), poly(1)]), Fraction(7))
    @example((T5_MINUS_2, poly(2, 0, 1)), Fraction(1))
    def test_grams_match_inverted_weights(self, case, b):
        # Euler's identity against the weights inverted in Q[t]/(P) and
        # traced through the power sums
        P, delta = case
        try:
            normalize_delta(P, delta)
        except ValueError:
            assume(False)
        assume(P(b) != 0)
        km = kummer_model(P, delta, b)
        w1 = inverse_mod(P.derivative(), P)
        assert km.base.gram1 == weighted_trace_form(P, w1, km.base.delta)
        assert km.base.gram2 == weighted_trace_form(P, (w1 * poly(0, 1)) % P, km.base.delta)
        assert km.gram3 == tuple(tuple(P(b) * x for x in row) for row in branch_form(P, delta, b))


class TestCanonicalQuadrics:
    def test_line_on_delta_one(self):
        # with delta' = 1 both forms vanish on the plane u = r + s theta
        for P in (T5_MINUS_2, SPLIT_QUINTIC):
            model = canonical_quadrics(P, poly(1))
            for g in (model.gram1, model.gram2):
                assert g[0][0] == 0 and g[0][1] == 0 and g[1][0] == 0 and g[1][1] == 0

    def test_pencil_identity(self):
        rng = random.Random(1)
        for _ in range(8):
            P = random_quintic(rng)
            model = canonical_quadrics(P, poly(1))
            n = math.prod(model.inv.norms)
            bq = model.to_pencil().det_poly
            assert all(bq[i] == n * P[5 - i] for i in range(6))
            assert is_square_q(n)

    def test_delta_square_scaling_congruence(self):
        # scaling delta' by the square of a unit of the algebra gives
        # congruent Gram matrices (substitution u -> c u)
        P = T5_MINUS_2
        c = poly(1, 1)  # 1 + theta, a unit mod P
        d = (c * c) % P
        m1 = canonical_quadrics(P, poly(1))
        m2 = canonical_quadrics(P, d)
        # determinants agree up to the square of det of the change of basis
        r = mat_det(m2.gram1) / mat_det(m1.gram1)
        assert is_square_q(r)


class TestKummer:
    def test_gram3_scales_with_branch_form(self):
        rng = random.Random(2)
        done = 0
        while done < 20:
            P = random_quintic(rng)
            b = Fraction(rng.randrange(5, 25))
            if P(b) == 0:
                continue
            done += 1
            g3 = kummer_model(P, poly(1), b).gram3
            bf = branch_form(P, poly(1), b)
            for i in range(5):
                for j in range(5):
                    assert g3[i][j] == P(b) * bf[i][j]

    def test_lambda0_corner_rank_one(self):
        # restriction of gram3 to the line plane is [[1, b], [b, b^2]]:
        # rank 1 and the double cover splits there
        for b in (5, 7, Fraction(1, 2)):
            km = kummer_model(SPLIT_QUINTIC, poly(1), b)
            g3 = km.gram3
            assert g3[0][0] == 1
            assert g3[0][1] == Fraction(b)
            assert g3[1][1] == Fraction(b) ** 2

    def test_b_only_changes_gram3(self):
        k1 = kummer_model(T5_MINUS_2, poly(1), 1)
        k2 = kummer_model(T5_MINUS_2, poly(1), 3)
        assert k1.base.gram1 == k2.base.gram1
        assert k1.base.gram2 == k2.base.gram2
        assert k1.gram3 != k2.gram3

    def test_delta_scaling_scales_gram3(self):
        k1 = kummer_model(T5_MINUS_2, poly(1), 3)
        k5 = kummer_model(T5_MINUS_2, poly(5), 3)
        for i in range(5):
            for j in range(5):
                assert k5.gram3[i][j] == 5 * k1.gram3[i][j]

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            kummer_model(SPLIT_QUINTIC, poly(1), 3)

    def test_quadrics_shape(self):
        km = kummer_model(T5_MINUS_2, poly(1), 1)
        qs = km.quadrics()
        assert len(qs) == 3 and all(len(q) == 6 for q in qs)
        assert qs[2][0][0] == 1


class TestNormalizeDelta:
    def test_per_factor_crt(self):
        entries = [5, 5, 1, 1, 1]
        d, _ = normalize_delta(SPLIT_QUINTIC, entries)
        # entries follow factor_q order (sorted by coefficient tuple)
        for f, v in zip(factor_q(SPLIT_QUINTIC), entries):
            root = -f[0]
            assert d(root) == v

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            normalize_delta(SPLIT_QUINTIC, [5, 5])

    def test_non_invertible(self):
        with pytest.raises(ValueError):
            normalize_delta(SPLIT_QUINTIC, [0, 1, 1, 1, 1])


class TestRoundTrip:
    def test_split_trivial(self):
        rep = roundtrip_invariants(SPLIT_QUINTIC, poly(1))
        assert rep.ok and rep.norm_is_square

    def test_t5_minus_2_trivial(self):
        rep = roundtrip_invariants(T5_MINUS_2, poly(1))
        assert rep.ok and rep.norm_is_square

    def test_split_55111(self):
        rep = roundtrip_invariants(SPLIT_QUINTIC, [5, 5, 1, 1, 1])
        assert rep.ok

    def test_irreducible_nontrivial(self):
        # theta^2 + 2 has square norm 36 over t^5 - 2
        rep = roundtrip_invariants(T5_MINUS_2, poly(2, 0, 1))
        assert rep.ok

    def test_detects_field_mismatch(self):
        # sanity: the Moebius matching pairs each factor exactly once
        rep = roundtrip_invariants(SPLIT_QUINTIC, [2, 3, 6, 1, 1])
        assert rep.ok
        assert len({str(m.input_factor) for m in rep.matches}) == 5

    def test_each_quintic_factored_once(self, monkeypatch):
        calls = count_factor_q(monkeypatch)
        rep = roundtrip_invariants(SPLIT_QUINTIC, [5, 5, 1, 1, 1])
        assert calls == [SPLIT_QUINTIC, rep.recovered.P]

    def test_models_take_no_discriminant_or_resultant(self, monkeypatch):
        # the record of (P, delta') that canon builds computes disc(P) and
        # the norms only for a reader: building a model reads neither
        discs = count_calls(monkeypatch, "discriminant")
        resultants = count_calls(monkeypatch, "resultant")
        for P, delta in ((T5_MINUS_2, poly(0, 1)), (SPLIT_QUINTIC, [5, 5, 1, 1, 1])):
            canonical_quadrics(P, delta)
            kummer_model(P, delta, 7)
        assert discs == [] and resultants == []

    def test_nonsquare_norm_detected(self):
        # a tuple with nonsquare norm is not a legitimate class: the pencil's
        # actual delta then differs by one nonsquare rational everywhere, and
        # the report says so (negative control)
        rep = roundtrip_invariants(SPLIT_QUINTIC, [2, 3, 1, 1, 1])
        assert not rep.norm_is_square
        assert not rep.ok
        assert all(m.ratio_status == "nonsquare" for m in rep.matches)
