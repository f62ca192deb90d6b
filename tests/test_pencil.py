"""Tests for pencil normalization and delta invariants."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from quadpencil.exact import (
    RatPoly,
    Residue,
    factor_q,
    is_square_q,
    sqrt_in_etale,
    strip_square_content,
)
from quadpencil.pencil import (
    DeltaInvariant,
    Pencil,
    SingularPencilError,
    CHARTS,
    b_delta_group,
    char_poly_t,
    chart_poly,
    clear_denominators,
    definite_sign,
    delta_component,
    delta_invariant,
    hasse_class,
    mat_det,
    matrix_of,
    normalize_pencil,
    pencil_from_json,
    pencil_loads,
    pencil_dumps,
    random_pencil,
)
from quadpencil.canon import canonical_quadrics
from reference import (
    count_calls,
    galois_profile,
    mat_combine,
    mat_congruent,
    shift,
    signature,
    verify_norm_square,
)


def diag(*entries):
    return matrix_of([[entries[i] if i == j else 0 for j in range(5)] for i in range(5)])


DIAG_PENCIL = Pencil(diag(1, 1, 1, 1, 1), diag(0, 1, 2, 3, 4))


def moved(pencil, shift):
    """The pencil (phi1 - shift phi2, phi2), the same line with another
    basis: its identity chart has the members that the chart
    (1, -shift, 0, 1) gives the pencil itself."""
    return Pencil(mat_combine(pencil.phi1, pencil.phi2, 1, -shift), pencil.phi2)


def poly(*coeffs):
    return RatPoly.of(coeffs)


def chart_members(norm):
    """phi1' and phi2' as rational matrices, from the chart and the pencil."""
    a, b, c, d = norm.chart
    pencil = norm.pencil
    return mat_combine(pencil.phi1, pencil.phi2, a, b), mat_combine(pencil.phi1, pencil.phi2, c, d)


class TestNormalization:
    def test_diag_pencil_characteristic_quintic(self):
        norm = normalize_pencil(DIAG_PENCIL)
        # det(phi2) = 0, so the identity chart is unusable and the chart is
        # a nontrivial Moebius move; P is still monic of degree 5
        assert norm.chart != (1, 0, 0, 1)
        assert norm.P.degree == 5 and norm.P.lc == 1
        # up to the chart the singular parameters are {0, 1, 1/2, 1/3, 1/4}
        # in the original s = phi1 - s phi2 parametrization; with the swap
        # chart the recovered quintic is exactly t(t-1)(t-2)(t-3)(t-4)
        assert norm.P == RatPoly.from_roots([0, 1, 2, 3, 4])

    def test_det_identity(self):
        norm = normalize_pencil(DIAG_PENCIL)
        phi1n, phi2n = chart_members(norm)
        q = char_poly_t(phi1n, phi2n)
        assert q == norm.P * norm.lead
        # the integer members are the chart members cleared of denominators
        for m, phi in ((norm.m1, phi1n), (norm.m2, phi2n)):
            assert [[Fraction(x, norm.den) for x in row] for row in m] == [list(row) for row in phi]

    def test_singular_pencil_rejected(self):
        # phi2 = phi1 gives det(mu phi1 - nu phi1) with a quintuple root
        with pytest.raises(SingularPencilError):
            Pencil(diag(1, 1, 1, 1, 1), diag(1, 1, 1, 1, 1)).smoothness_certificate

    def test_repeated_factor_reported(self):
        # members at t = 0 and t = 0 again: phi1 singular of corank 2
        p = Pencil(diag(0, 0, 1, 1, 1), diag(1, 1, 1, 2, 3))
        with pytest.raises(SingularPencilError):
            p.smoothness_certificate

    def test_smooth_past_the_first_primes(self, monkeypatch):
        # the singular members 0, M, ..., 4M meet mod each odd prime up to
        # 31, so the squarefree tests mod p all fail and disc(q) decides
        M = math.prod(sympy.primerange(3, 32))
        discs = count_calls(monkeypatch, "discriminant")
        q = Pencil(diag(0, M, 2 * M, 3 * M, 4 * M), diag(1, 1, 1, 1, 1)).smoothness_certificate
        assert q == -RatPoly.from_roots([0, M, 2 * M, 3 * M, 4 * M])
        assert discs == [q]

    def test_deep_chart_enumeration(self):
        # singular members at infinity, 0, 1, -1 and 2 knock out the first
        # several chart candidates; normalization must dig deeper
        p = Pencil(diag(1, 0, 1, -1, 2), diag(0, 1, 1, 1, 1))
        norm = normalize_pencil(p)
        assert norm.P.degree == 5
        from quadpencil.exact import discriminant

        assert discriminant(norm.P) != 0
        inv = delta_invariant(norm)
        assert verify_norm_square(inv)


class TestDeltaInvariant:
    def test_diag_pencil_delta(self):
        # independent oracle: after the swap chart the singular member at
        # root a_i is diag(a_j - a_i), kernel e_i, restricted determinant
        # prod_{j != i} (a_j - a_i)
        norm = normalize_pencil(DIAG_PENCIL)
        inv = delta_invariant(norm)
        roots = [0, 1, 2, 3, 4]
        expected = {}
        for i, ai in enumerate(roots):
            prod = Fraction(1)
            for j, aj in enumerate(roots):
                if j != i:
                    prod *= aj - ai
            expected[ai] = prod
        for f, d in inv.factor_reps():
            root = -f[0]
            ratio = d(root) * expected[root]
            assert ratio != 0 and is_square_q(abs(ratio)) == (ratio > 0) and is_square_q(ratio)

    def test_diag_pencil_flags(self):
        norm = normalize_pencil(DIAG_PENCIL)
        inv = delta_invariant(norm)
        # 24, -6, 4, -6, 24 up to squares: 6, -6, 1, -6, 6
        by_root = {int(-f[0]): fl for f, fl in zip(inv.factors, inv.square_flags)}
        assert by_root == {
            0: "nonsquare",
            1: "nonsquare",
            2: "square",
            3: "nonsquare",
            4: "nonsquare",
        }

    def test_square_flags_on_demand(self, monkeypatch):
        # the norm-square law and the round trip read only the
        # representatives, so no square class is certified until read
        calls = count_calls(monkeypatch, "sqrt_in_etale")
        inv = delta_invariant(normalize_pencil(DIAG_PENCIL))
        assert verify_norm_square(inv) and calls == []
        assert inv.square_flags == inv.square_flags and len(calls) == len(inv.factors)

    def test_disc_and_norms_on_first_read(self, monkeypatch):
        # the record computes disc(P) and the norms Res(P_i, d_i) when a
        # stage first reads them, once each, and never before
        norm = normalize_pencil(random_pencil(random.Random(314)))
        discs = count_calls(monkeypatch, "discriminant")
        resultants = count_calls(monkeypatch, "resultant")
        inv = delta_invariant(norm)
        assert discs == [] and resultants == []
        inv.norms, inv.norms
        assert resultants == inv.factor_reps() and discs == []
        inv.disc, inv.disc  # disc(P) is itself Res(P, P')
        assert discs == [inv.P] and len(resultants) == len(inv.factors) + 1
        inv.norms, inv.disc
        assert len(discs) == 1 and len(resultants) == len(inv.factors) + 1

    def test_norm_square_law(self):
        norm = normalize_pencil(DIAG_PENCIL)
        inv = delta_invariant(norm)
        assert verify_norm_square(inv)

    def test_norm_square_law_random(self):
        rng = random.Random(20240)
        for _ in range(12):
            pencil = random_pencil(rng)
            inv = delta_invariant(normalize_pencil(pencil))
            assert verify_norm_square(inv)

    def test_hand_built_violation(self):
        split = RatPoly.from_roots([0, 1, 2, 3, 4])
        inv = DeltaInvariant(
            split,
            tuple(RatPoly.of([-r, 1]) for r in range(5)),
            (poly(5), poly(1), poly(1), poly(1), poly(1)),
        )
        assert not verify_norm_square(inv)

    def test_square_class_invariance_scaling(self):
        rng = random.Random(7)
        pencil = random_pencil(rng)
        lam = Fraction(3, 7)
        scaled = Pencil(
            matrix_of([[lam * x for x in row] for row in pencil.phi1]),
            matrix_of([[lam * x for x in row] for row in pencil.phi2]),
        )
        inv1 = delta_invariant(normalize_pencil(pencil))
        inv2 = delta_invariant(normalize_pencil(scaled))
        assert inv1.P == inv2.P
        assert inv1.square_flags == inv2.square_flags
        assert b_delta_group(inv1) == b_delta_group(inv2)

    def test_square_class_invariance_congruence(self):
        rng = random.Random(8)
        pencil = random_pencil(rng)
        u = matrix_of(
            [
                [1, 1, 0, 0, 0],
                [0, 1, 0, 0, 2],
                [0, 0, 1, 0, 0],
                [1, 0, 0, 1, 0],
                [0, 0, 0, 0, 1],
            ]
        )
        conj = Pencil(mat_congruent(pencil.phi1, u), mat_congruent(pencil.phi2, u))
        inv1 = delta_invariant(normalize_pencil(pencil))
        inv2 = delta_invariant(normalize_pencil(conj))
        assert inv1.P == inv2.P
        assert inv1.square_flags == inv2.square_flags

    def test_canonical_split_nontrivial_flags(self):
        # the canonical pencil of (split quintic, (5,5,1,1,1)) carries
        # exactly two nonsquare components
        from quadpencil.canon import canonical_quadrics

        model = canonical_quadrics(RatPoly.from_roots([0, 1, 2, 3, 4]), [5, 5, 1, 1, 1])
        inv = delta_invariant(normalize_pencil(model.to_pencil()))
        assert sorted(inv.square_flags) == [
            "nonsquare",
            "nonsquare",
            "square",
            "square",
            "square",
        ]

    def test_canonical_trivial_flags_all_square(self):
        from quadpencil.canon import canonical_quadrics

        model = canonical_quadrics(RatPoly.from_roots([0, 1, 2, 3, 4]), poly(1))
        inv = delta_invariant(normalize_pencil(model.to_pencil()))
        assert set(inv.square_flags) == {"square"}

    def test_chart_independence(self):
        rng = random.Random(9)
        pencil = random_pencil(rng)
        n1 = normalize_pencil(pencil)
        n2 = normalize_pencil(moved(pencil, 1))
        assert n1.m2 == n2.m2 and n1.m1 != n2.m1
        i1 = delta_invariant(n1)
        i2 = delta_invariant(n2)
        assert [f.degree for f in i1.factors] == [f.degree for f in i2.factors]
        assert sorted(i1.square_flags) == sorted(i2.square_flags)
        assert b_delta_group(i1) == b_delta_group(i2)


rationals = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=6)
)


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)


def sympy_matrix(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


class TestDeterminantsAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(square_matrices))
    @example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])  # zero first pivot
    @example([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]])  # singular
    @example([[Fraction(1), Fraction(1), Fraction(2)], [Fraction(1), Fraction(1), Fraction(3)],
              [Fraction(2), Fraction(5), Fraction(1)]])  # zero pivot after one step
    def test_mat_det(self, m):
        assert mat_det(m) == to_fraction(sympy_matrix(m).det(method="berkowitz"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))))
    @example(([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
              [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]))
    @example(([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
              [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(2)]]))  # det identically 0
    def test_char_poly_t(self, pair):
        phi1, phi2 = pair
        t = sympy.Symbol("t")
        ref = sympy.Poly((sympy_matrix(phi1) - t * sympy_matrix(phi2)).det(method="berkowitz"), t)
        assert char_poly_t(phi1, phi2) == RatPoly.of([to_fraction(c) for c in reversed(ref.all_coeffs())])


class TestDefiniteSign:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(square_matrices))
    def test_against_signature(self, b):
        n = len(b)
        m = matrix_of([[b[i][j] + b[j][i] for j in range(n)] for i in range(n)])
        a = clear_denominators(m)[1][0]  # a positive multiple of m
        if mat_det(m) == 0:
            assert definite_sign(a) == 0
        else:
            pos, neg = signature(m)
            assert definite_sign(a) == (1 if pos == n else -1 if neg == n else 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.integers(0, n + 1).flatmap(
                    lambda r: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=r, max_size=r)
                ),
                st.just(n),
                st.sampled_from([1, -1]),
            )
        )
    )
    def test_gram_matrices(self, args):
        # s * B^T B is definite when B has full column rank, else semidefinite
        rows, n, s = args
        m = matrix_of(
            [[s * sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
        )
        a = clear_denominators(m)[1][0]  # a positive multiple of m
        if mat_det(m) == 0:
            assert definite_sign(a) == 0
        else:
            assert signature(m) == ((n, 0) if s > 0 else (0, n))
            assert definite_sign(a) == s


def split_pencil(rng: random.Random) -> Pencil:
    """A diagonal pencil with five distinct rational singular parameters,
    moved by an invertible integral change of coordinates."""
    roots = rng.sample(range(-6, 7), 5)
    d1 = [rng.choice([1, -1, 2, 3]) for _ in range(5)]
    u = matrix_of([[rng.randint(-2, 2) + 5 * (i == j) for j in range(5)] for i in range(5)])
    return Pencil(mat_congruent(diag(*d1), u), mat_congruent(diag(*(a * r for a, r in zip(d1, roots))), u))


class TestChartPoly:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_char_poly_t(self, seed):
        rng = random.Random(seed)
        pencils = [DIAG_PENCIL, random_pencil(rng), split_pencil(rng)]
        for pencil in pencils:
            for chart in CHARTS:
                a, b, c, d = chart
                phi1n = mat_combine(pencil.phi1, pencil.phi2, a, b)
                phi2n = mat_combine(pencil.phi1, pencil.phi2, c, d)
                form = [pencil.det_poly[i] for i in range(6)]
                assert RatPoly.of(chart_poly(form, 5, chart)) == char_poly_t(phi1n, phi2n)


def reference_kernel_vector(M, modulus):
    """Kernel of a rank-4 5x5 matrix over Q[t]/(modulus) by Gauss-Jordan
    elimination (the implementation delta_component replaced)."""
    n = 5
    zero = Residue.of(RatPoly(()), modulus)
    one = Residue.of(RatPoly.of([1]), modulus)
    a = [row[:] for row in M]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if not a[r][col].is_zero), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col].inverse()
        a[row] = [x * inv for x in a[row]]
        for r in range(n):
            if r != row and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1
    vec = [zero] * n
    vec[free[0]] = one
    for r, pc in enumerate(pivots):
        vec[pc] = -a[r][free[0]]
    return vec


def reference_det_residue(M, modulus):
    """Determinant over the field Q[t]/(modulus) by Gaussian elimination."""
    n = len(M)
    a = [row[:] for row in M]
    det = Residue.of(RatPoly.of([1]), modulus)
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if piv is None:
            return Residue.of(RatPoly(()), modulus)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inverse()
        for r in range(col + 1, n):
            if not a[r][col].is_zero:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _height(f):
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in f.coeffs)


def reference_delta_component(phi1n, phi2n, factor):
    """delta_component by Gauss-Jordan over Q[t]/(factor): the kernel
    vector, the coordinate of smallest height, the restricted determinant."""
    theta = RatPoly.of([0, 1])
    M = [
        [Residue.of(RatPoly.const(phi1n[i][j]) - theta * phi2n[i][j], factor) for j in range(5)]
        for i in range(5)
    ]
    ker = reference_kernel_vector(M, factor)
    drop = min((i for i in range(5) if not ker[i].is_zero), key=lambda i: (_height(ker[i].poly), i))
    keep = [i for i in range(5) if i != drop]
    d = reference_det_residue([[M[i][j] for j in keep] for i in keep], factor)
    return strip_square_content(d.poly)


class TestDeltaComponentAgainstGaussJordan:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), split=st.booleans(), shift=st.sampled_from([0, 1, -1]))
    @example(seed=0, split=True, shift=0)
    @example(seed=9, split=False, shift=1)
    def test_matches_reference(self, seed, split, shift):
        rng = random.Random(seed)
        pencil = split_pencil(rng) if split else random_pencil(rng, entry_bound=rng.choice([2, 9]))
        norm = normalize_pencil(moved(pencil, shift))
        assert_matches_reference(norm)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**6), height=st.sampled_from([10**6, 10**12]),
           shift=st.sampled_from([0, 1, -1]))
    @example(seed=0, height=10**6, shift=0)
    @example(seed=1, height=10**12, shift=1)
    def test_matches_reference_tall(self, seed, height, shift):
        pencil = random_pencil(random.Random(seed), entry_bound=height)
        assert_matches_reference(normalize_pencil(moved(pencil, shift)))

    @pytest.mark.parametrize("shift", [0, 1])
    def test_matches_reference_diagonal(self, shift):
        # the kernel vectors are unit vectors e_i, so for each i < 4 the
        # cofactors C_44, ..., C_{i+1,i+1} vanish mod the factor and the scan
        # reaches C_ii
        norm = normalize_pencil(moved(DIAG_PENCIL, shift))
        assert_matches_reference(norm)
        assert sorted(norm._minors) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "P, delta",
        [
            (poly(-2, 0, 0, 0, 0, 1), poly(1, Fraction(1, 3))),
            (poly(-2, 0, 0, 0, 0, 1), poly(Fraction(3, 2), 0, 1)),
            (shift(poly(1, 3, -3, -4, 1, 1), Fraction(7, 3)), poly(1)),
            (shift(poly(1, 3, -3, -4, 1, 1), 5), poly(2, Fraction(1, 5))),
        ],
    )
    def test_matches_reference_rational_entries(self, P, delta):
        pencil = canonical_quadrics(P, delta).to_pencil()
        assert pencil.cleared[0] > 1
        for shift in (0, 1):
            assert_matches_reference(normalize_pencil(moved(pencil, shift)))


def assert_matches_reference(norm):
    phi1n, phi2n = chart_members(norm)
    for f in factor_q(norm.P):
        assert delta_component(norm, f) == reference_delta_component(phi1n, phi2n, f)


def _split_invariant(deltas):
    split = RatPoly.from_roots([0, 1, 2, 3, 4])
    return DeltaInvariant(
        split,
        tuple(RatPoly.of([-r, 1]) for r in range(5)),
        tuple(poly(d) for d in deltas),
    )


class TestBrauerQuotient:
    def test_delta_zero(self):
        inv = _split_invariant([1, 1, 1, 1, 1])
        assert b_delta_group(inv) == 0

    def test_55111(self):
        inv = _split_invariant([5, 5, 1, 1, 1])
        assert b_delta_group(inv) == 0
        # exhaustive scan: F_2^2 vectors with square product are (0,0),(1,1)
        assert inv.nonsquare_indices() == [0, 1]

    def test_55551(self):
        inv = _split_invariant([5, 5, 5, 5, 1])
        assert b_delta_group(inv) == 2


class TestHasseClass:
    def test_irreducible(self):
        P = poly(-2, 0, 0, 0, 0, 1)
        inv = DeltaInvariant(P, (P,), (poly(1),))
        prof = galois_profile(P)
        assert hasse_class(inv, prof, b_delta_group(inv)).kind == "IRREDUCIBLE"

    def test_split_cases(self):
        split = RatPoly.from_roots([0, 1, 2, 3, 4])
        prof = galois_profile(split)
        for deltas, kind in (
            ([5, 5, 5, 5, 1], "SPLIT_NONTRIVIAL_BRAUER"),
            ([1, 1, 1, 1, 1], "SPLIT_TRIVIAL_BRAUER"),
            ([5, 5, 1, 1, 1], "SPLIT_TRIVIAL_BRAUER"),
        ):
            inv = _split_invariant(deltas)
            assert hasse_class(inv, prof, b_delta_group(inv)).kind == kind


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(3)
        pencil = random_pencil(rng)
        again = pencil_loads(pencil_dumps(pencil))
        assert again == pencil

    def test_malformed(self):
        with pytest.raises(ValueError):
            pencil_from_json({"phi1": [["1/1"]]})
