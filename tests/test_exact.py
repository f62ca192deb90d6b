"""Tests for the exact arithmetic substrate."""

import random
import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import quadpencil.exact as exact
import quadpencil.pencil as pencil_mod
from quadpencil.exact import (
    REAL_PLACE,
    BadSet,
    RatPoly,
    Residue,
    adjugate_column,
    crt_poly,
    cycle_type,
    discriminant,
    factor_q,
    fp_divmod,
    fp_reduce,
    fp_rem,
    fp_roots,
    fp_trim,
    good_primes,
    integer_roots,
    inverse_mod,
    is_prime,
    is_square_q,
    legendre,
    poly_mul,
    prime_place,
    pseudo_divmod,
    rational_reconstruct,
    resultant,
    sqrt_in_etale,
    small_primes,
    sqrt_mod_p,
    strip_square_content,
    unramified_prime,
    val_unit,
    valuation,
)
from reference import (
    FracPoly,
    adjugate_column_by_minors,
    diag,
    factor_fp,
    hilbert_support,
    hilbert_symbol,
    local_square,
    count_calls,
    from_sympy,
    nextprime_walk,
    refuse_sympy,
    shift,
    sqrt_in_etale_walk,
    strip_square_content_by_trial_division,
    sympy_factor_q,
    sympy_rational_roots,
    to_sympy,
)


def poly(*coeffs):
    """Low-to-high coefficients."""
    return RatPoly.of(coeffs)


T5_MINUS_2 = poly(-2, 0, 0, 0, 0, 1)
SPLIT_QUINTIC = RatPoly.from_roots([0, 1, 2, 3, 4])


class TestRatPoly:
    def test_arithmetic_roundtrip(self):
        f = poly(1, 2, 3)
        g = poly(-1, 1)
        q, r = divmod(f, g)
        assert q * g + r == f

    def test_shift(self):
        f = poly(0, 0, 1)  # t^2
        assert shift(f, 1) == poly(1, 2, 1)

    def test_eval(self):
        assert T5_MINUS_2(Fraction(1)) == -1
        assert SPLIT_QUINTIC(4) == 0

    def test_inverse_mod(self):
        inv = inverse_mod(poly(0, 1), T5_MINUS_2)
        assert (inv * poly(0, 1)) % T5_MINUS_2 == poly(1)

    def test_crt_poly(self):
        m1, m2 = poly(-1, 1), poly(-2, 1)
        c = crt_poly([poly(5), poly(7)], [m1, m2])
        assert c % m1 == poly(5)
        assert c % m2 == poly(7)


def separable(f: RatPoly) -> bool:
    """f has degree 1, or degree 2 or more and no repeated root."""
    return f.degree == 1 or f.degree > 1 and discriminant(f) != 0


@st.composite
def factor_q_inputs(draw):
    """Separable polynomials over Q of degree 1-5 with integer or rational
    coefficients and any leading coefficient: arbitrary ones, and products
    of degrees 2+2, 3+2, 1+2+2 and a linear factor times an irreducible
    quartic."""
    coeff = draw(st.sampled_from([
        st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6)]))

    def monic(k):
        return RatPoly.of(draw(st.lists(coeff, min_size=k, max_size=k)) + [1])

    shape = draw(st.sampled_from(["any", "2+2", "3+2", "1+4", "1+2+2"]))
    if shape == "any":
        f = monic(draw(st.integers(1, 5)))
    else:
        degrees = list(map(int, shape.split("+")))
        gs = [monic(k) for k in degrees]
        if shape == "1+4":
            assume(separable(gs[1]) and len(sympy_factor_q(gs[1])) == 1)
        f = math.prod(gs[1:], start=gs[0])
    assume(separable(f))
    return f * draw(coeff.filter(bool))


class TestFactorQ:
    def test_quadratic_rational_roots(self):
        assert [str(f) for f in factor_q(poly(-1, 0, 1))] == ["t - 1", "t + 1"]

    def test_t5_minus_2_irreducible(self):
        assert factor_q(T5_MINUS_2) == [T5_MINUS_2]

    def test_split_quintic(self):
        fac = factor_q(SPLIT_QUINTIC)
        assert len(fac) == 5
        assert all(f.degree == 1 for f in fac)

    def test_sympy_only_for_an_unproved_cofactor(self, monkeypatch):
        # t^4 + 1 and t^4 - 10t^2 + 1 are reducible mod every prime, so the
        # degree-set test never proves them irreducible; the pairs of p-adic
        # roots at the first prime where they split completely do, and no
        # sympy is imported
        refuse_sympy(monkeypatch)
        assert factor_q(poly(1, 0, 0, 0, 1)) == [poly(1, 0, 0, 0, 1)]
        assert factor_q(poly(1, 0, -10, 0, 1)) == [poly(1, 0, -10, 0, 1)]
        assert factor_q(T5_MINUS_2) == [T5_MINUS_2]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_q(RatPoly(()))

    # a constant, degree 6 and a repeated factor: outside the contract
    @pytest.mark.parametrize(
        "f", [poly(3), poly(1, 0, 0, 0, 0, 0, 1), poly(-1, 1) * poly(-1, 1) * poly(1, 1)],
        ids=["constant", "degree-6", "repeated"])
    def test_outside_the_contract_rejected(self, f):
        with pytest.raises(ValueError):
            factor_q(f)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=6))
    def test_refold(self, coeffs):
        f = RatPoly.of(coeffs)
        assume(separable(f))
        fac = factor_q(f)
        assert all(g.lc == 1 for g in fac)
        assert math.prod(fac, start=RatPoly.const(f.lc)) == f

    def test_refold_1000_seeded(self):
        rng = random.Random(1000)
        for _ in range(1000):
            f = RatPoly.of([rng.randrange(-20, 21) for _ in range(rng.randrange(2, 9))])
            if f.degree > 5 or not separable(f):
                continue
            fac = factor_q(f)
            assert [(g, 1) for g in fac] == sympy_factor_q(f)
            assert math.prod(fac, start=RatPoly.const(f.lc)) == f

    @settings(max_examples=300, deadline=None)
    @given(factor_q_inputs())
    @example(poly(1, 0, 0, 0, 1))  # t^4 + 1: reducible mod every prime
    @example(poly(1, 0, -10, 0, 1))  # t^4 - 10t^2 + 1: likewise
    @example(poly(1, 0, 1) * poly(-2, 0, 0, 1))
    @example(T5_MINUS_2)
    @example(SPLIT_QUINTIC)
    def test_matches_sympy(self, f):
        assert [(g, 1) for g in factor_q(f)] == sympy_factor_q(f)


class TestFactorFp:
    """The sympy oracle the F_p kernel is checked against."""

    def test_t5_minus_1_mod_11(self):
        fac = factor_fp([-1, 0, 0, 0, 0, 1], 11)
        roots = sorted((11 - g[0]) % 11 for g, _ in fac)
        assert roots == [1, 3, 4, 5, 9]
        for r in roots:
            assert (pow(r, 5, 11) - 1) % 11 == 0

    def test_t5_t_1_mod_2(self):
        fac = factor_fp([1, 1, 0, 0, 0, 1], 2)
        assert [(g, m) for g, m in fac] == [((1, 1, 1), 1), ((1, 0, 1, 1), 1)]
        # multiply back mod 2
        prod = [1]
        for g, m in fac:
            for _ in range(m):
                new = [0] * (len(prod) + len(g) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(g):
                        new[i + j] = (new[i + j] + a * b) % 2
                prod = new
        assert prod == [1, 1, 0, 0, 0, 1]

    def test_t2_plus_1_mod_3_irreducible(self):
        fac = factor_fp([1, 0, 1], 3)
        assert len(fac) == 1 and len(fac[0][0]) - 1 == 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 11]),
        st.lists(st.integers(0, 10), min_size=1, max_size=8),
    )
    def test_refold_fp(self, p, coeffs):
        f = tuple(fp_reduce(RatPoly.of(coeffs), p))
        if not f:
            return
        fac = factor_fp(f, p)
        prod = [f[-1] % p]
        for g, m in fac:
            for _ in range(m):
                new = [0] * (len(prod) + len(g) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(g):
                        new[i + j] = (new[i + j] + a * b) % p
                prod = new
        assert tuple(prod) == f


class TestCycleType:
    def test_matches_factorization(self):
        rng = random.Random(7)
        for _ in range(60):
            coeffs = [rng.randrange(-9, 10) for _ in range(5)] + [1]
            f = RatPoly.of(coeffs)
            for p in (3, 7, 11, 101):
                try:
                    disc = discriminant(f)
                except ValueError:
                    continue
                if val_unit(disc, p)[0] != 0 if disc != 0 else True:
                    continue
                fac = factor_fp(fp_reduce(f, p), p)
                expected = tuple(sorted((len(g) - 1 for g, m in fac for _ in range(m)), reverse=True))
                assert cycle_type(f, p) == expected
                assert fp_roots(fp_reduce(f, p), p) == sorted(-g[0] % p for g, _ in fac if len(g) == 2)


class TestDiscriminant:
    def test_quadratics(self):
        assert discriminant(poly(-1, 0, 1)) == 4
        assert discriminant(poly(1, 1, 1)) == -3

    def test_tb_times_p(self):
        # disc((t-b) P) = P(b)^2 disc(P), checked via resultants on both sides
        P = T5_MINUS_2
        b = Fraction(1)
        f = P * poly(-b, 1)
        assert discriminant(f) == P(b) ** 2 * discriminant(P)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            discriminant(poly(3, 1))


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)


class TestResultant:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(small_rationals, max_size=5),
        st.lists(small_rationals, max_size=5),
        nonzero_rationals,
        nonzero_rationals,
    )
    @example([2], [0, 1, -1], 1, 1)  # deg f < deg g, both odd
    @example([1, 2, 3], [0, 4, 5, 6, 7], -2, Fraction(1, 3))
    @example([], [1, 2], 3, 1)  # constants
    @example([1, 2], [], 1, 3)
    @example([], [], 3, Fraction(1, 2))
    def test_against_roots(self, alphas, betas, a, b):
        # independent oracle: Res = a^deg g b^deg f prod (alpha_i - beta_j)
        f = RatPoly.from_roots(alphas) * a
        g = RatPoly.from_roots(betas) * b
        expected = a ** len(betas) * b ** len(alphas)
        for x in alphas:
            for y in betas:
                expected *= x - y
        assert resultant(f, g) == expected


int_polys = st.lists(st.integers(-50, 50), max_size=7).map(fp_trim)


class TestIntegerPolynomials:
    @settings(max_examples=200, deadline=None)
    @given(int_polys, int_polys.filter(bool), st.integers(0, 3))
    @example([1, 2, 3], [5, 7], 0)
    @example([0, 0, 4], [1, 0, 3], 2)  # a padded with zeros
    def test_pseudo_remainder(self, a, b, pad):
        # r = lc(b)^e (a mod b) over Q, e counted from the padded length,
        # and lc(b)^e a = q b + r in Z[t]
        q, r, e = pseudo_divmod(a + [0] * pad, b)
        assert e == max(0, len(a) + pad - len(b) + 1)
        assert RatPoly.of(r) == RatPoly.of(a) % RatPoly.of(b) * b[-1] ** e
        assert not r or r[-1] != 0
        assert RatPoly.of(poly_mul(q, b)) + RatPoly.of(r) == RatPoly.of(a) * b[-1] ** e

    def test_poly_mul(self):
        assert poly_mul([1, 2], [3, 0, 4]) == [3, 6, 4, 8]
        assert poly_mul([], [1]) == []


# rational coefficient lists, zero-heavy so that interior zeros occur
rat_polys = st.lists(
    st.sampled_from([Fraction(0)] * 3) | st.fractions(min_value=-20, max_value=20, max_denominator=9),
    max_size=7,
).map(RatPoly.of)


def qq_div(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Oracle: sympy's division with remainder over QQ."""
    q, r = sympy.div(to_sympy(a).as_expr(), to_sympy(b).as_expr(), sympy.Symbol("t"), domain=sympy.QQ)
    return tuple(from_sympy(sympy.Poly(x, sympy.Symbol("t"), domain=sympy.QQ)) for x in (q, r))


class TestRatPolyKernels:
    """Product and long division over Q against sympy."""

    @staticmethod
    def assert_fractions(*fs: RatPoly):
        assert all(type(c) is Fraction for f in fs for c in f.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(rat_polys, rat_polys)
    @example(poly(1, 0, 0, 1), poly(1))  # (t^3 + 1) * 1: t and t^2 get no product
    @example(poly(), poly(Fraction(1, 3), 0, 2))  # zero operand
    def test_mul(self, a, b):
        prod = a * b
        self.assert_fractions(prod)
        expected = to_sympy(a).as_expr() * to_sympy(b).as_expr()
        assert prod == from_sympy(sympy.Poly(sympy.expand(expected), sympy.Symbol("t"), domain=sympy.QQ))

    @settings(max_examples=150, deadline=None)
    @given(rat_polys, rat_polys.filter(lambda f: not f.is_zero))
    @example(poly(), poly(1, 2))  # zero dividend
    @example(poly(Fraction(1, 2), 3), poly(0, 0, 0, 5))  # divisor of higher degree
    @example(poly(1, 0, 0, 0, 0, 7), poly(Fraction(-2, 3), 0, 1))  # interior zeros
    def test_divmod(self, a, b):
        q, r = divmod(a, b)
        self.assert_fractions(q, r)
        assert (q, r) == qq_div(a, b)
        assert q * b + r == a and r.degree < b.degree


# tall rationals (numerators up to 10^30, denominators up to 10^20), small
# ones and zeros, so that cancellation, interior zeros and units all occur
tall_coeffs = st.lists(
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20))
    | st.fractions(min_value=-5, max_value=5, max_denominator=4)
    | st.just(Fraction(0)),
    max_size=7,
)
rationals = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)) | st.integers(-9, 9)


def assert_canonical(f: RatPoly):
    assert type(f.num) is tuple and all(type(c) is int for c in f.num)
    assert type(f.den) is int and f.den > 0
    assert math.gcd(f.den, *f.num) == 1
    assert not f.num or f.num[-1] != 0
    assert f.num or f.den == 1


class TestRatPolyAgainstFracPoly:
    """Every RatPoly operation against the Fraction-tuple oracle."""

    @settings(max_examples=300, deadline=None)
    @given(tall_coeffs, tall_coeffs, rationals)
    @example([], [Fraction(-3, 7)], 2)  # zero dividend, constant divisor
    @example([1, 2, 3], [Fraction(1, 3), 0, 0, Fraction(-5, 2)], 0)  # dividend of lower degree
    @example([Fraction(10**30, 3), 0, 7, 1], [4, Fraction(-2, 9)], Fraction(-1, 10**20))  # negative lc
    @example([Fraction(1, 2), Fraction(1, 2)], [2, 2], Fraction(1, 2))  # a common factor to cancel
    def test_operations(self, ca, cb, x):
        a, b, fa, fb = RatPoly.of(ca), RatPoly.of(cb), FracPoly.of(ca), FracPoly.of(cb)
        results = [
            (a, fa), (a + b, fa + fb), (a - b, fa - fb), (-a, -fa), (a * b, fa * fb),
            (a * x, fa * x), (x * a, fa * x), (a.derivative(), fa.derivative()), (a.gcd(b), fa.gcd(fb)),
        ]
        if not b.is_zero:
            results += list(zip(divmod(a, b), divmod(fa, fb)))
            results += [(b.monic(), fb.monic()), (a % b, divmod(fa, fb)[1]), (a // b, divmod(fa, fb)[0])]
        for f, ref in results:
            assert_canonical(f)
            assert f.coeffs == ref.coeffs
            assert all(type(c) is Fraction for c in f.coeffs)
            assert f.denominator_lcm() == ref.denominator_lcm()
            assert str(f) == str(ref)
            assert f.degree == ref.degree
            assert f == RatPoly.of(ref.coeffs) and hash(f) == hash(RatPoly.of(ref.coeffs))
        for y in (x, Fraction(x), 0, -3):
            assert a(y) == fa(Fraction(y)) and type(a(y)) is Fraction
        if not a.is_zero:
            assert a.lc == fa.lc and [a[i] for i in range(-1, a.degree + 2)] == [fa[i] for i in range(-1, a.degree + 2)]

    def test_equality_across_constructions(self):
        assert RatPoly.of([Fraction(1, 2), 1]) == RatPoly.of(["1/2", "2/2"])
        assert hash(RatPoly.of([Fraction(1, 2), 1])) == hash(RatPoly.of(["1/2", "2/2"]))
        assert RatPoly(()) == RatPoly.of([0, 0]) == RatPoly.of([]) == RatPoly.over([0, 0], -7)
        assert RatPoly.over([2, 4, 0], -6) == RatPoly.of([Fraction(-1, 3), Fraction(-2, 3)])
        assert RatPoly.over([2, 4, 0], -6) == RatPoly((-1, -2), 3)
        assert {RatPoly.of([3, 6]) * Fraction(1, 3), RatPoly.of([1, 2])} == {RatPoly((1, 2))}

    def test_evaluation_takes_rationals_only(self):
        f = RatPoly.of([1, Fraction(1, 2)])
        assert f(Fraction(2, 3)) == Fraction(4, 3) and f(True) == Fraction(3, 2)
        with pytest.raises(TypeError):
            f(0.5)
        with pytest.raises(TypeError):
            f(RatPoly.x())

    def test_kernels_build_no_fraction(self, monkeypatch):
        # P * Q and divmod(P, Q) over Q run on integer numerators: no
        # Fraction is constructed, whatever the degree
        rng = random.Random(3)

        def rat_poly(n):
            return RatPoly.of([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(n + 1)])

        pairs = [(rat_poly(n), rat_poly(5)) for n in (5, 9, 15)]
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        counts = []
        for P, Q in pairs:
            before = len(made)
            P * Q, divmod(P, Q), divmod(Q, P)
            counts.append(len(made) - before)
        assert counts == [0, 0, 0]


def fp_div_oracle(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """Oracle: sympy's division of polynomials over GF(p)."""
    t = sympy.Symbol("t")
    q, r = sympy.Poly(a[::-1] or [0], t, modulus=p).div(sympy.Poly(m[::-1], t, modulus=p))
    return tuple(fp_trim([int(c) % p for c in reversed(x.all_coeffs())]) for x in (q, r))


class TestFpDivmod:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
    def test_against_sympy(self, p, data):
        # the dividend may be any int list: the result is reduced mod p
        a = data.draw(st.lists(st.integers(-2 * p, 2 * p), max_size=9))
        m = data.draw(st.lists(st.integers(0, p - 1), max_size=6)) + [data.draw(st.integers(1, p - 1))]
        q, r = fp_divmod(a, m, p)
        assert (q, r) == fp_div_oracle(a, m, p)
        assert fp_rem(a, m, p) == r


@st.composite
def adjugate_inputs(draw):
    """A square integer matrix of size 1 to 6 with zero-heavy, small or
    2^100-sized entries, with up to two rows replaced by combinations of
    the others (corank 0, 1 or more), transposed or not."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-9, 9) | st.integers(-2**100, 2**100)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        a[i] = [sum(c * a[r][j] for r, c in enumerate(coeffs) if r != i) for j in range(n)]
    if draw(st.booleans()):
        a = [list(col) for col in zip(*a)]
    return a


class TestAdjugateColumn:
    @settings(max_examples=300, deadline=None)
    @given(adjugate_inputs())
    @example([[7]])  # n = 1: the empty minor is 1
    @example([[1, 0, 1], [0, 1, 0], [1, 1, 1]])  # k = 0 needs a row exchange
    @example([[1, 0, 0], [0, 1, 2], [0, 3, 4]])  # k = 0 needs a column exchange
    @example([[0, 0, 0], [0, 1, 2], [0, 3, 4]])  # a zero row: only column 0 is nonzero
    @example([[1, 2, 3], [2, 4, 6], [3, 6, 9]])  # rank 1: every cofactor vanishes
    def test_against_minors(self, a):
        for k in range(len(a)):
            assert adjugate_column(a, k) == adjugate_column_by_minors(a, k)

    def test_rows_are_not_overwritten(self):
        a = [[0, 1, 2], [3, 0, 5], [6, 7, 0]]
        adjugate_column(a, 1)
        assert a == [[0, 1, 2], [3, 0, 5], [6, 7, 0]]


class TestUnramifiedPrime:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=15), min_size=3, max_size=6))
    @example([Fraction(1, 5), 0, 3])  # 3 divides lc(f) and 5 a denominator: 7
    @example([-2, 0, 1])
    @example([1, 2, 1])  # (t + 1)^2: no prime
    def test_least_odd_prime_off_lc_denominators_and_disc(self, coeffs):
        f = RatPoly.of(coeffs)
        assume(f.degree >= 2)
        disc = discriminant(f)
        bad = BadSet((f.lc.numerator, f.denominator_lcm(), disc.numerator), 0) if disc else None
        assert unramified_prime(f) == (next(good_primes(bad, 3)) if bad else None)

    def test_fallback_takes_one_discriminant(self, monkeypatch):
        # the roots 0, M, ..., 4M meet mod every odd prime up to 31
        M = math.prod(sympy.primerange(3, 32))
        discs = count_calls(monkeypatch, "discriminant")
        f = RatPoly.from_roots([0, M, 2 * M, 3 * M, 4 * M]) * Fraction(-1, 7)
        assert unramified_prime(f) == 37
        assert discs == [f]


class TestSquares:
    def test_examples(self):
        assert is_square_q(Fraction(4, 9))
        assert not is_square_q(5)
        assert is_square_q(2500)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_square_q(0)
        with pytest.raises(ValueError):
            local_square(0, prime_place(3))

    def test_local(self):
        assert local_square(9, prime_place(7))
        assert not local_square(7, prime_place(7))
        assert local_square(17, prime_place(2))
        assert not local_square(-1, REAL_PLACE)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6)),
        st.sampled_from([None, 2, 3, 5, 7, 97]),
    )
    def test_square_is_local_square(self, a, p):
        if a == 0:
            return
        v = REAL_PLACE if p is None else prime_place(p)
        assert local_square(a * a, v)


class TestHilbert:
    def test_minus_one_minus_one(self):
        assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
        assert hilbert_symbol(-1, -1, prime_place(2)) == -1

    def test_minus_one_minus_one_at_2_exhaustive(self):
        # Independent oracle: z^2 = -x^2 - y^2 has no primitive solution mod 16
        found = False
        for x in range(16):
            for y in range(16):
                for z in range(16):
                    if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                        continue
                    if (x * x + y * y + z * z) % 16 == 0:
                        found = True
        assert not found

    def test_2_7_at_7(self):
        assert pow(3, 2, 7) == 2  # 2 is a residue mod 7
        assert hilbert_symbol(2, 7, prime_place(7)) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-400, 400).filter(lambda n: n != 0),
        st.integers(-400, 400).filter(lambda n: n != 0),
        st.sampled_from([None, 2, 3, 5, 7, 11, 13]),
    )
    def test_symmetry_bilinearity(self, a, b, p):
        v = REAL_PLACE if p is None else prime_place(p)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        b2 = 3
        assert hilbert_symbol(a, b * b2, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, b2, v)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-400, 400).filter(lambda n: n != 0),
        st.integers(-400, 400).filter(lambda n: n != 0),
        st.sampled_from([None, 2, 3, 5, 7, 11, 13]),
    )
    def test_local_square_pairs_trivially(self, a, b, p):
        v = REAL_PLACE if p is None else prime_place(p)
        if local_square(a, v):
            assert hilbert_symbol(a, b, v) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-500, 500).filter(lambda n: n != 0),
        st.integers(-500, 500).filter(lambda n: n != 0),
    )
    def test_product_formula(self, a, b):
        prod = 1
        for v in hilbert_support(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


class TestRationalReconstruct:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_roundtrip(self, num, den):
        import math

        if math.gcd(num, den) != 1 or den % 13 == 0:
            return
        M = 13**40
        u = num * pow(den, -1, M) % M
        rec = rational_reconstruct(u, M)
        assert rec == Fraction(num, den)


class TestSqrtEtale:
    def test_constant_square(self):
        res = sqrt_in_etale(poly(4), T5_MINUS_2)
        assert res.status == "square"
        assert ((res.root * res.root - poly(4)) % T5_MINUS_2).is_zero

    def test_linear_modulus(self):
        res = sqrt_in_etale(poly(0, 1), poly(-9, 1))
        assert res.status == "square" and res.root == poly(3)

    def test_theta_not_square_in_t5_minus_2(self):
        res = sqrt_in_etale(poly(0, 1), T5_MINUS_2)
        assert res.status == "nonsquare"
        p, r = res.certificate
        # re-verify the certificate by hand
        assert T5_MINUS_2(r) % p == 0
        assert pow(r, (p - 1) // 2, p) == p - 1

    def test_sqrt2_in_q_sqrt2(self):
        m = poly(-2, 0, 1)
        res = sqrt_in_etale(poly(2), m)
        assert res.status == "square"
        assert ((res.root * res.root - poly(2)) % m).is_zero

    def test_structured_square(self):
        # (theta^2 + 3*theta + 1)^2 mod t^5 - 2 must come back square
        y = poly(1, 3, 1)
        d = (y * y) % T5_MINUS_2
        res = sqrt_in_etale(d, T5_MINUS_2)
        assert res.status == "square"
        assert ((res.root * res.root - d) % T5_MINUS_2).is_zero

    def test_rational_square_times_nonsquare(self):
        res = sqrt_in_etale(poly(20), poly(1, 1, 0, 1, 1, 1))
        assert res.status != "undecided"

    def test_cubic_field(self):
        # 2 is a cube root situation: theta^2 is a square (trivially), theta
        # itself is not a square in Q(2^(1/3))
        m = poly(-2, 0, 0, 1)
        sq = sqrt_in_etale((poly(0, 1) * poly(0, 1)) % m, m)
        assert sq.status == "square"
        non = sqrt_in_etale(poly(0, 1), m)
        assert non.status == "nonsquare"

    def test_quartic_field_structured(self):
        m = poly(2, 0, 0, 0, 1)  # t^4 + 2
        y = poly(1, 2, 0, 1)
        d = (y * y) % m
        res = sqrt_in_etale(d, m)
        assert res.status == "square"
        assert ((res.root * res.root - d) % m).is_zero

    def test_rational_coefficient_modulus(self):
        m = poly(Fraction(-1, 2), 0, 1)  # t^2 - 1/2: theta = 1/sqrt(2)
        res = sqrt_in_etale(poly(2), m)  # 2 = (2 theta)^2 there
        assert res.status == "square"
        assert ((res.root * res.root - poly(2)) % m).is_zero


    def test_reducible_modulus_square(self):
        # (t^2 - 2)(t - 3): d a square in both components
        m = poly(-2, 0, 1) * poly(-3, 1)
        y = poly(1, 1, 1)
        d = (y * y) % m
        res = sqrt_in_etale(d, m)
        assert res.status == "square"
        assert ((res.root * res.root - d) % m).is_zero

    def test_reducible_modulus_nonsquare_component(self):
        # 2 is a square in Q(sqrt 2) but not in the component Q at t = 3
        m = poly(-2, 0, 1) * poly(-3, 1)
        res = sqrt_in_etale(poly(2), m)
        assert res.status == "nonsquare"
        p, r = res.certificate
        # re-verify the certificate by hand: d(r) = 2 is a nonresidue
        assert m(r) % p == 0
        assert legendre(2, p) == -1

    def test_repeated_factor_rejected(self):
        m = poly(-1, 1) * poly(-1, 1) * poly(1, 1)  # (t - 1)^2 (t + 1)
        with pytest.raises(ValueError, match="squarefree"):
            sqrt_in_etale(poly(0, 1), m)

    def test_zero_divisor_rejected(self):
        m = poly(-2, 0, 1) * poly(-3, 1)
        with pytest.raises(ValueError, match="not a unit"):
            sqrt_in_etale(poly(-3, 1), m)


    # y = 10^450 + 7 + 3t + t^4: the root's coefficients have about 900
    # digits, beyond every precision of a fixed digit ladder
    @pytest.mark.parametrize("m, y", [
        (T5_MINUS_2, poly(10**450 + 7, 3, 0, 0, 1)),
        (poly(-2, 0, 1), poly(10**450 + 7, 3)),
    ], ids=["t5-2", "t2-2"])
    def test_huge_root_is_found(self, m, y):
        d = (y * y) % m
        assert sqrt_in_etale_walk(d, m, prime_budget=2).status == "undecided"
        res = sqrt_in_etale(d, m)
        assert res.status == "square"
        assert ((res.root * res.root - d) % m).is_zero

    def test_square_in_q_walks_no_prime(self, monkeypatch):
        # t^4 = (t^2)^2; the walk reaches the first totally split prime of
        # t^5 - 1/2 after 34 primes
        m = poly(Fraction(-1, 2), 0, 0, 0, 0, 1)
        calls = count_calls(monkeypatch, "fp_roots")
        res = sqrt_in_etale(poly(0, 0, 0, 0, 1), m)
        assert res.status == "square" and res.root == poly(0, 0, 1)
        assert calls == []

    def test_nonsquare_proved_at_first_split_prime(self, monkeypatch):
        # t^2 - 2 has no root mod 3 or 5 and the roots 3, 4 mod 7, where
        # 11 = 4 is a residue at both; 11 is not a square in Q(sqrt 2)
        m = poly(-2, 0, 1)
        assert sqrt_in_etale_walk(poly(11), m).certificate[0] == 17
        calls = count_calls(monkeypatch, "fp_roots")
        res = sqrt_in_etale(poly(11), m)
        assert res.status == "nonsquare" and res.certificate is None
        assert [p for _, p in calls] == [3, 5, 7]


@st.composite
def etale_moduli(draw):
    """m monic squarefree of degree 2 to 5, irreducible, reducible or with
    rational coefficients."""
    n = draw(st.integers(2, 5))
    small = st.integers(-9, 9)
    kind = draw(st.sampled_from(["irreducible", "reducible", "rational"]))
    if kind == "reducible":
        k = draw(st.integers(1, n - 1))
        m = RatPoly.of(draw(st.lists(small, min_size=k, max_size=k)) + [1])
        m = m * RatPoly.of(draw(st.lists(small, min_size=n - k, max_size=n - k)) + [1])
    elif kind == "rational":
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        m = RatPoly.of(draw(st.lists(coeff, min_size=n, max_size=n)) + [1])
    else:
        m = RatPoly.of(draw(st.lists(small, min_size=n, max_size=n)) + [1])
    assume(discriminant(m) != 0)
    if kind == "irreducible":
        assume(len(factor_q(m)) == 1)
    return m


@st.composite
def etale_cases(draw):
    """(d, m): m from `etale_moduli`; d a square y^2 mod m, a rational
    multiple c y^2 of one, or random, and a unit mod m."""
    m = draw(etale_moduli())
    n = m.degree
    height = draw(st.sampled_from([9, 10**6]))
    y = RatPoly.of(draw(st.lists(st.integers(-height, height), min_size=1, max_size=n)))
    form = draw(st.sampled_from(["square", "multiple", "random"]))
    if form == "square":
        d = (y * y) % m
    elif form == "multiple":
        d = (y * y * draw(st.fractions(min_value=-50, max_value=50, max_denominator=7))) % m
    else:
        d = y % m
    assume(not d.is_zero and resultant(m, d) != 0)
    return d, m


class TestSqrtAgainstWalk:
    @settings(max_examples=80, deadline=None)
    @given(etale_cases())
    def test_same_status_where_the_walk_decides(self, case):
        d, m = case
        res = sqrt_in_etale(d, m)
        assert res.status in ("square", "nonsquare")
        if res.status == "square":
            assert ((res.root * res.root - d) % m).is_zero
        ref = sqrt_in_etale_walk(d, m)
        if ref.status != "undecided":
            assert res.status == ref.status

    # d = c^2 h^2 with deg h^2 < deg m is a square in Q[t] and stays one
    # after reduction mod m
    @settings(max_examples=60, deadline=None)
    @given(
        m=etale_moduli(),
        h=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3),
        c=st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool),
    )
    def test_square_in_q_is_square(self, m, h, c):
        h = RatPoly.of(h[:(m.degree + 1) // 2])
        d = h * h * (c * c)
        assume(not d.is_zero and resultant(m, d) != 0)
        res = sqrt_in_etale(d, m)
        assert res.status == "square"
        assert ((res.root * res.root - d) % m).is_zero
        assert sqrt_in_etale_walk(d, m).status in ("square", "undecided")


# p = 2, small odd primes and primes above 10^6
VALUATION_PRIMES = st.sampled_from([2, 3, 5, 7, 1_000_003, 10**9 + 7, 2**61 - 1])


class TestValuation:
    @settings(max_examples=200, deadline=None)
    @given(
        unit=st.integers(-(10**40), 10**40).filter(bool),
        p=VALUATION_PRIMES,
        k=st.integers(0, 40),
    )
    @example(unit=-1, p=2, k=3)
    @example(unit=-(1_000_003**2) * 7, p=1_000_003, k=0)
    def test_against_sympy(self, unit, p, k):
        n = unit * p**k
        assert valuation(n, p) == sympy.multiplicity(p, n)

    @settings(max_examples=200, deadline=None)
    @given(
        num=st.integers(-(10**30), 10**30).filter(bool),
        den=st.integers(1, 10**30),
        p=VALUATION_PRIMES,
        k=st.integers(-20, 20),
    )
    @example(num=-12, den=1, p=2, k=0)
    @example(num=1, den=8 * 1_000_003, p=1_000_003, k=-2)
    def test_val_unit_against_sympy(self, num, den, p, k):
        a = Fraction(num, den) * Fraction(p) ** k
        v, u = val_unit(a, p)
        assert v == sympy.multiplicity(p, a.numerator) - sympy.multiplicity(p, a.denominator)
        assert u.numerator % p and u.denominator % p
        assert u * Fraction(p) ** v == a

    @pytest.mark.parametrize("p", [2, 3, 1_000_003])
    def test_zero_is_an_error(self, p):
        with pytest.raises(ValueError):
            valuation(0, p)
        with pytest.raises(ValueError):
            val_unit(Fraction(0), p)


class TestStripSquareContent:
    def test_strips(self):
        d = poly(Fraction(50, 9), Fraction(100, 9))
        e = strip_square_content(d)
        assert e == poly(2, 4)

    def test_square_class_preserved(self):
        d = poly(12, 0, 75)
        e = strip_square_content(d)
        ratio_num = d.coeffs[0] / e.coeffs[0]
        assert is_square_q(ratio_num)

    # contents with small primes, primes past the prime table's end,
    # squares and fourth powers
    @settings(max_examples=60, deadline=None)
    @given(
        small=st.lists(st.sampled_from([2, 3, 5, 7, 19, 997]), max_size=4),
        large=st.lists(st.sampled_from([1000003, 1000033, 4538519, 999999937]), max_size=2),
        powers=st.lists(st.integers(1, 4), min_size=6, max_size=6),
        base=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
        den=st.integers(1, 12),
    )
    @example(small=[19], large=[4538519], powers=[4, 4, 1, 1, 1, 1], base=[1, 1], den=1)
    @example(small=[], large=[1000003, 1000033], powers=[1, 1, 1, 1, 1, 1], base=[3], den=5)
    # over 5,000 bits with no prime factor below 10^6, with and without a
    # square cofactor (2^521 - 1 and 2^607 - 1 are primes)
    @example(small=[], large=[2**521 - 1, 2**607 - 1], powers=[9, 1, 1, 1, 1, 1], base=[1, 2], den=1)
    @example(small=[], large=[2**521 - 1, 2**607 - 1], powers=[10, 2, 1, 1, 1, 1], base=[-3], den=7)
    # 106 bits with the prime cofactor 10^12 + 39
    @example(small=[2, 3], large=[1000003, 10**12 + 39], powers=[3, 2, 3, 1, 1, 1], base=[1, 1], den=1)
    # the square of the table's last prime times a small square
    @example(small=[3, 5], large=[999983], powers=[2, 4, 2, 1, 1, 1], base=[1, -1], den=4)
    def test_against_trial_division(self, small, large, powers, base, den):
        content = 1
        for q, e in zip(small + large, powers):
            content *= q**e
        d = RatPoly.of([Fraction(content * c, den) for c in base])
        assert strip_square_content(d) == strip_square_content_by_trial_division(d)

    def test_huge_height_contents(self, monkeypatch):
        # the five delta representatives of a pencil of height 10^400, with
        # contents of 1,334 to 5,322 bits, one with a 5,107-bit cofactor
        # free of primes below 10^6
        seen = []
        monkeypatch.setattr(pencil_mod, "strip_square_content", lambda d: seen.append(d) or d)
        norm = pencil_mod.normalize_pencil(pencil_mod.Pencil(diag(10**400, -1, 2, -3, 5), diag(1, 2, 3, 4, 5)))
        pencil_mod.delta_invariant(norm)
        assert len(seen) == 5
        for d in seen:
            assert strip_square_content(d) == strip_square_content_by_trial_division(d)

    def test_no_sympy(self, monkeypatch):
        refuse_sympy(monkeypatch)
        contents = [0, 1, 12, 999983**2 * 9, 2**61 - 1, (10**12 + 39) * 1000003**3, (2**127 - 1) ** 3]
        for content in contents:
            d = poly(content, 2 * content)
            assert strip_square_content(d) == strip_square_content_by_trial_division(d)


class TestIntegerRoots:
    @settings(max_examples=80, deadline=None)
    @given(
        roots=st.lists(st.integers(-20, 20) | st.integers(-10**12, 10**12), max_size=5),
        cofactor=st.lists(st.integers(-10**12, 10**12) | st.integers(-9, 9), max_size=4),
    )
    @example(roots=[], cofactor=[0, 0, 0, 0])  # t^4: one repeated root 0
    @example(roots=[3, 3, -5, 0], cofactor=[2])  # a double root, a zero constant term
    @example(roots=[10**12, -10**12 + 1], cofactor=[10**12, -10**12, 1])
    # 3 * 5 * ... * 31 divides disc: the prime comes from the discriminant
    @example(roots=[0, 1, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31], cofactor=[])
    def test_against_sympy(self, roots, cofactor):
        f = RatPoly.from_roots(roots) * RatPoly.of(cofactor + [1])
        expected = sympy_rational_roots([int(c) for c in reversed(f.coeffs)])
        assert integer_roots(f) == sorted(set(expected))

    def test_monic_integer_input_only(self):
        with pytest.raises(ValueError, match="monic integer"):
            integer_roots(poly(1, 2))
        with pytest.raises(ValueError, match="monic integer"):
            integer_roots(poly(Fraction(1, 2), 0, 1))


class TestGoodPrimes:
    def test_table_is_primerange(self):
        assert list(small_primes()) == list(sympy.primerange(2, 10**6))

    # start and stop on both sides of 2^16 (65521 the last prime below it,
    # 65537 the next) and of the table's end (999983 its last prime, 1000003
    # the next), at its start, and an empty walk
    @pytest.mark.parametrize(
        "start,stop",
        [(0, 40), (2, 2), (3, 3), (65500, 65600), (65521, 65537), (65522, 65522),
         (65536, 65700), (70000, 70100), (100, 99), (65600, 65500),
         (999900, 1000100), (999983, 1000003), (999983, 999983), (999984, 999984),
         (999984, 1000003), (1000000, 1000040), (1000003, 1000003), (1000100, 999900)],
    )
    def test_matches_nextprime_walk(self, start, stop):
        bad = BadSet((3 * 65519 * 65537 * 70001 * 999979 * 1000033,), 11)
        assert list(good_primes(bad, start, stop)) == list(nextprime_walk(bad, start, stop))

    @pytest.mark.parametrize("start", [3, 65500, 65537, 999950, 999984])
    def test_unbounded_walk(self, start):
        bad = BadSet((65537,), 0)
        assert (list(itertools.islice(good_primes(bad, start), 12))
                == list(itertools.islice(nextprime_walk(bad, start), 12)))


# The Carmichael numbers below 10^6: composite, yet they pass Fermat's
# test to every base prime to them.
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745,
    63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409,
    314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461, 530881, 552721, 656601,
    658801, 670033, 748657, 825265, 838201, 852841, 997633,
)


class TestPrimePlace:
    @staticmethod
    def _accepts(n: int) -> bool:
        try:
            return prime_place(n).p == n
        except ValueError:
            return False

    def test_agrees_with_isprime(self):
        # both sides of the table's end, squares of primes inside and past
        # it, and the Carmichael numbers
        squares = [q * q for q in (2, 3, 5, 31, 997, 999983, 1000003)]
        for n in [*range(10**6 - 300, 10**6 + 300), *squares, *CARMICHAEL]:
            assert self._accepts(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects(self, n):
        with pytest.raises(ValueError, match="not prime"):
            prime_place(n)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestIsPrime:
    # psi_12 fails only base 41, and psi_9 = psi_10 = psi_11 =
    # 3825123056546413051 only bases 37 and 41
    @pytest.mark.parametrize("n", [PSI_12, 3825123056546413051])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not sympy.isprime(n)
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 10**24 + 7])
    def test_accepts_large_primes(self, n):
        assert sympy.isprime(n)
        assert is_prime(n)

    def test_agrees_with_isprime_past_the_table(self):
        # odd n of 20 to 82 bits, in [10^6, psi_13)
        rng = random.Random(13)
        for _ in range(3000):
            bits = rng.randrange(20, 83)
            n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            if 10**6 <= n < PSI_13:
                assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [PSI_13, PSI_13 + 2, 2**89 - 1])
    def test_undecided_at_psi_13(self, n):
        assert exact.MILLER_RABIN_END == PSI_13
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)


class TestResidue:
    def test_field_ops(self):
        theta = Residue.of(poly(0, 1), T5_MINUS_2)
        one = Residue.of(poly(1), T5_MINUS_2)
        assert (theta * theta.inverse()).poly == one.poly
        assert (theta * theta * theta * theta * theta).poly == poly(2)
