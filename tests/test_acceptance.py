"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time budget is asserted in the test itself.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from quadpencil import gf2
from quadpencil.canon import canonical_quadrics, roundtrip_invariants
from quadpencil.exact import (
    RatPoly,
    discriminant,
    inverse_mod,
    is_square_q,
    strip_square_content,
)
from quadpencil.groupmod import TRANSITIVE_SUBGROUPS, end_ring_r, h1_dim, perm_closure
from quadpencil.localarith import (
    DT_RES_NONZERO,
    DT_RES_ZERO,
    IDENTITY_CONDITION,
    bad_set_s0,
    find_bT,
    padic_soluble,
    real_soluble,
)
from quadpencil.pencil import (
    Pencil,
    delta_invariant,
    normalize_pencil,
    random_pencil,
)
from quadpencil.selmersim import (
    SelmerSystem,
    find_descent_instance,
    make_system,
    random_transverse_condition,
    twist_at,
    verify_pt_duality,
)
from reference import (
    ct_kernel,
    delta_record,
    delta_residue_at,
    endgame_pairing,
    hilbert_support,
    hilbert_symbol,
    roundtrip_statuses_by_residue,
    shift,
    span,
    squarefree_part,
    verify_norm_square,
    weighted_trace_form,
)


def poly(*coeffs):
    return RatPoly.of(coeffs)


def report(n, name, detail=""):
    print(f"\nACCEPTANCE {n} ({name}): PASS {detail}")


T5_MINUS_2 = poly(-2, 0, 0, 0, 0, 1)
SPLIT_QUINTIC = RatPoly.from_roots([0, 1, 2, 3, 4])
S5_QUINTIC = poly(-1, -1, 0, 0, 0, 1)
D10_QUINTIC = poly(12, -5, 0, 0, 0, 1)
A5_QUINTIC = poly(-16, 20, 0, 0, 0, 1)
C5_QUINTIC = poly(1, 3, -3, -4, 1, 1)


def test_criterion_1_lemma_table():
    """H^1 = 0 and r = (4, 2, 1, 1, 1) for (C5, D10, F20, A5, S5), < 10 s."""
    t0 = time.time()
    expected_r = {"C5": 4, "D10": 2, "F20": 1, "A5": 1, "S5": 1}
    for label, gens in TRANSITIVE_SUBGROUPS.items():
        assert h1_dim(gens) == 0, label
        assert end_ring_r(gens) == expected_r[label], label
    elapsed = time.time() - t0
    assert elapsed < 10
    report(1, "lemma table", f"in {elapsed:.2f}s")


def test_criterion_2_norm_square_law():
    """Norm-square law on 200 random smooth pencils, zero failures, < 60 s."""
    t0 = time.time()
    rng = random.Random(22_000)
    failures = 0
    for _ in range(200):
        pen = random_pencil(rng, entry_bound=9)
        inv = delta_invariant(normalize_pencil(pen))
        if not verify_norm_square(inv):
            failures += 1
    elapsed = time.time() - t0
    assert failures == 0
    assert elapsed < 60
    report(2, "norm-square law", f"200 pencils in {elapsed:.1f}s")


def _roundtrip_corpus():
    """50 pairs (P, delta') spanning the five labels and split patterns."""
    pairs = []
    split1 = SPLIT_QUINTIC
    split2 = RatPoly.from_roots([-2, -1, 0, 1, 3])
    split3 = RatPoly.from_roots([1, 2, 3, 5, 8])
    split_patterns = [
        [1, 1, 1, 1, 1],
        [5, 5, 1, 1, 1],
        [5, 5, 5, 5, 1],
        [2, 3, 6, 1, 1],
        [2, 2, 1, 1, 1],
        [-1, -1, 1, 1, 1],
        [2, 8, 1, 1, 1],
        [3, 3, 1, 1, 1],
        [7, 7, 7, 7, 1],
        [6, 6, 1, 1, 1],
    ]
    for P in (split1, split2, split3):
        for pat in split_patterns[: 10 if P is split1 else 5]:
            pairs.append((P, pat))
    for P0 in (C5_QUINTIC, D10_QUINTIC, A5_QUINTIC):
        for k in (0, 1, 2):
            P = shift(P0, k)
            pairs.append((P, poly(1)))
            pairs.append((P, strip_square_content(P.derivative())))  # norm = disc, square
    for k in (0, 1, -1):
        P = shift(T5_MINUS_2, k)
        c = squarefree_part(int(discriminant(P)))
        pairs.append((P, poly(1)))
        pairs.append((P, strip_square_content(P.derivative() * c)))
    pairs.append((T5_MINUS_2, poly(2, 0, 1)))  # theta^2 + 2, norm 36
    for k in (0, 1, -1):
        P = shift(S5_QUINTIC, k)
        c = squarefree_part(int(discriminant(P)))
        pairs.append((P, poly(1)))
        pairs.append((P, strip_square_content(P.derivative() * c)))
    assert len(pairs) >= 50
    return pairs[:50]


def test_criterion_3_roundtrip():
    """Canonical quadrics -> pencil invariants recovers (P, delta) for 50
    pairs spanning all labels, zero mismatches, < 5 min."""
    t0 = time.time()
    pairs = _roundtrip_corpus()
    assert len(pairs) == 50
    for P, d in pairs:
        rep = roundtrip_invariants(P, d)
        assert rep.ok, (str(P), str(d), rep.failures())
        assert rep.norm_is_square
    elapsed = time.time() - t0
    assert elapsed < 300
    report(3, "round trip", f"50 pairs in {elapsed:.1f}s")


def test_roundtrip_statuses_match_residue_oracle():
    """The round trip's delta-class statuses, taken through the chart's
    action on Q[t], equal rd / pd(theta) computed by inversion mod rf."""
    # delta classes of odd degree, where the chart's formal degree must be
    # even so that the power of d t - b it brings in is a square
    odd = [(shift(T5_MINUS_2, k), d) for k, d in ((0, poly(0, 1)), (1, poly(0, 1)), (2, poly(1, 1)))]
    odd.append((poly(-3, 0, 1) * poly(-2, 0, 0, 1), [poly(3), poly(0, 1)]))
    for P, d in _roundtrip_corpus() + odd:
        rep = roundtrip_invariants(P, d)
        assert [m.ratio_status for m in rep.matches] == roundtrip_statuses_by_residue(rep, d)


def test_criterion_4_euler_traces_and_pencil_identity():
    """tau_0..tau_3 = 0, tau_4 = 1 on 100 random quintics, exact; and the
    characteristic form of the canonical pencil is a square times P."""
    t0 = time.time()
    rng = random.Random(4_000)
    done = 0
    while done < 100:
        P = RatPoly.of([rng.randrange(-9, 10) for _ in range(5)] + [1])
        if discriminant(P) == 0:
            continue
        done += 1
        g = weighted_trace_form(P, inverse_mod(P.derivative(), P), poly(1))
        assert [g[0][0], g[0][1], g[0][2], g[0][3]] == [0, 0, 0, 0]
        assert g[0][4] == 1
        if done % 10 == 0:
            model = canonical_quadrics(P, poly(1))
            n = math.prod(model.inv.norms)
            bq = model.to_pencil().det_poly
            assert all(bq[i] == n * P[5 - i] for i in range(6))
            assert is_square_q(n)
    elapsed = time.time() - t0
    report(4, "trace identities", f"100 quintics in {elapsed:.1f}s")


def test_criterion_5_line_on_trivial_twist():
    """With delta' = 1 both canonical forms vanish identically on the plane
    u = r + s theta (symbolic zero of the 2x2 corner)."""
    rng = random.Random(5_000)
    checked = 0
    while checked < 20:
        P = RatPoly.of([rng.randrange(-9, 10) for _ in range(5)] + [1])
        if discriminant(P) == 0:
            continue
        checked += 1
        model = canonical_quadrics(P, poly(1))
        for g in (model.gram1, model.gram2):
            assert g[0][0] == 0 and g[0][1] == 0 and g[1][0] == 0 and g[1][1] == 0
    report(5, "line on the trivial twist", "20 quintics, symbolic zeros")


def test_criterion_6_hilbert_product_formula():
    """prod_v (a,b)_v = 1 over 500 random pairs, places from the support."""
    rng = random.Random(6_000)
    for _ in range(500):
        a = rng.randrange(-900, 900) or 1
        b = rng.randrange(-900, 900) or 1
        prod = 1
        for v in hilbert_support(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
    report(6, "Hilbert product formula", "500 pairs")


def test_criterion_7_bt_witness_searches():
    """(b, T) witnesses: the dihedral two-prime pattern (residue nonzero at
    w1, zero at w2) within the 1e5 bound in < 2 min, and the one-prime
    pattern with zero residue likewise."""
    delta_rep = strip_square_content(D10_QUINTIC.derivative())
    delta = [(D10_QUINTIC, delta_rep)]
    inv = delta_record(D10_QUINTIC, delta)
    s0 = bad_set_s0(inv)

    t0 = time.time()
    wit = find_bT(inv, [DT_RES_NONZERO, DT_RES_ZERO], s0, prime_bound=100_000)
    elapsed_b = time.time() - t0
    assert elapsed_b < 120
    assert wit.verify(inv, s0)
    w1, w2 = wit.primes
    assert not delta_residue_at(D10_QUINTIC, delta, w1).is_zero
    assert delta_residue_at(D10_QUINTIC, delta, w2).is_zero

    t0 = time.time()
    delta_triv = [(T5_MINUS_2, poly(1))]
    inv_triv = delta_record(T5_MINUS_2, delta_triv)
    s0_triv = bad_set_s0(inv_triv)
    wit_a = find_bT(inv_triv, [IDENTITY_CONDITION], s0_triv, prime_bound=100_000)
    elapsed_a = time.time() - t0
    assert elapsed_a < 120
    assert wit_a.verify(inv_triv, s0_triv)
    assert delta_residue_at(T5_MINUS_2, delta_triv, wit_a.primes[0]).is_zero
    report(
        7,
        "(b,T) search",
        f"dihedral pattern at {wit.primes} in {elapsed_b:.1f}s; "
        f"identity pattern at {wit_a.primes} in {elapsed_a:.1f}s",
    )


def test_criterion_8_selmer_simulator():
    """Duality on 1000 seeded systems at every place; bound and parity on
    1e4 twist steps; corruption detected; mode-A descent 5 -> 3 -> 1; the
    endgame kernel is exactly {0, delta}."""
    t0 = time.time()
    for seed in range(1000):
        system = make_system(seed, 3, [2, 4, 2])
        for v in range(3):
            assert verify_pt_duality(system, v), seed

    rng = random.Random(808)
    steps = 0
    seed = 0
    while steps < 10_000:
        system = make_system(seed, 3, [4, 4, 4])
        for v in range(3):
            cond = random_transverse_condition(rng, system.places[v])
            _, step = twist_at(system, v, cond)  # raises on any law violation
            assert step.n1 + step.n2 <= step.r
            assert (step.n1 + step.n2) % 2 == step.r % 2
            steps += 1
        seed += 1

    detected = 0
    for seed in range(40):
        system = make_system(seed, 3, [2, 2, 2])
        crng = random.Random(seed + 999)
        n = system.total_dim
        while True:
            cand = gf2.reduce_basis([crng.randrange(1, 1 << n) for _ in range(3)])
            if len(cand) == 3 and any(system.q_total(x) for x in cand):
                break
        bad = SelmerSystem(system.places, tuple(cand))
        if not all(verify_pt_duality(bad, v) for v in range(3)):
            detected += 1
    assert detected > 0

    found = find_descent_instance("A", 5, 5, [4, 4, 4, 4, 4])
    assert found is not None
    _, _, trace = found
    assert trace.dims == (5, 3, 1)

    kernel = ct_kernel(endgame_pairing(), 3)
    assert span(kernel) == {0, 0b001}
    elapsed = time.time() - t0
    report(
        8,
        "Selmer simulator",
        f"1000 duality systems, {steps} twists, corruption x{detected}, "
        f"descent {found[0]} in {elapsed:.1f}s",
    )


def _solubility_corpus():
    rng = random.Random(9_000)
    corpus = []
    for _ in range(16):
        corpus.append(random_pencil(rng, entry_bound=4))
    corpus.append(canonical_quadrics(SPLIT_QUINTIC, poly(1)).to_pencil())
    corpus.append(canonical_quadrics(T5_MINUS_2, poly(1)).to_pencil())
    corpus.append(canonical_quadrics(SPLIT_QUINTIC, [5, 5, 1, 1, 1]).to_pencil())
    corpus.append(Pencil(
        tuple(tuple(Fraction(1 if i == j else 0) for j in range(5)) for i in range(5)),
        tuple(tuple(Fraction(i if i == j else 0) for j in range(5)) for i in range(5)),
    ))
    return corpus


def _oracle_padic(model, p):
    from math import lcm

    den = 1
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
        if not any(vals):
            pts.append(vec)
    if not pts:
        return "insoluble"
    for vec in pts:
        rows = [
            [2 * sum(f[i][j] * vec[j] for j in range(5)) % p for i in range(5)]
            for f in forms
        ]
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


def test_criterion_9_local_solubility_agreement():
    """padic_soluble never contradicts plain P^4(F_p)+Hensel enumeration for
    p <= 13 on a 20-model corpus; real_soluble matches a float definiteness
    scan at 1000 sample parameters."""
    t0 = time.time()
    corpus = _solubility_corpus()
    assert len(corpus) == 20
    for pen in corpus:
        model = [pen.phi1, pen.phi2]
        for p in (2, 3, 5, 7, 11, 13):
            cert = padic_soluble(model, p, effort=2)
            oracle = _oracle_padic(model, p)
            if oracle == "soluble":
                assert cert.verdict == "soluble", (p, cert)
            elif oracle == "insoluble":
                assert cert.verdict == "insoluble", (p, cert)
            else:
                # oracle saw only singular points; any honest verdict is fine
                assert cert.verdict in ("soluble", "insoluble", "unknown")

    for pen in corpus:
        cert = real_soluble(pen)
        a1 = np.array([[float(x) for x in row] for row in pen.phi1])
        a2 = np.array([[float(x) for x in row] for row in pen.phi2])
        definite = False
        for theta in np.linspace(0, np.pi, 1000, endpoint=False):
            m = np.cos(theta) * a1 - np.sin(theta) * a2
            ev = np.linalg.eigvalsh(m)
            if ev[0] > 1e-9 or ev[-1] < -1e-9:
                definite = True
                break
        assert cert.verdict == ("insoluble" if definite else "soluble")
    elapsed = time.time() - t0
    report(9, "local solubility oracles", f"20 models in {elapsed:.1f}s")
