"""Tests for the synthetic 2-Selmer twisting machinery."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from quadpencil import gf2
from quadpencil.cli import main
from quadpencil.selmersim import (
    DescentBlockedError,
    LocalSpace,
    SelmerSystem,
    _pair_partner,
    check_corpus,
    descent_driver,
    find_descent_instance,
    make_system,
    random_isotropic,
    random_transverse_condition,
    relaxed_selmer,
    selmer,
    standard_lagrangian,
    twist_at,
    verify_pt_duality,
)
from reference import (
    ct_kernel,
    endgame_pairing,
    exhaustive_selmer,
    pair_split_by_bits,
    q_split_by_bits,
    span,
)


class TestLocalSpace:
    def test_standard_is_isotropic(self):
        for d in (1, 2, 3):
            LocalSpace(d, tuple(standard_lagrangian(d)))  # validates

    def test_random_isotropic_valid(self):
        rng = random.Random(0)
        for d in (1, 2, 3, 4):
            for _ in range(20):
                basis = random_isotropic(rng, d)
                assert len(basis) == d
                assert gf2.rank(basis) == d
                LocalSpace(d, tuple(basis))  # validates

    def test_non_isotropic_rejected(self):
        # q(e1 + f1) = 1 in the d = 1 split plane
        with pytest.raises(ValueError):
            LocalSpace(1, (0b11,))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 16).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, (1 << (2 * d + 2)) - 1),
                            st.integers(0, (1 << (2 * d + 2)) - 1))))
    def test_popcount_forms_match_bits(self, dxy):
        # _pair_partner is defined on vectors below 2^(2d); the oracles
        # ignore the bits above
        d, x, y = dxy
        x &= (1 << (2 * d)) - 1
        y &= (1 << (2 * d)) - 1
        assert (x & _pair_partner(x, d) & ((1 << d) - 1)).bit_count() & 1 == q_split_by_bits(x, d)
        assert (x & _pair_partner(y, d)).bit_count() & 1 == pair_split_by_bits(x, y, d)

    def test_transvection_preserves_q(self):
        rng = random.Random(1)
        d = 3
        system = SelmerSystem((LocalSpace(d, tuple(standard_lagrangian(d))),), ())
        for _ in range(100):
            u = rng.randrange(1, 1 << (2 * d))
            if system.q_total(u) != 1:
                continue
            x = rng.randrange(1 << (2 * d))
            image = x ^ u if pair_split_by_bits(x, u, d) else x
            assert system.q_total(image) == system.q_total(x)


class TestSystemForms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6).flatmap(
        lambda ds: st.tuples(st.just(ds), st.integers(0, (1 << (2 * sum(ds))) - 1),
                             st.integers(0, (1 << (2 * sum(ds))) - 1))))
    def test_q_total_and_partner_match_bits(self, case):
        # q and the pairing of the direct sum are the sums of the per-place
        # forms; places of dimension 0 contribute nothing
        ds, x, y = case
        places = tuple(LocalSpace(d, tuple(standard_lagrangian(d))) for d in ds)
        system = SelmerSystem(places, ())
        q = pair = off = 0
        for d in ds:
            xv, yv = (x >> off) & ((1 << (2 * d)) - 1), (y >> off) & ((1 << (2 * d)) - 1)
            q ^= q_split_by_bits(xv, d)
            pair ^= pair_split_by_bits(xv, yv, d)
            off += 2 * d
        assert system.q_total(x) == q
        assert (x & system.partner(y)).bit_count() & 1 == pair
        assert (y & system.partner(x)).bit_count() & 1 == pair


class TestMakeSystem:
    def test_invariants_by_construction(self):
        sys0 = make_system(0, 3, 4)
        sys0.validate()
        assert sys0.total_dim == 12
        assert len(sys0.global_lagrangian) == 6

    def test_determinism(self):
        a = make_system(7, 4, [2, 4, 2, 4])
        b = make_system(7, 4, [2, 4, 2, 4])
        assert a == b

    def test_zero_place_contributes_nothing(self):
        base = make_system(3, 2, [4, 4])
        padded = make_system(3, 3, [4, 4, 0])
        assert len(selmer(base)) == len(selmer(padded))

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            make_system(0, 1, [3])


class TestSelmer:
    def test_matches_exhaustive_oracle(self):
        for seed in range(40):
            system = make_system(seed, 3, [2, 4, 2])
            basis = selmer(system)
            assert span(basis) == exhaustive_selmer(system)

    def test_conditions_equal_projections_full(self):
        # global subspace = product of conditions gives Selmer = everything
        places = tuple(LocalSpace(d, tuple(standard_lagrangian(d))) for d in (2, 1))
        glob = tuple(system_vec for system_vec in [0b0001, 0b0010, 0b010000])
        system = SelmerSystem(places, glob)
        system.validate()
        assert len(selmer(system)) == 3

    def test_relaxed_contains_selmer(self):
        for seed in range(20):
            system = make_system(seed, 3, 4)
            sel = span(selmer(system))
            for v in range(3):
                rel = span(relaxed_selmer(system, v))
                assert sel <= rel

    def test_relaxed_codimension_bound(self):
        for seed in range(20):
            system = make_system(seed, 3, [2, 4, 6])
            ns = len(selmer(system))
            for v, pl in enumerate(system.places):
                nr = len(relaxed_selmer(system, v))
                assert 0 <= nr - ns <= pl.d

    def test_single_place_relaxed_is_everything(self):
        system = make_system(5, 1, [4])
        assert len(relaxed_selmer(system, 0)) == 2


class TestDuality:
    def test_duality_on_corpus(self):
        for seed in range(150):
            system = make_system(seed, 3, [2, 4, 2])
            for v in range(3):
                assert verify_pt_duality(system, v)

    def test_duality_trivial_system(self):
        places = tuple(LocalSpace(d, tuple(standard_lagrangian(d))) for d in (2, 2))
        glob = tuple([0b0001, 0b0010, 0b00010000, 0b00100000])
        system = SelmerSystem(places, glob)
        system.validate()
        for v in range(2):
            assert verify_pt_duality(system, v)

    def test_corrupted_global_fails(self):
        # replace the global subspace by a non-isotropic one of right size;
        # duality must fail at some place for some seed (negative control)
        detected = 0
        for seed in range(25):
            system = make_system(seed, 3, [2, 2, 2])
            rng = random.Random(seed + 1000)
            n = system.total_dim
            while True:
                cand = gf2.reduce_basis([rng.randrange(1, 1 << n) for _ in range(3)])
                if len(cand) == 3 and any(system.q_total(x) for x in cand):
                    break
            bad = SelmerSystem(system.places, tuple(cand))
            with pytest.raises(ValueError):
                bad.validate()
            if not all(verify_pt_duality(bad, v) for v in range(3)):
                detected += 1
        assert detected > 0


class TestCheckCorpus:
    def test_negative_control_and_cli_counts(self, tmp_path):
        control = check_corpus(0, [2, 2, 2], 50, negative_control=True)
        assert control["duality"]["checks"] == 150
        assert control["duality"]["failures"] > 0
        plain = check_corpus(0, [2, 2, 2], 50)
        assert plain["duality"] == {"checks": 150, "failures": 0}
        assert plain["twists"] == {"checks": 150, "failures": 0}
        for counts, flags in ((control, ["--negative-control"]), (plain, [])):
            out = tmp_path / "sim.json"
            main(["--json", "--seed", "0", "--out", str(out), "simulate", "--systems", "50",
                  "--dims", "2,2,2", *flags])
            data = json.loads(out.read_text())
            assert {"duality": data["duality"], "twists": data["twists"]} == counts


class TestTwist:
    def test_identity_swap(self):
        system = make_system(2, 3, 4)
        v = 1
        new_system, step = twist_at(system, v, system.places[v].condition)
        assert step.n1 == step.n2
        assert step.dim_after == step.dim_before
        assert not step.transverse

    def test_transverse_laws_d2(self):
        rng = random.Random(11)
        changes = set()
        for seed in range(200):
            system = make_system(seed, 3, [4, 4, 4])
            v = seed % 3
            new_cond = random_transverse_condition(rng, system.places[v])
            _, step = twist_at(system, v, new_cond)
            assert step.transverse
            assert step.n1 + step.n2 <= 2
            assert (step.n1 + step.n2) % 2 == 0
            changes.add(step.dim_after - step.dim_before)
        assert changes <= {-2, 0, 2}
        assert len(changes) > 1

    def test_transverse_laws_d4(self):
        rng = random.Random(13)
        for seed in range(120):
            system = make_system(seed, 2, [8, 8])
            v = seed % 2
            new_cond = random_transverse_condition(rng, system.places[v])
            _, step = twist_at(system, v, new_cond)
            assert step.n1 + step.n2 <= 4
            assert (step.n1 + step.n2) % 2 == 0

    def test_non_isotropic_rejected(self):
        system = make_system(0, 2, [4, 4])
        with pytest.raises(ValueError):
            twist_at(system, 0, (0b0101, 0b1010))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 2))
    def test_general_parity_any_swap(self, seed, v):
        system = make_system(seed % 5000, 3, [4, 2, 4])
        rng = random.Random(seed)
        new_cond = random_isotropic(rng, system.places[v].d)
        _, step = twist_at(system, v, new_cond)  # raises on any law violation


class TestDescent:
    def test_start_dim_one_empty_trace(self):
        inst = None
        for seed in range(500):
            system = make_system(seed, 3, [4, 4, 4])
            if len(selmer(system)) == 1:
                inst = system
                break
        assert inst is not None
        trace = descent_driver(inst, 0, mode="A")
        assert trace.dims == (1,)
        assert not trace.steps

    def test_mode_a_5_3_1(self):
        found = find_descent_instance("A", 5, 5, [4, 4, 4, 4, 4])
        assert found is not None
        _, _, trace = found
        assert trace.dims == (5, 3, 1)
        for step in trace.steps:
            assert step.r == 2 and step.n1 == 0 and step.n2 == 2

    def test_mode_b_7_3(self):
        found = find_descent_instance("B", 7, 3, [8, 8, 8], max_seed=500)
        assert found is not None
        _, _, trace = found
        assert trace.dims[0] == 7 and trace.dims[-1] in (1, 3)
        # hand off to the Cassels-Tate shadow when landing on 3
        if trace.dims[-1] == 3:
            kernel = ct_kernel(endgame_pairing(), 3)
            assert kernel == [0b001]

    def test_blocked_reports_state(self):
        # a system with no r = 2 place at all blocks immediately unless the
        # Selmer group is already terminal
        for seed in range(300):
            system = make_system(seed, 2, [8, 8])
            sel = selmer(system)
            if len(sel) > 1:
                with pytest.raises(DescentBlockedError) as e:
                    descent_driver(system, 0, mode="A")
                assert "per_place" in e.value.state
                break
        else:
            pytest.skip("no instance found")

    def test_delta_survives(self):
        found = find_descent_instance("A", 3, 4, [4, 4, 4, 4])
        assert found is not None
        _, system, trace = found
        assert gf2.in_span(trace.delta, list(trace.final_selmer))


class TestCtKernel:
    def test_endgame_kernel_is_delta(self):
        kernel = ct_kernel(endgame_pairing(), 3)
        assert span(kernel) == {0, 0b001}

    def test_zero_pairing(self):
        assert len(ct_kernel([0, 0, 0], 3)) == 3

    def test_non_alternating_rejected(self):
        with pytest.raises(ValueError):
            ct_kernel([0b001, 0, 0], 3)
        with pytest.raises(ValueError):
            ct_kernel([0b010, 0, 0], 3)

    def test_random_alternating_even_corank_shift(self):
        rng = random.Random(3)
        for _ in range(60):
            dim = 4
            rows = [0] * dim
            for i in range(dim):
                for j in range(i + 1, dim):
                    if rng.random() < 0.5:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            k = len(ct_kernel(rows, dim))
            assert (dim - k) % 2 == 0  # alternating forms have even rank
