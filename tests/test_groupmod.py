"""Tests for the finite group/module brute-force layer."""

import pytest
from hypothesis import given, settings, strategies as st

from quadpencil.groupmod import (
    TRANSITIVE_SUBGROUPS,
    DeltaPoint,
    NotTransitiveError,
    WreathElement,
    WREATH_IDENTITY,
    act_on_delta,
    all_delta_points,
    end_ring_r,
    h1_dim,
    is_admissible,
    perm_closure,
    wreath_closure,
)

wreath_strategy = st.builds(
    WreathElement,
    st.integers(0, 31),
    st.permutations(range(5)).map(tuple),
)


class TestAction:
    def test_identity_fixes_all(self):
        for x in all_delta_points():
            assert act_on_delta(WREATH_IDENTITY, x) == x

    def test_sign_flip(self):
        g = WreathElement(0b00001, (0, 1, 2, 3, 4))
        assert act_on_delta(g, DeltaPoint(0, 0)) == DeltaPoint(0, 1)

    def test_transposition(self):
        g = WreathElement(0, (1, 0, 2, 3, 4))
        assert act_on_delta(g, DeltaPoint(0, 0)) == DeltaPoint(1, 0)

    def test_action_law_generators(self):
        gens = [
            WreathElement(0b00001, (0, 1, 2, 3, 4)),
            WreathElement(0, (1, 0, 2, 3, 4)),
            WreathElement(0, (1, 2, 3, 4, 0)),
        ]
        full = wreath_closure(gens)
        assert len(full) == 3840
        for g in full:
            for h in gens:
                for x in all_delta_points():
                    assert act_on_delta(g * h, x) == act_on_delta(g, act_on_delta(h, x))

    @settings(max_examples=300, deadline=None)
    @given(wreath_strategy, wreath_strategy)
    def test_action_law_random(self, g, h):
        for x in all_delta_points():
            assert act_on_delta(g * h, x) == act_on_delta(g, act_on_delta(h, x))

    @settings(max_examples=100, deadline=None)
    @given(wreath_strategy)
    def test_inverse(self, g):
        assert g * g.inverse() == WREATH_IDENTITY

    def test_section_stabilizer_is_s5_factor(self):
        # elements fixing every (i, 0) are exactly sign = 0
        section = [DeltaPoint(i, 0) for i in range(5)]
        gens = [
            WreathElement(0b00001, (0, 1, 2, 3, 4)),
            WreathElement(0, (1, 0, 2, 3, 4)),
            WreathElement(0, (1, 2, 3, 4, 0)),
        ]
        stab = [
            g
            for g in wreath_closure(gens)
            if all(act_on_delta(g, x).sheet == 0 for x in section)
        ]
        assert len(stab) == 120
        assert all(g.sign == 0 for g in stab)

    @settings(max_examples=60, deadline=None)
    @given(wreath_strategy, wreath_strategy)
    def test_fixed_point_count_class_function(self, g, h):
        conj = h * g * h.inverse()
        assert len(g.fixed_points()) == len(conj.fixed_points())

    def test_fixed_point_count_class_function_exhaustive(self):
        # invariance under conjugation by each generator, on every element,
        # is invariance under the whole group: is_admissible reads a class
        # function
        gens = [
            WreathElement(0b00001, (0, 1, 2, 3, 4)),
            WreathElement(0, (1, 0, 2, 3, 4)),
            WreathElement(0, (1, 2, 3, 4, 0)),
        ]
        full = wreath_closure(gens)
        assert len(full) == 3840
        for g in full:
            count = len(g.fixed_points())
            for h in gens:
                assert len((h * g * h.inverse()).fixed_points()) == count


class TestSubgroups:
    def test_orders(self):
        expected = {"C5": 5, "D10": 10, "F20": 20, "A5": 60, "S5": 120}
        for label, gens in TRANSITIVE_SUBGROUPS.items():
            assert len(perm_closure(gens)) == expected[label]


class TestH1:
    @pytest.mark.parametrize("label", ["C5", "D10", "F20", "A5", "S5"])
    def test_vanishing(self, label):
        assert h1_dim(TRANSITIVE_SUBGROUPS[label]) == 0

    def test_non_transitive_rejected(self):
        with pytest.raises(NotTransitiveError) as e:
            h1_dim([(1, 0, 2, 3, 4)])
        assert len(e.value.orbit_partition) == 4


class TestEndRing:
    @pytest.mark.parametrize(
        "label,r", [("C5", 4), ("D10", 2), ("F20", 1), ("A5", 1), ("S5", 1)]
    )
    def test_r_values(self, label, r):
        assert end_ring_r(TRANSITIVE_SUBGROUPS[label]) == r


class TestAdmissible:
    def test_identity(self):
        assert is_admissible([WREATH_IDENTITY]) == [True]

    def test_sign_11110(self):
        g = WreathElement(0b01111, (0, 1, 2, 3, 4))
        # fixes (4, +-): enumerate to confirm
        assert is_admissible([g]) == [True]
        assert DeltaPoint(4, 0) in g.fixed_points()

    def test_pure_5_cycle(self):
        g = WreathElement(0, (1, 2, 3, 4, 0))
        assert is_admissible([g]) == [False]

    def test_5_cycle_any_sign(self):
        for sign in range(32):
            g = WreathElement(sign, (1, 2, 3, 4, 0))
            assert is_admissible([g]) == [False]
