from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import (
    PairingInstance,
    Params,
    VanishingTable,
    construct,
    cross_validate,
    exists_feasible_pairing,
    min_sum_pairing_exists,
)
from ellchain.errors import InstanceTooLarge


def _inst(left, right, threshold, budget=None):
    return PairingInstance.from_maps(left, right, threshold, budget)


class TestCappedMode:
    def test_simple_feasible(self):
        ok, witness = exists_feasible_pairing(_inst({0: 1, 1: 1}, {1: 1, 2: 1}, threshold=3))
        assert ok
        assert sorted(witness) == [(0, 2), (1, 1)]
        assert all(x + y <= 2 for x, y in witness)

    def test_simple_infeasible(self):
        # every bijection pairs the 2 with something summing past the cap
        ok, witness = exists_feasible_pairing(_inst({2: 1, 0: 1}, {2: 1, 1: 1}, threshold=3))
        assert not ok and witness is None

    def test_single_exceptional_pair(self):
        for d, a in [(4, 1), (5, 0), (6, 6)]:
            ok, witness = exists_feasible_pairing(_inst({a: 1}, {d - a: 1}, threshold=d, budget={a: 1}))
            assert ok and witness == ((a, d - a),)

    def test_budget_exhaustion(self):
        inst = _inst({1: 2}, {3: 2}, threshold=4, budget={1: 1})
        ok, _ = exists_feasible_pairing(inst)
        assert not ok
        ok, _ = exists_feasible_pairing(_inst({1: 2}, {3: 2}, threshold=4, budget={1: 2}))
        assert ok

    def test_unequal_totals_rejected(self):
        with pytest.raises(ValueError):
            _inst({0: 2}, {0: 1}, threshold=3)

    def test_instance_too_large(self):
        with pytest.raises(InstanceTooLarge):
            exists_feasible_pairing(_inst({0: 9}, {0: 9}, threshold=3), bound=8)

    @given(
        left=st.dictionaries(st.integers(0, 5), st.integers(1, 2), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_swap_reflect_symmetry(self, left, data):
        # swapping sides while reflecting the budget keys a -> threshold - a
        # preserves feasibility
        total = sum(left.values())
        right = data.draw(
            st.lists(st.integers(0, 5), min_size=total, max_size=total).map(
                lambda xs: {o: xs.count(o) for o in set(xs)}
            )
        )
        threshold = data.draw(st.integers(2, 8))
        budget = data.draw(st.dictionaries(st.integers(0, 5), st.integers(0, 2), max_size=3))
        fwd, _ = exists_feasible_pairing(_inst(left, right, threshold, budget))
        mirrored = {threshold - a: m for a, m in budget.items()}
        bwd, _ = exists_feasible_pairing(_inst(right, left, threshold, mirrored))
        assert fwd == bwd


class TestMinSumMode:
    def test_matches_greedy_on_toy_instances(self):
        assert min_sum_pairing_exists({2: 1, 1: 1}, {0: 1, 1: 1}, 2)
        assert not min_sum_pairing_exists({2: 1, 1: 1}, {0: 1, 1: 1}, 3)
        assert min_sum_pairing_exists({3: 4}, {0: 4}, 3)

    @given(
        orders=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_monotone_in_threshold(self, orders, data):
        left = {o: orders.count(o) for o in set(orders)}
        right_list = data.draw(st.lists(st.integers(0, 6), min_size=len(orders), max_size=len(orders)))
        right = {o: right_list.count(o) for o in set(right_list)}
        b = data.draw(st.integers(0, 12))
        if min_sum_pairing_exists(left, right, b + 1):
            assert min_sum_pairing_exists(left, right, b)


class TestCrossValidation:
    def test_worked_instances_agree(self):
        for tup in [(7, 3, 16, 5), (7, 3, 14, 4), (2, 2, 6, 3), (4, 2, 8, 4)]:
            cv = cross_validate(construct(Params(*tup)))
            assert cv.ok and not cv.skipped
            kinds = {c.kind for c in cv.checks}
            assert kinds == {"node", "component"}

    def test_unequal_sides_skipped_with_notice(self):
        import dataclasses

        s = construct(Params(7, 3, 16, 5))
        tables = list(s.tables)
        tables[1] = VanishingTable(2, ((0, 4),), s.table(2).at_q)
        cv = cross_validate(dataclasses.replace(s, tables=tuple(tables)))
        assert cv.skipped == ("node 1: sides total 5 and 4", "component 2: sides total 4 and 5")
        g = s.params.g
        assert cv.ok and len(cv.checks) == (g - 2) + (g - 1)  # every other node and component

    def test_oversized_instances_skipped_with_notice(self):
        s = construct(Params(3, 4, 40, 9))  # k = 9 exceeds the default bound
        cv = cross_validate(s)
        assert cv.checks == () and cv.skipped
        assert cv.ok

    def test_fuzzed_corruptions_still_agree(self):
        rng = random.Random(170381)
        import dataclasses

        base = construct(Params(7, 3, 16, 5))
        d1 = base.decomposition.d1
        for _ in range(300):
            tables = list(base.tables)
            idx = rng.randrange(len(tables))
            t = tables[idx]
            side_name = rng.choice(["p", "q"])
            side = t.p_map() if side_name == "p" else t.q_map()
            src = rng.choice(sorted(side))
            dst = rng.randrange(0, d1 + 1)
            side[src] -= 1
            side[dst] = side.get(dst, 0) + 1
            runs = tuple(sorted((o, m) for o, m in side.items() if m))
            if side_name == "p":
                tables[idx] = VanishingTable(t.component, runs, t.at_q)
            else:
                tables[idx] = VanishingTable(t.component, t.at_p, runs)
            corrupted = dataclasses.replace(base, tables=tuple(tables))
            cv = cross_validate(corrupted)
            assert cv.ok, f"greedy/oracle disagreement after corrupting C{t.component} at {side_name}"
