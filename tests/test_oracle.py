from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constructible_tuples
from ellchain import (
    Params,
    VanishingTable,
    construct,
    cross_validate,
    exists_feasible_pairing,
    min_sum_pairing_exists,
    oracle,
)
from ellchain.cli import SweepConfig
from ellchain.oracle import CrossCheck, CrossValidation
from ellchain.verify import (
    check_component_feasibility,
    component_preconditions,
    exceptional_capacity,
    node_verdicts,
)


def _runs(counts):
    """Ascending (order, multiplicity) runs of an order -> count map."""
    return tuple(sorted(counts.items()))


def _shift(runs, u):
    """Runs with every order moved by u."""
    return tuple((o + u, m) for o, m in runs)


def _capped(left, right, threshold, budget=None):
    return exists_feasible_pairing(_runs(left), _runs(right), threshold, budget or {})


SEARCHES = [
    pytest.param(lambda left, right: exists_feasible_pairing(left, right, 3, {}), id="capped"),
    pytest.param(lambda left, right: min_sum_pairing_exists(left, right, 3), id="min_sum"),
]


class TestGuard:
    # Both modes share one guard, and its messages are the notices
    # cross_validate records for a skipped instance.
    @pytest.mark.parametrize("search", SEARCHES)
    def test_unequal_totals_rejected(self, search):
        with pytest.raises(ValueError, match=r"^sides total 2 and 1$"):
            search(((0, 2),), ((0, 1),))

    def test_unsorted_runs_rejected(self):
        # Sides are table sides, whose orders ascend: the same multisets in
        # ascending order are feasible, but unsorted they are rejected.
        assert exists_feasible_pairing(((0, 1), (1, 1)), ((0, 1), (9, 1)), 9, {0: 1})
        with pytest.raises(ValueError, match=r"^right: order 0 after 9, orders must be strictly ascending$"):
            exists_feasible_pairing(((0, 1), (1, 1)), ((9, 1), (0, 1)), 9, {0: 1})

    @pytest.mark.parametrize("search", SEARCHES)
    def test_runs_must_ascend_with_positive_multiplicities(self, search):
        with pytest.raises(ValueError, match=r"^left: order 1 after 1, orders must be strictly ascending$"):
            search(((1, 1), (1, 1)), ((0, 2),))
        with pytest.raises(ValueError, match=r"^right: order 2 has multiplicity 0, multiplicities must be positive$"):
            search(((0, 1),), ((1, 1), (2, 0)))
        with pytest.raises(ValueError, match=r"^left: empty table side$"):
            search((), ())
        # Totals are compared first, so an unequal instance keeps its notice.
        with pytest.raises(ValueError, match=r"^sides total 3 and 2$"):
            search(((2, 1), (1, 2)), ((0, 2),))


class TestCappedMode:
    def test_simple_feasible(self):
        assert _capped({0: 1, 1: 1}, {1: 1, 2: 1}, threshold=3)

    def test_simple_infeasible(self):
        # every bijection pairs the 2 with something summing past the cap
        assert not _capped({2: 1, 0: 1}, {2: 1, 1: 1}, threshold=3)

    def test_single_exceptional_pair(self):
        for d, a in [(4, 1), (5, 0), (6, 6)]:
            assert _capped({a: 1}, {d - a: 1}, threshold=d, budget={a: 1})
            assert not _capped({a: 1}, {d - a: 1}, threshold=d)

    def test_budget_exhaustion(self):
        assert not _capped({1: 2}, {3: 2}, threshold=4, budget={1: 1})
        assert _capped({1: 2}, {3: 2}, threshold=4, budget={1: 2})

    def test_feasible_only_by_rerouting_a_unit(self):
        # The first-fit fill sends both 0s to the 1s, leaving the 1 only the
        # 2 (sum 3, no budget). The one pairing within the cap sends a 0 to
        # the 2, so the flow must cancel one unit on the edge 0 -> 1 and
        # send the 1 there instead.
        assert _capped({0: 2, 1: 1}, {1: 2, 2: 1}, threshold=3)

    def test_multiplicity_1e9(self):
        # No size bound: the flow's work depends on the runs, not on the
        # units they hold.
        m = 10**9
        assert _capped({0: m, 1: m}, {1: m, 2: m}, threshold=3)
        assert not _capped({0: m - 1, 1: m + 1}, {1: m, 2: m}, threshold=3)
        assert _capped({0: m - 1, 1: m + 1}, {1: m, 2: m}, threshold=3, budget={1: 1})
        assert not _capped({0: m - 2, 1: m + 2}, {1: m, 2: m}, threshold=3, budget={1: 1})

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
        mirrored = {threshold - a: m for a, m in budget.items()}
        assert _capped(left, right, threshold, budget) == _capped(right, left, threshold, mirrored)


class TestMinSumMode:
    def test_matches_greedy_on_toy_instances(self):
        assert min_sum_pairing_exists(((1, 1), (2, 1)), ((0, 1), (1, 1)), 2)
        assert not min_sum_pairing_exists(((1, 1), (2, 1)), ((0, 1), (1, 1)), 3)
        assert min_sum_pairing_exists(((3, 4),), ((0, 4),), 3)

    def test_multiplicity_1e9(self):
        m = 10**9
        assert min_sum_pairing_exists(((1, m), (2, m)), ((1, m), (2, m)), 3)
        assert not min_sum_pairing_exists(((1, m + 1), (2, m - 1)), ((1, m), (2, m)), 3)
        assert min_sum_pairing_exists(((0, m), (5, m)), ((0, m), (5, m)), 5)
        assert not min_sum_pairing_exists(((0, m), (5, m)), ((0, m), (5, m)), 6)

    @given(
        orders=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_monotone_in_threshold(self, orders, data):
        left = _runs({o: orders.count(o) for o in set(orders)})
        right_list = data.draw(st.lists(st.integers(0, 6), min_size=len(orders), max_size=len(orders)))
        right = _runs({o: right_list.count(o) for o in set(right_list)})
        b = data.draw(st.integers(0, 12))
        if min_sum_pairing_exists(left, right, b + 1):
            assert min_sum_pairing_exists(left, right, b)


class TestExhaustive:
    # Both modes against an enumeration of every pairing of the expanded
    # units, on every ordered pair of equal-size multisets with total <= 5
    # over orders 0..4. Thresholds sit around the anti-sorted pairing's
    # extreme sum, which is optimal, so each pair is met feasible and
    # infeasible. The capped budgets run 0..2 per order (up to the order's
    # multiplicity) on every left order that can meet the cap exactly, so
    # some budgets run out. Both modes share one augmenting routine, and
    # many capped instances are feasible only once the flow cancels a unit
    # that its first-fit fill placed. Each verdict is also asked of the
    # instance translated by u on the left and v on the right, its threshold
    # moved by u + v and its budget's keys by u: the invariance
    # cross_validate's per-class memo relies on.
    SHIFTS = ((0, 3), (2, -1), (5, 5))

    @staticmethod
    def _instances(max_size=5):
        for size in range(1, max_size + 1):
            msets = list(itertools.combinations_with_replacement(range(5), size))
            for left in msets:
                for right in msets:
                    sums = [[x + y for x, y in zip(left, p)] for p in set(itertools.permutations(right))]
                    anti = [x + y for x, y in zip(left, reversed(right))]
                    yield left, right, sums, anti

    def test_min_sum_matches_brute_force(self):
        infeasible = 0
        for left, right, sums, anti in self._instances():
            lruns, rruns, best = _runs(Counter(left)), _runs(Counter(right)), max(map(min, sums))
            for b in (min(anti) - 1, min(anti), min(anti) + 1):
                found = min_sum_pairing_exists(lruns, rruns, b)
                assert found == (best >= b), (left, right, b)
                for u, v in self.SHIFTS:
                    shifted = min_sum_pairing_exists(_shift(lruns, u), _shift(rruns, v), b + u + v)
                    assert shifted == found, (left, right, b, u, v)
                infeasible += not found
        assert infeasible == 22_251  # one per ordered pair: the anti-sorted pairing is optimal

    def test_capped_matches_brute_force(self):
        infeasible = exhausted = 0
        for left, right, sums, anti in self._instances():
            lruns, rruns = _runs(Counter(left)), _runs(Counter(right))
            for t in (max(anti) - 1, max(anti)):
                # Per pairing within the cap, the units it charges to each left order.
                charges = [Counter(x for x, s in zip(left, ss) if s == t) for ss in sums if max(ss) <= t]
                chargeable = [(a, m) for a, m in lruns if t - a in right]
                for caps in itertools.product(*(range(min(m, 2) + 1) for _, m in chargeable)):
                    budget = {a: c for (a, _), c in zip(chargeable, caps)}
                    found = exists_feasible_pairing(lruns, rruns, t, budget)
                    expected = any(all(n <= budget.get(a, 0) for a, n in c.items()) for c in charges)
                    assert found == expected, (left, right, t, budget)
                    for u, v in self.SHIFTS:
                        moved = {a + u: c for a, c in budget.items()}
                        shifted = exists_feasible_pairing(_shift(lruns, u), _shift(rruns, v), t + u + v, moved)
                        assert shifted == found, (left, right, t, budget, u, v)
                    infeasible += not found
                    exhausted += not found and bool(charges)
            assert exists_feasible_pairing(lruns, rruns, max(anti) + 1, {})
        assert infeasible > 100_000 and exhausted > 50_000


def _unequal_sides():
    """7 3 16 5 with component 2's P side cut to total 4 against 5."""
    s = construct(Params(7, 3, 16, 5))
    tables = list(s.tables)
    tables[1] = VanishingTable(((0, 4),), s.tables[1].at_q)
    return dataclasses.replace(s, tables=tuple(tables))


def _fuzzed_corruptions():
    """300 seeded copies of 7 3 16 5, each with one unit of one table side
    moved to another order in [0, d1], as (table index, side, skeleton)."""
    rng = random.Random(170381)
    base = construct(Params(7, 3, 16, 5))
    d1 = base.params.d1
    for _ in range(300):
        tables = list(base.tables)
        idx = rng.randrange(len(tables))
        t = tables[idx]
        side_name = rng.choice(["p", "q"])
        side = dict(t.at_p if side_name == "p" else t.at_q)
        src = rng.choice(sorted(side))
        dst = rng.randrange(0, d1 + 1)
        side[src] -= 1
        side[dst] = side.get(dst, 0) + 1
        runs = tuple(sorted((o, m) for o, m in side.items() if m))
        if side_name == "p":
            tables[idx] = VanishingTable(runs, t.at_q)
        else:
            tables[idx] = VanishingTable(t.at_p, runs)
        yield idx, side_name, dataclasses.replace(base, tables=tuple(tables))


def _translates_apart():
    """7 3 16 5 (d1 = 5) with components 6 and 7 made translates of
    component 5, whose P side ((2,2),(4,3)) against Q ((1,3),(2,2)) needs its
    three pairs summing to 5 at P-order 4 and has capacity 3 there.
    Component 6 takes component 7's table, ((3,2),(5,3)) against
    ((0,3),(1,2)): the same class shifted by (1, -1), but its bundle has no
    capacity at order 5. Component 7 keeps its bundle (capacity 3 at 5) and
    moves its Q side up by 1, so every pair sum grows by 1. Both are
    infeasible while component 5 is feasible, so a class key without the
    budget or without the threshold's shift reads component 5's verdict."""
    s = construct(Params(7, 3, 16, 5))
    tables = list(s.tables)
    assert tables[4] == VanishingTable(((2, 2), (4, 3)), ((1, 3), (2, 2)))
    assert tables[6] == VanishingTable(((3, 2), (5, 3)), ((0, 3), (1, 2)))
    tables[5] = tables[6]
    tables[6] = VanishingTable(tables[6].at_p, _shift(tables[6].at_q, 1))
    return dataclasses.replace(s, tables=tuple(tables))


def _precondition_apart(wrong):
    """5 2 12 3 (large_sections, d1 = 6), whose components 2, 3 and 4 are
    one translation class: each pairs its sides with sums below d1, and
    each bundle is the shared generic-line bundle, so every budget is 0.
    Component `wrong` gets that bundle with degree 11 instead of r*d1 = 12:
    its budget is still all zeros, so the class key is unchanged, but it
    fails `bundle_shape`. A memo holding the preconditions would give it
    the verdict of the class's other instances."""
    s = construct(Params(5, 2, 12, 3))
    bundles = list(s.bundles)
    assert len({bundles[i] for i in (1, 2, 3)}) == 1 and bundles[1].min_twist is None
    bundles[wrong - 1] = dataclasses.replace(bundles[wrong - 1], degree=11)
    return dataclasses.replace(s, bundles=tuple(bundles))


def _cross_validate_per_instance(s):
    """cross_validate as one flow per instance, with no memo: the reference
    the per-class memo must reproduce exactly."""
    checks, skipped = [], []
    d1, d2, r = s.params.d1, s.params.d2, s.params.r
    for verdict, q_table, p_table in zip(node_verdicts(s.tables, s.b), s.tables, s.tables[1:]):
        try:
            oracle = min_sum_pairing_exists(q_table.at_q, p_table.at_p, s.b)
        except ValueError as exc:
            skipped.append(f"node {verdict.node}: {exc}")
            continue
        checks.append(CrossCheck(kind="node", index=verdict.node, greedy=verdict.satisfiable, oracle=oracle))
    for i, (bundle, table) in enumerate(zip(s.bundles, s.tables), 1):
        budget = {o: exceptional_capacity(bundle, o, d2=d2) for o, _ in table.at_p}
        try:
            found = exists_feasible_pairing(table.at_p, table.at_q, d1, budget)
        except ValueError as exc:
            skipped.append(f"component {i}: {exc}")
            continue
        greedy_ok = check_component_feasibility(i, bundle, table, d1=d1, d2=d2, r=r).ok
        oracle = found and not component_preconditions(i, bundle, table, d1=d1, r=r)
        checks.append(CrossCheck(kind="component", index=i, greedy=greedy_ok, oracle=oracle))
    return CrossValidation(checks=tuple(checks), skipped=tuple(skipped))


class TestCrossValidation:
    def test_worked_instances_agree(self):
        for tup in [(7, 3, 16, 5), (7, 3, 14, 4), (2, 2, 6, 3), (4, 2, 8, 4)]:
            cv = cross_validate(construct(Params(*tup)))
            assert cv.ok and not cv.skipped
            kinds = {c.kind for c in cv.checks}
            assert kinds == {"node", "component"}

    def test_unequal_sides_skipped_with_notice(self):
        s = _unequal_sides()
        cv = cross_validate(s)
        assert cv.skipped == ("node 1: sides total 5 and 4", "component 2: sides total 4 and 5")
        g = s.params.g
        assert cv.ok and len(cv.checks) == (g - 2) + (g - 1)  # every other node and component

    def test_every_instance_checked_at_k_9(self):
        s = construct(Params(3, 4, 40, 9))  # node 1 pairs 9 units on each side
        cv = cross_validate(s)
        assert cv.ok and not cv.skipped and len(cv.checks) == 2 + 3

    def test_fuzzed_corruptions_still_agree(self):
        for idx, side_name, corrupted in _fuzzed_corruptions():
            cv = cross_validate(corrupted)
            assert cv.ok, f"greedy/oracle disagreement after corrupting C{idx + 1} at {side_name}"

    def test_p_order_budget_matches_full_budget(self):
        # cross_validate budgets only the table's P-orders, the orders the
        # flow charges; the full budget, every order 0..d1 at d2 for the
        # special first bundle or the summed summand twists, must give the
        # same verdict on every component.
        searched = 0
        for p in constructible_tuples(SweepConfig(g=(2, 7), r=(1, 3))):
            s = construct(p)
            d1, d2 = p.d1, p.d2
            for bundle, table in zip(s.bundles, s.tables):
                if bundle.kind == "first_special":
                    full = {a: d2 for a in range(d1 + 1)}
                else:
                    full = {}
                    for mult, twist in bundle.summands:
                        if twist is not None:
                            full[twist] = full.get(twist, 0) + mult
                budget = {o: exceptional_capacity(bundle, o, d2=d2) for o, _ in table.at_p}
                verdict = exists_feasible_pairing(table.at_p, table.at_q, d1, budget)
                assert verdict == exists_feasible_pairing(table.at_p, table.at_q, d1, full), p
                searched += 1
        assert searched == 15_906  # every component of the lattice

    @pytest.mark.parametrize("wrong", [2, 3])
    def test_preconditions_checked_per_instance(self, wrong):
        # The class table starts empty (conftest's fixture), so the wrong
        # bundle sits on the class's first instance (2), whose flow and
        # greedy verdict are stored, or on a later one (3).
        s = _precondition_apart(wrong)
        cv = cross_validate(s)
        reference = _cross_validate_per_instance(s)
        assert (cv.checks, cv.skipped) == (reference.checks, reference.skipped)
        comps = {c.index: c for c in cv.checks if c.kind == "component"}
        right = 5 - wrong  # the other of components 2 and 3
        assert (comps[right].greedy, comps[right].oracle) == (True, True)
        assert (comps[wrong].greedy, comps[wrong].oracle) == (False, False)
        assert [v["rule"] for v in component_preconditions(wrong, s.bundles[wrong - 1], s.tables[wrong - 1],
                                                             d1=6, r=2)] == ["bundle_shape"]

    def test_memo_changes_no_cross_validation(self):
        apart = _translates_apart()
        reference = _cross_validate_per_instance(apart)
        components = {c.index: c.oracle for c in reference.checks if c.kind == "component"}
        assert (components[5], components[6], components[7]) == (True, False, False)
        skeletons = [apart, _unequal_sides()]
        skeletons += [construct(p) for p in constructible_tuples(SweepConfig(g=(2, 8), r=(1, 3)))]
        skeletons += [corrupted for _, _, corrupted in _fuzzed_corruptions()]
        for s in skeletons:
            cv, reference = cross_validate(s), _cross_validate_per_instance(s)
            assert (cv.checks, cv.skipped) == (reference.checks, reference.skipped), s.params


class TestClassTable:
    """cross_validate keeps its translation-class verdicts for the process,
    so no verdict may depend on what the table already holds."""

    @pytest.fixture(scope="class")
    def cases(self):
        """test_memo_changes_no_cross_validation's skeletons, each with its
        one-flow-per-instance reference."""
        skeletons = [_translates_apart(), _unequal_sides()]
        skeletons += [construct(p) for p in constructible_tuples(SweepConfig(g=(2, 8), r=(1, 3)))]
        skeletons += [corrupted for _, _, corrupted in _fuzzed_corruptions()]
        return [(s, _cross_validate_per_instance(s)) for s in skeletons]

    @staticmethod
    def _agree(cases, after_each=lambda: None):
        for s, reference in cases:
            cv = cross_validate(s)
            assert (cv.checks, cv.skipped) == (reference.checks, reference.skipped), s.params
            after_each()

    def test_cold_then_warm_table(self, cases):
        assert not oracle._VERDICTS and not oracle._SIDES
        self._agree(cases)
        stored = dict(oracle._VERDICTS)
        self._agree(cases)  # every class is now a hit
        assert oracle._VERDICTS == stored

    def test_reverse_order_after_a_clear(self, cases):
        self._agree(cases)
        oracle._VERDICTS.clear(), oracle._SIDES.clear()
        self._agree(cases[::-1])

    def test_bounded_table_clears_both_dicts(self, cases, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_CLASSES", 3)

        def bounded():
            assert len(oracle._VERDICTS) <= 3
            # _SIDES holds exactly the stored keys' sides, each key sharing its copy.
            sides = {id(side): side for key in oracle._VERDICTS for side in key[:2]}
            assert len(oracle._SIDES) == len(sides)
            assert all(oracle._SIDES[side] is side for side in sides.values())

        self._agree(cases, bounded)

    def test_threads_share_the_table(self, cases, monkeypatch):
        # More threads than cores, each in its own order, a short switch
        # interval and a table that clears every few classes: a lost or
        # crossed update would hand some thread another class's verdicts.
        monkeypatch.setattr(oracle, "_MAX_CLASSES", 5)
        subset, wrong = cases[::7], []

        def work(offset):
            for s, reference in subset[offset:] + subset[:offset]:
                cv = cross_validate(s)
                if (cv.checks, cv.skipped) != (reference.checks, reference.skipped):
                    wrong.append(s.params)

        threads = [threading.Thread(target=work, args=(13 * n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong

    def test_skipped_instances_store_nothing(self):
        s = _unequal_sides()
        first = cross_validate(s)
        stored = dict(oracle._VERDICTS)
        second = cross_validate(s)
        assert second.skipped == first.skipped == ("node 1: sides total 5 and 4", "component 2: sides total 4 and 5")
        assert second.checks == first.checks and oracle._VERDICTS == stored
        # Only instances whose sides total the same reach the table.
        assert all(sum(m for _, m in key[0]) == sum(m for _, m in key[1]) for key in stored)
