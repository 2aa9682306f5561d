from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import (
    ComponentBundle,
    Params,
    Summand,
    VanishingTable,
    check_component_feasibility,
    check_node_pairing,
    construct,
    merge_runs,
    slope_ok,
    verify,
)
from ellchain.skeleton import expand_ascending, expand_descending


def _mixed(summands, component=1, degree=0):
    return ComponentBundle(component=component, kind="mixed", degree=degree, summands=summands)


def _table(at_p, at_q, component=1):
    return VanishingTable(component, tuple(sorted(at_p.items())), tuple(sorted(at_q.items())))


def _node_min_sum(at_q, at_p_next):
    """Minimum pair sum of the greedy pairing (Q descending vs P ascending)."""
    return min(p + q for p, q, _ in merge_runs(at_p_next, at_q))


class TestNodePairing:
    def test_worked_instance_node_one_exact(self):
        s = construct(Params(7, 3, 16, 5))
        verdicts = check_node_pairing(s)
        first = verdicts[0]
        assert first.satisfiable and first.exact and first.min_sum == 5
        assert sorted(first.pairs) == [(3, 2), (4, 1), (4, 1), (4, 1), (5, 0)]

    def test_forced_failure(self):
        # best bijection of {2,1} against {0,1} has a pair summing to 2 < 3
        assert _node_min_sum(((1, 1), (2, 1)), ((0, 1), (1, 1))) == 2

    def test_saturated_orders_pass(self):
        for d1 in (3, 5):
            k = 4
            assert _node_min_sum(((d1, k),), ((0, k),)) == d1

    def test_corrupted_order_fails_at_node_three(self):
        s = construct(Params(7, 3, 16, 5))
        at_q = s.table(3).q_map()  # {3: 2, 2: 3}
        at_q[3] -= 1
        at_q[2] += 1
        tables = list(s.tables)
        tables[2] = VanishingTable(3, s.table(3).at_p, tuple(sorted(at_q.items())))
        corrupted = dataclasses.replace(s, tables=tuple(tables))
        verdicts = check_node_pairing(corrupted)
        assert not verdicts[2].satisfiable and verdicts[2].node == 3
        assert verdicts[2].to_json_dict()["oracle_used"] is False  # the run merge alone decides
        assert all(v.satisfiable for i, v in enumerate(verdicts) if i != 2)


class TestComponentFeasibility:
    def test_twisted_pair_within_budget(self):
        # pair summing to d1 = 3 with P-order 2 is covered by the a = 2 twist
        bundle = _mixed((Summand(mult=1, twist=2), Summand(mult=1)))
        table = _table({0: 1, 2: 1}, {1: 1, 2: 1})
        verdict = check_component_feasibility(bundle, table, d1=3, d2=0, r=2)
        assert verdict.ok
        assert verdict.exceptional == ((2, 1, 1),)

    def test_generic_lines_reject_saturated_pair(self):
        bundle = _mixed((Summand(mult=2),))
        table = _table({0: 1, 1: 1}, {2: 1, 3: 1})
        verdict = check_component_feasibility(bundle, table, d1=3, d2=0, r=2)
        assert not verdict.ok
        assert any(v["rule"] == "exceptional_capacity" for v in verdict.violations)

    def test_first_special_budget(self):
        s = construct(Params(7, 3, 16, 5))
        verdict = check_component_feasibility(s.bundle(1), s.table(1), d1=5, d2=1, r=3)
        assert verdict.ok
        # groups of degree-5 pairs, one per P-order, each within the d2 budget
        assert verdict.exceptional == ((0, 1, 1), (1, 1, 1))

    def test_pair_sum_above_degree_rejected(self):
        bundle = _mixed((Summand(mult=2),))
        table = _table({3: 2}, {3: 2})
        verdict = check_component_feasibility(bundle, table, d1=4, d2=0, r=2)
        assert not verdict.ok
        assert any(v["rule"] == "pair_sum" for v in verdict.violations)

    def test_multiplicity_above_rank_rejected(self):
        bundle = _mixed((Summand(mult=2),))
        table = _table({0: 3}, {1: 3})
        verdict = check_component_feasibility(bundle, table, d1=4, d2=0, r=2)
        assert any(v["rule"] == "order_multiplicity" for v in verdict.violations)


class TestSlope:
    @pytest.mark.parametrize(
        "kp,rp,k,r,expected",
        [(2, 1, 5, 3, False), (1, 1, 5, 3, True), (5, 3, 5, 3, True)],
    )
    def test_examples(self, kp, rp, k, r, expected):
        assert slope_ok(kp, rp, k, r) is expected

    @given(
        kp=st.integers(0, 100), rp=st.integers(1, 50),
        k=st.integers(0, 100), r=st.integers(1, 50),
        a=st.integers(1, 9), b=st.integers(1, 9),
    )
    def test_scale_invariance(self, kp, rp, k, r, a, b):
        assert slope_ok(a * kp, a * rp, b * k, b * r) == slope_ok(kp, rp, k, r)

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            slope_ok(1, 0, 5, 3)

    def test_subbundle_section_bound_chain(self):
        # k' = r'*k1 + d2' vs k = r*k1 + d2: the slope comparison reduces to
        # d2'/r' <= d2/r exactly.
        for r in range(1, 21):
            for rp in range(1, 21):
                for k1 in range(0, 4):
                    for d2 in range(0, r + 1):
                        for d2p in range(0, rp + 1):
                            expected = d2p * r <= d2 * rp
                            assert slope_ok(rp * k1 + d2p, rp, r * k1 + d2, r) is expected


class TestFullVerify:
    def test_constructor_output_passes(self):
        report = verify(construct(Params(7, 3, 16, 5)))
        assert report.overall and report.all_nodes_exact
        assert report.entry("genericity").status == "assumed"

    def test_wrong_twist_breaks_degree_balance(self):
        s = construct(Params(7, 3, 16, 5))
        broken = dataclasses.replace(s, b=s.b + 1)
        report = verify(broken)
        assert report.entry("degree_balance").status == "fail"
        assert report.entry("degree_balance").witness["residual"] == -s.params.r * (s.params.g - 1)
        assert not report.overall

    def test_boundary_violation_detected(self):
        s = construct(Params(7, 3, 16, 5))
        tables = list(s.tables)
        tables[0] = VanishingTable(1, ((0, 3), (2, 2)), s.table(1).at_q)
        broken = dataclasses.replace(s, tables=tuple(tables))
        report = verify(broken)
        entry = report.entry("boundary_minimality")
        assert entry.status == "fail"
        assert any(o["order"] == 2 for o in entry.witness["offenders"])

    def test_report_json_shape(self):
        doc = verify(construct(Params(4, 2, 8, 4))).to_json_dict()
        assert doc["overall"] == "pass"
        assert set(doc["checks"]) == {
            "degree_balance", "node_pairing", "component_feasibility",
            "boundary_minimality", "multiplicity_bounds", "genericity",
        }
        for entry in doc["checks"].values():
            assert entry["status"] in ("pass", "fail", "assumed")


def _runs(orders):
    """(order, multiplicity) runs of a list of orders."""
    return tuple((o, orders.count(o)) for o in sorted(set(orders)))


# Random run tables; the two sides of a pairing may total differently.
run_tables = st.lists(st.integers(0, 9), min_size=1, max_size=12).map(_runs)


def _component_reference(bundle, table, d1, d2, r):
    """The component rules applied pair by pair to the expanded anti-sorted
    pairing."""
    violations = [
        {"rule": "order_multiplicity", "point": point, "order": order, "mult": mult, "max": r}
        for point, side in (("P", table.at_p), ("Q", table.at_q))
        for order, mult in side
        if mult > r
    ]
    top_groups = {}
    for x, y in zip(expand_ascending(table.at_p), expand_descending(table.at_q)):
        if x + y > d1:
            violations.append({"rule": "pair_sum", "pair": [x, y], "sum": x + y, "max": d1})
        elif x + y == d1:
            top_groups[x] = top_groups.get(x, 0) + 1
    exceptional = []
    for a in sorted(top_groups):
        capacity = d2 if bundle.kind == "first_special" else bundle.twist_multiplicity(a)
        exceptional.append([a, top_groups[a], capacity])
        if top_groups[a] > capacity:
            violations.append(
                {"rule": "exceptional_capacity", "order": a, "pairs": top_groups[a], "capacity": capacity}
            )
    return {"component": table.component, "ok": not violations, "violations": violations,
            "exceptional": exceptional}


class TestRunMerge:
    @given(p=run_tables, q=run_tables)
    @settings(max_examples=300)
    def test_stretches_expand_to_the_zipped_pairing(self, p, q):
        stretches = merge_runs(p, q)
        assert all(count > 0 for _, _, count in stretches)
        expanded = [(y, x) for x, y, count in stretches for _ in range(count)]
        assert expanded == list(zip(expand_descending(q), expand_ascending(p)))

    @given(at_q=run_tables, at_p=run_tables, b=st.integers(0, 18))
    @settings(max_examples=200)
    def test_node_verdict_matches_expanded_reference(self, at_q, at_p, b):
        s = construct(Params(2, 2, 6, 3))
        tables = (
            VanishingTable(1, s.table(1).at_p, at_q),
            VanishingTable(2, at_p, s.table(2).at_q),
        )
        verdict = check_node_pairing(dataclasses.replace(s, tables=tables, b=b))[0]
        pairs = list(zip(expand_descending(at_q), expand_ascending(at_p)))
        sums = [q + p for q, p in pairs]
        assert list(verdict.pairs) == pairs
        assert verdict.min_sum == min(sums)
        assert verdict.exact == all(v == b for v in sums)
        assert verdict.to_json_dict()["sums"] == sums

    @given(
        at_p=run_tables,
        at_q=run_tables,
        d1=st.integers(1, 12),
        d2=st.integers(0, 3),
        r=st.integers(1, 4),
        twists=st.lists(st.one_of(st.none(), st.integers(0, 12)), min_size=1, max_size=4),
        first_special=st.booleans(),
    )
    @settings(max_examples=300)
    def test_component_verdict_matches_expanded_reference(self, at_p, at_q, d1, d2, r, twists, first_special):
        table = VanishingTable(1, at_p, at_q)
        if first_special:
            bundle = ComponentBundle(component=1, kind="first_special", degree=0, blocks=1, block_rank=r)
        else:
            bundle = _mixed(tuple(Summand(mult=1, twist=t) for t in twists))
        verdict = check_component_feasibility(bundle, table, d1=d1, d2=d2, r=r)
        assert verdict.to_json_dict() == _component_reference(bundle, table, d1, d2, r)
