from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellchain import (
    ComponentBundle,
    Params,
    Summand,
    VanishingTable,
    check_component_feasibility,
    check_node_pairing,
    construct,
    induced_pairs,
    node_min_sum_greedy,
    slope_ok,
    verify,
)
from ellchain.errors import PairingNotGiven


def _mixed(summands, component=1, degree=0):
    return ComponentBundle(component=component, kind="mixed", degree=degree, summands=summands)


def _table(at_p, at_q, component=1):
    return VanishingTable.from_maps(component, at_p, at_q)


class TestNodePairing:
    def test_worked_instance_node_one_exact(self):
        s = construct(Params(7, 3, 16, 5))
        verdicts = check_node_pairing(s)
        first = verdicts[0]
        assert first.satisfiable and first.exact and first.min_sum == 5
        assert sorted(first.pairs) == [(3, 2), (4, 1), (4, 1), (4, 1), (5, 0)]

    def test_forced_failure(self):
        # best bijection of {2,1} against {0,1} has a pair summing to 2 < 3
        assert node_min_sum_greedy({2: 1, 1: 1}, {0: 1, 1: 1}) == 2

    def test_saturated_orders_pass(self):
        for d1 in (3, 5):
            k = 4
            assert node_min_sum_greedy({d1: k}, {0: k}) == d1

    def test_corrupted_order_fails_at_node_three(self):
        s = construct(Params(7, 3, 16, 5))
        at_q = s.table(3).q_map()  # {3: 2, 2: 3}
        at_q[3] -= 1
        at_q[2] += 1
        tables = list(s.tables)
        tables[2] = VanishingTable.from_maps(3, s.table(3).p_map(), at_q)
        corrupted = dataclasses.replace(s, tables=tuple(tables))
        verdicts = check_node_pairing(corrupted)
        assert not verdicts[2].satisfiable and verdicts[2].node == 3
        assert verdicts[2].oracle_used  # greedy failure was double-checked
        assert all(v.satisfiable for i, v in enumerate(verdicts) if i != 2)


class TestComponentFeasibility:
    def test_twisted_pair_within_budget(self):
        # pair summing to d1 = 3 with P-order 2 is covered by the a = 2 twist
        bundle = _mixed((Summand(mult=1, twist=2), Summand(mult=1)))
        table = _table({0: 1, 2: 1}, {1: 1, 2: 1})
        verdict = check_component_feasibility(
            bundle, table, induced_pairs(table), d1=3, d2=0, r=2
        )
        assert verdict.ok
        assert verdict.exceptional == ((2, 1, 1),)

    def test_generic_lines_reject_saturated_pair(self):
        bundle = _mixed((Summand(mult=2),))
        table = _table({0: 1, 1: 1}, {2: 1, 3: 1})
        verdict = check_component_feasibility(
            bundle, table, induced_pairs(table), d1=3, d2=0, r=2
        )
        assert not verdict.ok
        assert any(v["rule"] == "exceptional_capacity" for v in verdict.violations)

    def test_first_special_budget(self):
        s = construct(Params(7, 3, 16, 5))
        verdict = check_component_feasibility(
            s.bundle(1), s.table(1), induced_pairs(s.table(1)), d1=5, d2=1, r=3
        )
        assert verdict.ok
        # groups of degree-5 pairs, one per P-order, each within the d2 budget
        assert verdict.exceptional == ((0, 1, 1), (1, 1, 1))

    def test_pair_sum_above_degree_rejected(self):
        bundle = _mixed((Summand(mult=2),))
        table = _table({3: 2}, {3: 2})
        verdict = check_component_feasibility(bundle, table, induced_pairs(table), d1=4, d2=0, r=2)
        assert not verdict.ok
        assert any(v["rule"] == "pair_sum" for v in verdict.violations)

    def test_multiplicity_above_rank_rejected(self):
        bundle = _mixed((Summand(mult=2),))
        table = _table({0: 3}, {1: 3})
        verdict = check_component_feasibility(bundle, table, induced_pairs(table), d1=4, d2=0, r=2)
        assert any(v["rule"] == "order_multiplicity" for v in verdict.violations)

    def test_pairing_must_be_supplied(self):
        bundle = _mixed((Summand(mult=1),))
        table = _table({0: 1}, {0: 1})
        with pytest.raises(PairingNotGiven):
            check_component_feasibility(bundle, table, None, d1=3, d2=0, r=1)


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
        tables[0] = VanishingTable.from_maps(1, {0: 3, 2: 2}, s.table(1).q_map())
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
