from __future__ import annotations

import collections
import dataclasses
import importlib
import itertools
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellchain import (
    ComponentBundle,
    Params,
    VanishingTable,
    audit_equals_rho,
    check_component_feasibility,
    construct,
    merge_runs,
    verify,
)
from ellchain.skeleton import canonical_dumps, skeleton_from_json_dict, skeleton_to_json_dict
from ellchain.verify import (
    CheckEntry,
    VerificationReport,
    check_multiplicity_bounds,
    node_verdicts,
)

# The package's `verify` is the function, so the module is looked up by name.
verify_module = importlib.import_module("ellchain.verify")


def expand_ascending(runs):
    """Flatten (order, multiplicity) runs into an ascending list of orders,
    one entry per section: the per-section reference the run merge is
    tested against."""
    out = []
    for order, mult in sorted(runs):
        out.extend([order] * mult)
    return out


def expand_descending(runs):
    return expand_ascending(runs)[::-1]


def _mixed(summands, degree=0):
    return ComponentBundle(kind="mixed", degree=degree, summands=summands)


def _canonical_summands(twists):
    """One line per entry of `twists` (None a generic line), spelled as a
    bundle must be: repeated twists merged and ascending, generic lines last."""
    counts = collections.Counter(twists)
    lines = counts.pop(None, 0)
    twisted = tuple((m, t) for t, m in sorted(counts.items()))
    return twisted + (((lines, None),) if lines else ())


def _table(at_p, at_q):
    return VanishingTable(tuple(sorted(at_p.items())), tuple(sorted(at_q.items())))


def _node_min_sum(at_q, at_p_next):
    """Minimum pair sum of the greedy pairing (Q descending vs P ascending)."""
    return merge_runs(at_p_next, at_q, 0)[0]


class TestNodePairing:
    def test_worked_instance_node_one_exact(self):
        s = construct(Params(7, 3, 16, 5))
        verdicts = node_verdicts(s.tables, s.b)
        first = verdicts[0]
        assert first.satisfiable and first.exact and first.min_sum == 5
        assert sorted(first.to_json_dict()["pairs"]) == [[3, 2], [4, 1], [4, 1], [4, 1], [5, 0]]

    def test_forced_failure(self):
        # best bijection of {2,1} against {0,1} has a pair summing to 2 < 3
        assert _node_min_sum(((1, 1), (2, 1)), ((0, 1), (1, 1))) == 2

    def test_saturated_orders_pass(self):
        for d1 in (3, 5):
            k = 4
            assert _node_min_sum(((d1, k),), ((0, k),)) == d1

    def test_corrupted_order_fails_at_node_three(self):
        s = construct(Params(7, 3, 16, 5))
        at_q = dict(s.tables[2].at_q)  # {3: 2, 2: 3}
        at_q[3] -= 1
        at_q[2] += 1
        tables = list(s.tables)
        tables[2] = VanishingTable(s.tables[2].at_p, tuple(sorted(at_q.items())))
        corrupted = dataclasses.replace(s, tables=tuple(tables))
        verdicts = node_verdicts(corrupted.tables, corrupted.b)
        assert not verdicts[2].satisfiable and verdicts[2].node == 3
        assert verdicts[2].to_json_dict()["oracle_used"] is False  # the run merge alone decides
        assert all(v.satisfiable for i, v in enumerate(verdicts) if i != 2)


class TestComponentFeasibility:
    def test_twisted_pair_within_budget(self):
        # pair summing to d1 = 3 with P-order 2 is covered by the a = 2 twist
        bundle = _mixed(((1, 2), (1, None)), degree=6)
        table = _table({0: 1, 2: 1}, {1: 1, 2: 1})
        verdict = check_component_feasibility(1, bundle, table, d1=3, d2=0, r=2)
        assert verdict.ok
        assert verdict.exceptional == ((2, 1, 1),)

    def test_generic_lines_reject_saturated_pair(self):
        bundle = _mixed(((2, None),))
        table = _table({0: 1, 1: 1}, {2: 1, 3: 1})
        verdict = check_component_feasibility(1, bundle, table, d1=3, d2=0, r=2)
        assert not verdict.ok
        assert any(v["rule"] == "exceptional_capacity" for v in verdict.violations)

    def test_first_special_budget(self):
        s = construct(Params(7, 3, 16, 5))
        verdict = check_component_feasibility(1, s.bundles[0], s.tables[0], d1=5, d2=1, r=3)
        assert verdict.ok
        # groups of degree-5 pairs, one per P-order, each within the d2 budget
        assert verdict.exceptional == ((0, 1, 1), (1, 1, 1))

    def test_pair_sum_above_degree_rejected(self):
        bundle = _mixed(((2, None),))
        table = _table({3: 2}, {3: 2})
        verdict = check_component_feasibility(1, bundle, table, d1=4, d2=0, r=2)
        assert not verdict.ok
        assert any(v["rule"] == "pair_sum" for v in verdict.violations)

    @pytest.mark.parametrize(
        "component,bundle,expected",
        [
            (1, ComponentBundle(kind="first_special", degree=16, blocks=2, block_rank=1, block_degree=8), []),
            (2, ComponentBundle(kind="first_special", degree=16, blocks=1, block_rank=3, block_degree=16),
             [{"rule": "bundle_shape", "field": "kind", "component": 2, "expected": 1}]),
            (1, ComponentBundle(kind="first_special", degree=16, blocks=1, block_rank=2, block_degree=16),
             [{"rule": "bundle_shape", "field": "block_degree", "gcd": 2, "expected": 1}]),
            (3, _mixed(((1, 2), (1, 6)), degree=10),
             [{"rule": "bundle_shape", "field": "twist", "lowest": 2, "highest": 6, "min": 0, "max": 5}]),
            (3, _mixed(((1, -1), (1, None)), degree=10),
             [{"rule": "bundle_shape", "field": "twist", "lowest": -1, "highest": -1, "min": 0, "max": 5}]),
            (2, _mixed(((1, 2), (1, None)), degree=9),
             [{"rule": "bundle_shape", "field": "degree", "degree": 9, "expected": 10}]),
        ],
        ids=["legal_first_special", "first_special_off_component_1", "common_factor", "twist_above_d1",
             "negative_twist", "mixed_degree"],
    )
    def test_bundle_shape(self, component, bundle, expected):
        table = _table({0: 1, 1: 1}, {0: 1, 1: 1})
        verdict = check_component_feasibility(component, bundle, table, d1=5, d2=1, r=bundle.rank)
        assert list(verdict.violations) == expected
        assert verdict.ok == (not expected)

    def test_multiplicity_above_rank_rejected(self):
        # "multiplicity <= r" has one checker, multiplicity_bounds; the
        # component check leaves it alone, as no pairing can change it.
        s = construct(Params(4, 2, 8, 4))  # r = 2, d1 = 4
        tables = list(s.tables)
        tables[1] = VanishingTable(((1, 3), (2, 1)), s.tables[1].at_q)
        broken = dataclasses.replace(s, tables=tuple(tables))
        verdict = check_component_feasibility(2, broken.bundles[1], broken.tables[1], d1=4, d2=0, r=2)
        assert verdict.ok and verdict.violations == ()
        entry = check_multiplicity_bounds(broken)
        assert entry.status == "fail"
        assert entry.witness == {"offenders": [{"component": 2, "point": "P", "order": 1, "mult": 3}]}


class TestFullVerify:
    def test_constructor_output_passes(self):
        report = verify(construct(Params(7, 3, 16, 5)))
        assert report.overall and report.all_nodes_exact
        assert list(report.checks) == ["degree_balance", "node_pairing", "component_feasibility",
                                       "boundary_minimality", "multiplicity_bounds", "genericity"]
        assert report.entry("genericity") is report.checks["genericity"]
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
        tables[0] = VanishingTable(((0, 3), (2, 2)), s.tables[0].at_q)
        broken = dataclasses.replace(s, tables=tuple(tables))
        report = verify(broken)
        entry = report.entry("boundary_minimality")
        assert entry.status == "fail"
        assert any(o["order"] == 2 for o in entry.witness["offenders"])

    @pytest.fixture
    def merge_calls(self, monkeypatch):
        """(up, down, stretches returned) of every `merge_runs` call verify makes."""
        calls = []

        def counting(up, down, floor):
            walked = merge_runs(up, down, floor)
            calls.append((up, down, walked[2]))
            return walked

        monkeypatch.setattr(verify_module, "merge_runs", counting)
        return calls

    def test_stretches_are_built_only_when_a_witness_reads_them(self, merge_calls):
        report = verify(construct(Params(7, 3, 30, 5)))
        # 2g - 1 walks: one per node and one per component, none returning a stretch.
        assert report.overall and [stretches for _, _, stretches in merge_calls] == [[]] * 13
        # The exactness flag reads the node verdicts: no witness, no walk.
        assert report.all_nodes_exact and len(merge_calls) == 13
        report.to_canonical_json()
        assert len(merge_calls) == 13 + 6  # g - 1 node witnesses, one merge each
        assert all(stretches for _, _, stretches in merge_calls[13:])
        report.to_canonical_json()
        assert len(merge_calls) == 19

    @pytest.mark.parametrize("t,reads", [((7, 3, 30, 5), 0), ((6, 2, 9, 3), 4)], ids=["large_sections", "small_b"])
    def test_capacity_is_read_only_at_a_saturated_stretch(self, monkeypatch, t, reads):
        # A mixed bundle's capacity is read once per stretch summing to
        # exactly d1 and never elsewhere; a first_special bundle's is d2.
        s = construct(Params(*t))
        calls = []
        original = ComponentBundle.twist_multiplicity

        def counting(bundle, a):
            calls.append((bundle, a))
            return original(bundle, a)

        monkeypatch.setattr(ComponentBundle, "twist_multiplicity", counting)
        assert verify(s).overall
        d1 = s.params.d1
        saturated = [
            (bundle, x) for bundle, table in zip(s.bundles, s.tables) if bundle.kind == "mixed"
            for x, y, _ in merge_runs(table.at_p, table.at_q, d1)[2] if x + y == d1
        ]
        assert len(calls) == reads and calls == saturated

    @pytest.fixture
    def records(self, monkeypatch):
        """(type name, index) of every verdict record verify's module builds."""
        built = []
        for name in ("NodeVerdict", "ComponentVerdict"):
            def counting(*args, _record=getattr(verify_module, name), _name=name):
                built.append((_name, args[0]))
                return _record(*args)

            monkeypatch.setattr(verify_module, name, counting)
        return built

    def test_a_plain_instance_keeps_no_record_until_its_witness_is_read(self, records, merge_calls):
        report = verify(construct(Params(7, 3, 30, 5)))
        assert report.overall and report.all_nodes_exact and records == [] and len(merge_calls) == 13
        report.entry("component_feasibility").witness_json  # a plain component's text is fixed
        assert records == [] and len(merge_calls) == 13
        report.entry("node_pairing").witness_json  # a plain node's record is built from its tables
        assert records == [("NodeVerdict", node) for node in range(1, 7)] and len(merge_calls) == 19

    def test_only_a_component_with_a_stretch_at_d1_keeps_a_record(self, records):
        # Every node of 6 2 9 3 is plain, and so is every component without a saturated stretch.
        s = construct(Params(6, 2, 9, 3))
        saturated = [i for i, t in enumerate(s.tables, 1) if merge_runs(t.at_p, t.at_q, s.params.d1)[2]]
        report = verify(s)
        assert report.overall and 0 < len(saturated) < len(s.tables)
        assert records == [("ComponentVerdict", i) for i in saturated]
        assert_report_matches_records(s, report)

    @pytest.mark.parametrize(
        "at_q,expected",
        [
            ([[3, 3], [5, 2]], {"component": 4, "ok": False, "exceptional": [[5, 2, 0]], "violations": [
                {"rule": "exceptional_capacity", "order": 5, "pairs": 2, "capacity": 0}]}),
            ([[3, 3], [6, 2]], {"component": 4, "ok": False, "exceptional": [], "violations": [
                {"rule": "pair_sum", "pair": [5, 6], "sum": 11, "max": 10, "count": 2}]}),
        ],
        ids=["saturated", "over_degree"],
    )
    def test_a_pair_sum_reaching_d1_enters_the_stretch_loop(self, merge_calls, at_q, expected):
        # Component 4 of 7 3 30 5 (d1 = 10) is O(10Q)^3 on generic lines,
        # with P side [[5, 2], [6, 3]].
        doc = skeleton_to_json_dict(construct(Params(7, 3, 30, 5)))
        doc["tables"][3]["at_q"] = at_q
        s = skeleton_from_json_dict(doc)
        report = verify(s)
        assert len(merge_calls) == 2 * 7 - 1
        component_4 = (s.tables[3].at_p, s.tables[3].at_q)
        walks = [stretches for up, down, stretches in merge_calls if (up, down) == component_4]
        assert len(walks) == 1 and walks[0]  # one walk, which returns the offending stretch
        assert report.entry("component_feasibility").witness["components"][3] == expected
        assert not report.overall

    def test_pair_sum_witness_grows_with_runs_not_sections(self):
        # One violation per stretch above d1, with its count: the report of a
        # document whose component 4 pairs 10^5 sections stays small.
        doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))  # d1 = 5
        m = 10**5
        doc["tables"][3]["at_p"], doc["tables"][3]["at_q"] = [[3, m]], [[4, m]]
        report = verify(skeleton_from_json_dict(doc))
        violations = report.entry("component_feasibility").witness["components"][3]["violations"]
        assert [v for v in violations if v["rule"] == "pair_sum"] == [
            {"rule": "pair_sum", "pair": [3, 4], "sum": 7, "max": 5, "count": m}]
        assert len(report.to_canonical_json()) < 8192

    def test_a_passing_node_of_multiplicity_m_is_written_in_memory_linear_in_its_bytes(self):
        # Node 3 of 7 3 16 5 pairs M sections, all summing to b, so it passes
        # and report schema 1 lists M pairs and M sums. Writing them costs a
        # few times the report's bytes, not one list per section.
        doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
        m = 10**5
        doc["tables"][2]["at_q"], doc["tables"][3]["at_p"] = [[3, m]], [[2, m]]
        report = verify(skeleton_from_json_dict(doc))
        assert report.entry("node_pairing").status == "pass"
        tracemalloc.start()
        try:
            text = report.to_canonical_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 802_232
        assert peak <= 6 * len(text)

    def test_report_json_shape(self):
        doc = verify(construct(Params(4, 2, 8, 4))).to_json_dict()
        assert doc["overall"] == "pass"
        assert set(doc["checks"]) == {
            "degree_balance", "node_pairing", "component_feasibility",
            "boundary_minimality", "multiplicity_bounds", "genericity",
        }
        for entry in doc["checks"].values():
            assert entry["status"] in ("pass", "fail", "assumed")


@pytest.mark.parametrize(
    "tup, edits, failing, name, witness",
    [
        # Q3's last order, 5, raised to d1 + 1 = 11: only that run leaves [0, d1].
        ((7, 3, 30, 5), [(2, "at_q", [[4, 3], [11, 2]])], {"component_feasibility", "multiplicity_bounds"},
         "multiplicity_bounds", {"offenders": [{"component": 3, "point": "Q", "order": 11, "mult": 2}]}),
        # P1's copies at order 1 moved to order 2, which the minimal table lacks.
        ((7, 3, 16, 5), [(0, "at_p", [[0, 3], [2, 2]])], {"component_feasibility", "boundary_minimality"},
         "boundary_minimality", {"offenders": [{"point": "P1", "order": 1, "got": 0, "expected": 2},
                                               {"point": "P1", "order": 2, "got": 2, "expected": 0}]}),
        # One unit of Q1 moved from order 3 to order 4, and P2 follows, so node
        # 1 stays exact: only the rank-1 bound on a multiplicity fails.
        ((3, 1, 6, 3), [(0, "at_q", [[2, 1], [4, 2]]), (1, "at_p", [[2, 2], [4, 1]])], {"multiplicity_bounds"},
         "multiplicity_bounds", {"offenders": [{"component": 1, "point": "Q", "order": 4, "mult": 2},
                                               {"component": 2, "point": "P", "order": 2, "mult": 2}]}),
    ],
    ids=["order_past_d1", "boundary_order_moved", "multiplicity_past_rank"],
)
def test_a_loaded_edit_fails_exactly_its_checks(tup, edits, failing, name, witness):
    # Each check's status and the named check's witness, on the document
    # `verify-file` reads after the edits; the audit still matches rho.
    doc = skeleton_to_json_dict(construct(Params(*tup)))
    for table, side, runs in edits:
        doc["tables"][table][side] = runs
    skeleton = skeleton_from_json_dict(doc)
    assert audit_equals_rho(skeleton).ok
    checks = verify(skeleton).to_json_dict()["checks"]
    assert {n: e["status"] for n, e in checks.items()} == {
        "degree_balance": "pass", "node_pairing": "pass", "component_feasibility": "pass",
        "boundary_minimality": "pass", "multiplicity_bounds": "pass", "genericity": "assumed",
        **dict.fromkeys(failing, "fail"),
    }
    assert {key: checks[name]["witness"][key] for key in witness} == witness


def _runs(orders):
    """(order, multiplicity) runs of a list of orders."""
    return tuple((o, orders.count(o)) for o in sorted(set(orders)))


# Random run tables; the two sides of a pairing may total differently.
run_tables = st.lists(st.integers(0, 9), min_size=1, max_size=12).map(_runs)


def _component_reference(bundle, table, d1, d2, r, component=1):
    """The component rules applied pair by pair to the expanded anti-sorted
    pairing, as the component's per-section dict."""
    total_p, total_q = len(expand_ascending(table.at_p)), len(expand_ascending(table.at_q))
    violations = [{"rule": "bundle_rank", "rank": bundle.rank, "expected": r}] if bundle.rank != r else []
    if bundle.kind == "first_special":
        degree = bundle.blocks * bundle.block_degree
        if degree != bundle.degree:
            violations.append(
                {"rule": "bundle_shape", "field": "block_degree", "degree": degree, "expected": bundle.degree}
            )
        if math.gcd(bundle.block_rank, bundle.block_degree) != 1:
            violations.append({"rule": "bundle_shape", "field": "block_degree",
                               "gcd": math.gcd(bundle.block_rank, bundle.block_degree), "expected": 1})
        if component != 1:
            violations.append({"rule": "bundle_shape", "field": "kind", "component": component, "expected": 1})
    elif bundle.degree != sum(mult for mult, _ in bundle.summands) * d1:
        violations.append({"rule": "bundle_shape", "field": "degree", "degree": bundle.degree,
                           "expected": sum(mult for mult, _ in bundle.summands) * d1})
    twists = [twist for _, twist in bundle.summands if twist is not None]
    if any(not 0 <= a <= d1 for a in twists):
        violations.append({"rule": "bundle_shape", "field": "twist", "lowest": min(twists),
                           "highest": max(twists), "min": 0, "max": d1})
    if total_p != total_q:
        violations.append({"rule": "side_totals", "total_p": total_p, "total_q": total_q})
    top_groups = {}
    pairs = zip(expand_ascending(table.at_p), expand_descending(table.at_q))
    for (x, y), stretch in itertools.groupby(pairs):
        count = len(list(stretch))
        if x + y > d1:
            violations.append({"rule": "pair_sum", "pair": [x, y], "sum": x + y, "max": d1, "count": count})
        elif x + y == d1:
            top_groups[x] = top_groups.get(x, 0) + count
    exceptional = []
    for a in sorted(top_groups):
        capacity = d2 if bundle.kind == "first_special" else bundle.twist_multiplicity(a)
        exceptional.append([a, top_groups[a], capacity])
        if top_groups[a] > capacity:
            violations.append(
                {"rule": "exceptional_capacity", "order": a, "pairs": top_groups[a], "capacity": capacity}
            )
    return {"component": component, "ok": not violations, "violations": violations,
            "exceptional": exceptional}


def _node_reference(node, at_q, at_p, b):
    """A node's dict with one pair and one sum per section, from the
    expanded sides zipped (Q descending against P ascending)."""
    pairs = [[q, p] for q, p in zip(expand_descending(at_q), expand_ascending(at_p))]
    sums = [q + p for q, p in pairs]
    return {
        "node": node,
        "pairs": pairs,
        "sums": sums,
        "min_sum": min(sums),
        "satisfiable": min(sums) >= b and len(expand_ascending(at_q)) == len(expand_ascending(at_p)),
        "exact": all(v == b for v in sums),
        "oracle_used": False,
    }


def _boundary_reference(s):
    """The boundary witness: both boundary sides against the minimal table
    {0..k1-1: r, k1: k2}, with every order where a side differs from it."""
    p = s.params
    expected = [[order, p.r] for order in range(p.k1)] + ([[p.k1, p.k2]] if p.k2 else [])
    first_p, last_q = [list(run) for run in s.tables[0].at_p], [list(run) for run in s.tables[-1].at_q]
    witness = {"expected": expected, "first_p": first_p, "last_q": last_q}
    if first_p == last_q == expected:
        return "pass", witness
    want = dict(map(tuple, expected))
    witness["offenders"] = [
        {"point": label, "order": order, "got": dict(side).get(order, 0), "expected": want.get(order, 0)}
        for label, side in (("P1", s.tables[0].at_p), ("Qg", s.tables[-1].at_q))
        for order in sorted(set(dict(side)) | set(want))
        if dict(side).get(order) != want.get(order)
    ]
    return "fail", witness


def report_reference(s):
    """The report of `s` as per-section dicts: every node pair and sum from
    the expanded sides, every component from `_component_reference`, and
    each other witness from its rule. `verify`'s text must equal its
    canonical encoding byte for byte."""
    p = s.params
    residual = sum(bundle.degree for bundle in s.bundles) - p.r * (p.g - 1) * s.b - p.d
    nodes = [_node_reference(n, q_table.at_q, p_table.at_p, s.b)
             for n, (q_table, p_table) in enumerate(zip(s.tables, s.tables[1:]), 1)]
    comps = [_component_reference(bundle, table, p.d1, p.d2, p.r, i)
             for i, (bundle, table) in enumerate(zip(s.bundles, s.tables), 1)]
    boundary, boundary_witness = _boundary_reference(s)
    bounds = _bounds_reference(s)
    checks = {
        "degree_balance": ("pass" if residual == 0 else "fail", {"residual": residual, "b": s.b}),
        "node_pairing": ("pass" if all(n["satisfiable"] for n in nodes) else "fail",
                         {"nodes": nodes, "all_exact": all(n["exact"] for n in nodes)}),
        "component_feasibility": ("pass" if all(c["ok"] for c in comps) else "fail", {"components": comps}),
        "boundary_minimality": (boundary, boundary_witness),
        "multiplicity_bounds": ("fail" if "offenders" in bounds else "pass", bounds),
        "genericity": ("assumed", {"note": "sections determined by nodal values: genericity assumption, not verified"}),
    }
    return {
        "overall": "fail" if any(status == "fail" for status, _ in checks.values()) else "pass",
        "checks": {name: {"status": status, "witness": witness} for name, (status, witness) in checks.items()},
    }


def assert_report_matches_reference(s, report):
    """`report`, verify's report of `s`, writes the reference's canonical
    bytes, and its text is canonical: it reads back to the same bytes."""
    text = report.to_canonical_json()
    assert text == canonical_dumps(report_reference(s))
    assert canonical_dumps(json.loads(text)) == text


def assert_report_matches_records(s, report):
    """`report`, verify's report of `s`, writes the bytes of the record
    path, which keeps one verdict per node from `node_verdicts` and one per
    component from `check_component_feasibility`, and stores its flag."""
    p = s.params
    nodes = node_verdicts(s.tables, s.b)
    comps = [check_component_feasibility(i, bundle, table, d1=p.d1, d2=p.d2, r=p.r)
             for i, (bundle, table) in enumerate(zip(s.bundles, s.tables), 1)]
    all_exact = all(n.exact for n in nodes)
    node_text = f'{{"all_exact":{json.dumps(all_exact)},"nodes":[{",".join(n.to_canonical_json() for n in nodes)}]}}'
    component_text = f'{{"components":[{",".join(c.to_canonical_json() for c in comps)}]}}'
    checks = dict(verify(s).checks)
    checks["node_pairing"] = CheckEntry("pass" if all(n.satisfiable for n in nodes) else "fail", lambda: node_text)
    checks["component_feasibility"] = CheckEntry("pass" if all(c.ok for c in comps) else "fail",
                                                 lambda: component_text)
    assert report.all_nodes_exact == all_exact
    assert report.to_canonical_json() == VerificationReport(checks, all_exact).to_canonical_json()


def _bounds_reference(s):
    """multiplicity_bounds applied run by run to every side of every table,
    each total summed afresh."""
    r, k, d1 = s.params.r, s.params.k, s.params.d1
    offenders = []
    for i, t in enumerate(s.tables, 1):
        for point, side in (("P", t.at_p), ("Q", t.at_q)):
            total = sum(m for _, m in side)
            if total != k:
                offenders.append({"component": i, "point": point, "total": total, "expected": k})
            offenders += [
                {"component": i, "point": point, "order": order, "mult": mult}
                for order, mult in side
                if mult > r or not 0 <= order <= d1
            ]
    return {"offenders": offenders} if offenders else {"components": len(s.tables), "max_multiplicity": r}


@st.composite
def bound_sides(draw, k, r, d1):
    """A side with orders in [-2, d1+2] and multiplicities in [1, r+1],
    half of them totalling exactly k, so every summary test is crossed."""
    if draw(st.booleans()):
        mults, left = [], k
        while left:
            mults.append(draw(st.integers(1, min(r + 1, left))))
            left -= mults[-1]
    else:
        mults = draw(st.lists(st.integers(1, r + 1), min_size=1, max_size=k + 1))
    orders = draw(st.lists(st.integers(-2, d1 + 2), min_size=len(mults), max_size=len(mults), unique=True))
    return tuple(zip(sorted(orders), mults))


BOUNDS_BASE = construct(Params(4, 2, 8, 4))  # r = 2, k = 4, d1 = 4
bound_sides_4 = bound_sides(k=4, r=2, d1=4)


@given(
    tables=st.lists(
        st.one_of(st.sampled_from(BOUNDS_BASE.tables), st.builds(VanishingTable, bound_sides_4, bound_sides_4)),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=300)
def test_multiplicity_bounds_match_full_loop(tables):
    s = dataclasses.replace(BOUNDS_BASE, tables=tuple(tables))
    entry = check_multiplicity_bounds(s)
    expected = _bounds_reference(s)
    assert entry.witness == expected
    assert entry.status == ("fail" if "offenders" in expected else "pass")


class TestRunMerge:
    @given(p=run_tables, q=run_tables, floor=st.integers(-1, 19))
    @example(p=((1, 1), (4, 1)), q=((0, 2), (2, 1)), floor=3)  # the up side runs out first
    @example(p=((0, 2), (3, 1)), q=((1, 1), (5, 1)), floor=5)  # the down side runs out first
    @example(p=((0, 1), (2, 2)), q=((1, 2), (4, 1)), floor=4)  # both run out together
    @settings(max_examples=300)
    def test_stretches_expand_to_the_zipped_pairing(self, p, q, floor):
        # Orders lie in [0, 9], so floors -1 and 19 lie below and above every sum.
        lowest, _, stretches = merge_runs(p, q, floor)
        pairs = list(zip(expand_ascending(p), expand_descending(q)))
        assert all(count > 0 for _, _, count in stretches)
        expanded = [(x, y) for x, y, count in stretches for _ in range(count)]
        assert expanded == [(x, y) for x, y in pairs if x + y >= floor]
        # The floor only filters: below every sum, every stretch is returned.
        every = merge_runs(p, q, lowest)[2]
        assert stretches == [(x, y, count) for x, y, count in every if x + y >= floor]
        assert every == merge_runs(p, q, -1)[2]

    @given(p=run_tables, q=run_tables, floor=st.integers(-1, 19))
    @example(p=((1, 1), (4, 1)), q=((0, 2), (2, 1)), floor=0)  # the up side runs out first
    @example(p=((0, 2), (3, 1)), q=((1, 1), (5, 1)), floor=0)  # the down side runs out first
    @example(p=((0, 1), (2, 2)), q=((1, 2), (4, 1)), floor=0)  # both run out together
    @settings(max_examples=300)
    def test_sum_range_is_that_of_the_stretches(self, p, q, floor):
        # The extreme sums are those of the whole pairing, whatever the floor.
        lowest, highest, _ = merge_runs(p, q, floor)
        sums = [x + y for x, y, _ in merge_runs(p, q, -1)[2]]
        assert (lowest, highest) == (min(sums), max(sums))
        expanded = [x + y for x, y in zip(expand_ascending(p), expand_descending(q))]
        assert (lowest, highest) == (min(expanded), max(expanded))

    @given(at_q=run_tables, at_p=run_tables, b=st.integers(0, 18))
    @example(at_q=((2, 1), (3, 1)), at_p=((0, 1), (2, 1)), b=4)  # minimum sum b - 1
    @example(at_q=((2, 1), (3, 1)), at_p=((0, 1), (2, 1)), b=3)  # minimum sum b
    @example(at_q=((2, 2),), at_p=((1, 1),), b=3)  # every sum b, unequal totals
    @settings(max_examples=200)
    def test_node_verdict_matches_expanded_reference(self, at_q, at_p, b):
        s = construct(Params(2, 2, 6, 3))
        tables = (
            VanishingTable(s.tables[0].at_p, at_q),
            VanishingTable(at_p, s.tables[1].at_q),
        )
        verdict = node_verdicts(tables, b)[0]
        reference = _node_reference(1, at_q, at_p, b)
        assert verdict.to_canonical_json() == canonical_dumps(reference)
        assert (verdict.min_sum, verdict.exact, verdict.satisfiable) == (
            reference["min_sum"], reference["exact"], reference["satisfiable"])

    @given(
        at_p=run_tables,
        at_q=run_tables,
        d1=st.integers(1, 12),
        d2=st.integers(0, 3),
        r=st.integers(1, 4),
        twists=st.lists(st.one_of(st.none(), st.integers(0, 12)), min_size=1, max_size=4),
        first_special=st.booleans(),
        degree_shift=st.integers(-1, 1),
    )
    # Highest pair sum d1 - 1, d1 and d1 + 1 (d1 = 5, P-orders 1 and 2), on a
    # generic line and on a twist-1 summand, which matches P-order 1.
    @example(at_p=((1, 1), (2, 1)), at_q=((2, 1), (3, 1)), d1=5, d2=0, r=1, twists=[None],
             first_special=False, degree_shift=0)
    @example(at_p=((1, 1), (2, 1)), at_q=((2, 1), (4, 1)), d1=5, d2=0, r=1, twists=[None],
             first_special=False, degree_shift=0)
    @example(at_p=((1, 1), (2, 1)), at_q=((2, 1), (5, 1)), d1=5, d2=0, r=1, twists=[None],
             first_special=False, degree_shift=0)
    @example(at_p=((1, 1), (2, 1)), at_q=((2, 1), (3, 1)), d1=5, d2=0, r=1, twists=[1],
             first_special=False, degree_shift=0)
    @example(at_p=((1, 1), (2, 1)), at_q=((2, 1), (4, 1)), d1=5, d2=0, r=1, twists=[1],
             first_special=False, degree_shift=0)
    @example(at_p=((1, 1), (2, 1)), at_q=((2, 1), (5, 1)), d1=5, d2=0, r=1, twists=[1],
             first_special=False, degree_shift=0)
    @settings(max_examples=300)
    def test_component_verdict_matches_expanded_reference(
        self, at_p, at_q, d1, d2, r, twists, first_special, degree_shift
    ):
        table = VanishingTable(at_p, at_q)
        if first_special:
            bundle = ComponentBundle(kind="first_special", degree=1 + degree_shift, blocks=1, block_rank=r,
                                     block_degree=1)
        else:
            bundle = _mixed(_canonical_summands(twists), len(twists) * d1 + degree_shift)
        verdict = check_component_feasibility(1, bundle, table, d1=d1, d2=d2, r=r)
        assert verdict.to_canonical_json() == canonical_dumps(_component_reference(bundle, table, d1, d2, r))

    @given(first_p=run_tables, at_q=run_tables, at_p=run_tables, last_q=run_tables)
    @example(first_p=((0, 2), (1, 1)), at_q=((2, 2),), at_p=((1, 1),), last_q=((0, 2), (1, 1)))  # unequal totals
    @example(first_p=((0, 3),), at_q=((3, 3),), at_p=((0, 3),), last_q=((0, 2), (1, 1)))  # saturated stretches
    @settings(max_examples=300)
    def test_report_text_matches_the_per_section_reference(self, first_p, at_q, at_p, last_q):
        # Both components of 2 2 6 3 (d1 = 3, d2 = 1; a first_special bundle,
        # then two generic lines) and the boundary take drawn sides.
        s = construct(Params(2, 2, 6, 3))
        s = dataclasses.replace(s, tables=(VanishingTable(first_p, at_q), VanishingTable(at_p, last_q)))
        assert_report_matches_reference(s, verify(s))


PERTURBED_BASES = tuple(construct(Params(*t)) for t in ((7, 3, 30, 5), (7, 3, 16, 5), (6, 2, 9, 3), (6, 2, 10, 4)))


@st.composite
def perturbed_skeletons(draw):
    """A constructed skeleton of each case whose tables take one to three
    section moves: one section's order raised or lowered by one, dropped
    (a side's last section is raised instead), or copied. The loader would
    reject a move that changes a derived gluing, so the tables are replaced
    in the skeleton itself."""
    s = draw(st.sampled_from(PERTURBED_BASES))
    tables = [{"at_p": t.at_p, "at_q": t.at_q} for t in s.tables]
    for _ in range(draw(st.integers(1, 3))):
        table = draw(st.sampled_from(tables))
        side = draw(st.sampled_from(["at_p", "at_q"]))
        orders = expand_ascending(table[side])
        j = draw(st.integers(0, len(orders) - 1))
        move = draw(st.sampled_from(["raise", "lower", "drop", "copy"]))
        if move == "drop" and len(orders) > 1:
            del orders[j]
        elif move == "copy":
            orders.append(orders[j])
        else:
            orders[j] += -1 if move == "lower" else 1
        table[side] = _runs(orders)
    return dataclasses.replace(s, tables=tuple(VanishingTable(t["at_p"], t["at_q"]) for t in tables))


@given(s=perturbed_skeletons())
@settings(max_examples=200)
def test_report_bytes_match_the_record_path_on_perturbed_skeletons(s):
    # No digest pins a failing report: the record path and the per-section
    # reference are what its bytes are held to.
    report = verify(s)
    assert_report_matches_records(s, report)
    assert_report_matches_reference(s, report)
