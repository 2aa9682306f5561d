from __future__ import annotations

import sys

import pytest

from conftest import constructible_tuples
from ellchain import (
    Case,
    Params,
    classify,
    construct,
    degree_balance,
    layout,
    minimal_boundary_table,
    skeleton_to_json_dict,
)
from ellchain.cli import SweepConfig
from ellchain.construct import _BUILDERS
from ellchain.errors import HypothesisFailed, ParameterError


def _runs(counts):
    """Ascending (order, multiplicity) runs of an order -> multiplicity map."""
    return tuple(sorted(counts.items()))


def _gluings(s):
    """(tag, dimension) per node, as the skeleton's JSON writes them."""
    return [(gl["tag"], gl["parameter_dim"]) for gl in skeleton_to_json_dict(s)["gluings"]]


def _tail_count(p):
    """Trailing generic-line components of a small-case tuple."""
    return len(layout(p)["tail"])


# Frozen per-component tables for the fully worked instances; every entry was
# recomputed from the recipe formulas by hand before being pinned here.
SMALL_A_TABLES = {
    1: ({0: 3, 1: 2}, {5: 1, 4: 3, 3: 1}),
    2: ({0: 1, 1: 3, 2: 1}, {4: 2, 3: 2, 2: 1}),
    3: ({1: 2, 2: 2, 3: 1}, {3: 2, 2: 3}),
    4: ({2: 2, 3: 3}, {3: 2, 1: 3}),
    5: ({2: 2, 4: 3}, {2: 2, 1: 3}),
    6: ({3: 2, 4: 3}, {2: 2, 0: 3}),
    7: ({3: 2, 5: 3}, {1: 2, 0: 3}),
}

SMALL_B_TABLES = {
    1: ({0: 3, 1: 1}, {4: 2, 3: 2}),
    2: ({0: 2, 1: 2}, {4: 1, 3: 1, 2: 2}),
    3: ({0: 1, 1: 1, 2: 2}, {3: 1, 2: 3}),
    4: ({1: 1, 2: 3}, {3: 1, 1: 3}),
    5: ({1: 1, 3: 3}, {2: 1, 1: 3}),
    6: ({2: 1, 3: 3}, {2: 1, 0: 3}),
    7: ({2: 1, 4: 3}, {1: 1, 0: 3}),
}

SMALL_C_TABLES = {
    1: ({0: 2, 1: 2}, {3: 2, 2: 2}),
    2: ({1: 2, 2: 2}, {3: 2, 1: 2}),
    3: ({1: 2, 3: 2}, {2: 2, 1: 2}),
    4: ({2: 2, 3: 2}, {1: 2, 0: 2}),
}


def _twists(bundle):
    return sorted((twist, mult) for mult, twist in bundle.summands if twist is not None)


def _line_mult(bundle):
    return sum(mult for mult, twist in bundle.summands if twist is None)


class TestSmallAWorkedInstance:
    P = Params(7, 3, 16, 5)

    def test_tables(self):
        s = construct(self.P)
        for i, (at_p, at_q) in SMALL_A_TABLES.items():
            assert s.tables[i - 1].at_p == _runs(at_p), f"C{i} at P"
            assert s.tables[i - 1].at_q == _runs(at_q), f"C{i} at Q"

    def test_bundles(self):
        s = construct(self.P)
        first = s.bundles[0]
        assert first.kind == "first_special"
        assert (first.blocks, first.block_rank, first.block_degree) == (1, 3, 16)
        assert first.degree == 16
        # early components carry O((2i-3)P+(d1-2i+3)Q)^(k2-d2) plus lines
        assert _twists(s.bundles[1]) == [(1, 1)] and _line_mult(s.bundles[1]) == 2
        assert _twists(s.bundles[2]) == [(3, 1)] and _line_mult(s.bundles[2]) == 2
        # alpha-blocks: first component twisted^k2 plus lines, rest fully twisted
        assert _twists(s.bundles[3]) == [(2, 2)] and _line_mult(s.bundles[3]) == 1
        assert _twists(s.bundles[4]) == [(4, 3)] and _line_mult(s.bundles[4]) == 0
        assert _twists(s.bundles[5]) == [(3, 2)] and _line_mult(s.bundles[5]) == 1
        assert _twists(s.bundles[6]) == [(5, 3)] and _line_mult(s.bundles[6]) == 0
        assert all(b.degree == 15 for b in s.bundles[1:])

    def test_gluing_dims(self):
        s = construct(self.P)
        assert _gluings(s) == [("constrained", 8), ("constrained", 7), ("constrained", 7), ("generic", 9),
                               ("constrained", 7), ("generic", 9)]

    def test_no_tail(self):
        assert _tail_count(self.P) == 0


class TestSmallBWorkedInstance:
    P = Params(7, 3, 14, 4)

    def test_tables(self):
        s = construct(self.P)
        for i, (at_p, at_q) in SMALL_B_TABLES.items():
            assert s.tables[i - 1].at_p == _runs(at_p), f"C{i} at P"
            assert s.tables[i - 1].at_q == _runs(at_q), f"C{i} at Q"

    def test_bundles(self):
        s = construct(self.P)
        # component 2 carries O(d1*Q)^(k2) plus generic lines
        assert _twists(s.bundles[1]) == [(0, 1)] and _line_mult(s.bundles[1]) == 2
        assert _twists(s.bundles[2]) == [(2, 2)] and _line_mult(s.bundles[2]) == 1
        # block twists: the first block component's exceptional sections sit
        # at a = alpha*k1, the rest one step past the previous block
        assert _twists(s.bundles[3]) == [(1, 1)]
        assert _twists(s.bundles[4]) == [(3, 3)]
        assert _twists(s.bundles[5]) == [(2, 1)]
        assert _twists(s.bundles[6]) == [(4, 3)]

    def test_tail_count(self):
        assert _tail_count(self.P) == 0

    def test_gluing_dims(self):
        # Node 1 takes the twist-0 branch r^2 - t(r - m). In (4,2,9,4), k2 = 0
        # leaves component 2 untwisted: node 1 is constrained at r^2 = 4, so
        # the tag is not a function of the dimension.
        assert _gluings(construct(self.P)) == [("constrained", 8), ("constrained", 7), ("constrained", 7),
                                               ("generic", 9), ("constrained", 7), ("generic", 9)]
        assert _gluings(construct(Params(4, 2, 9, 4))) == [("constrained", 4), ("constrained", 3),
                                                           ("constrained", 3)]


class TestSmallCWorkedInstance:
    P = Params(4, 2, 8, 4)

    def test_tables(self):
        s = construct(self.P)
        for i, (at_p, at_q) in SMALL_C_TABLES.items():
            assert s.tables[i - 1].at_p == _runs(at_p), f"C{i} at P"
            assert s.tables[i - 1].at_q == _runs(at_q), f"C{i} at Q"

    def test_bundles(self):
        s = construct(self.P)
        assert s.bundles[0].kind == "mixed" and _line_mult(s.bundles[0]) == 2
        assert _twists(s.bundles[1]) == [(1, 2)]
        assert _twists(s.bundles[2]) == [(3, 2)]
        assert _line_mult(s.bundles[3]) == 2

    def test_tail_is_nonempty_under_strict_hypothesis(self):
        assert _tail_count(self.P) == 1


def test_large_sections_worked_instance():
    s = construct(Params(2, 2, 6, 3))
    first = s.bundles[0]
    assert first.kind == "first_special"
    assert (first.blocks, first.block_rank, first.block_degree) == (2, 1, 3)
    assert s.bundles[1].kind == "mixed" and _line_mult(s.bundles[1]) == 2
    assert s.tables[1].at_q == ((0, 2), (1, 1))
    assert _gluings(s) == [("generic", 4)]
    assert degree_balance(s) == 0


@pytest.mark.parametrize("tup", [(7, 3, 30, 5), (7, 3, 16, 5), (6, 2, 9, 3), (6, 2, 10, 4)],
                         ids=["large_sections", "small_a", "small_b", "small_c"])
def test_short_chain_rejected_by_skeleton(monkeypatch, tup):
    # A recipe's chain is checked only by the skeleton's component counts.
    p = Params(*tup)
    case = classify(p).case
    build = _BUILDERS[case]

    def dropping_last(*args):
        return build(*args)[:-1]

    monkeypatch.setitem(_BUILDERS, case, dropping_last)
    with pytest.raises(ParameterError, match=f"^bundles: {p.g - 1} entries for g = {p.g}$"):
        construct(p)


def test_tail_count_examples():
    assert _tail_count(Params(7, 3, 16, 5)) == 0
    assert _tail_count(Params(7, 3, 14, 4)) == 0
    with pytest.raises(HypothesisFailed):
        # (***) fails upstream: 8 - 2*4 = 0 < 1
        classify(Params(8, 3, 16, 5))
    p = Params(2, 2, 6, 3)
    with pytest.raises(ValueError):
        layout(p)  # large-sections tuple has no tail notion


def test_tail_nonnegative_whenever_hypotheses_pass():
    cfg = SweepConfig(g=(2, 10), r=(1, 4))
    for p in constructible_tuples(cfg):
        if p.case is Case.LARGE_SECTIONS:
            continue
        n = len(layout(p)["tail"])
        assert n >= 0
        # The main hypothesis is the tail budget: (***) and (*) ask for a
        # tail of at least 0 components, (**) for at least 1.
        assert n == p.hypotheses[0].value - 1
        if p.case is Case.SMALL_C:
            assert n >= 1  # the strict hypothesis forces a nonempty tail


def test_construction_invariants_over_small_sweep():
    cfg = SweepConfig(g=(2, 9), r=(1, 4))
    seen = set()
    for p in constructible_tuples(cfg):
        s = construct(p)
        seen.add(p.case)
        assert s.b == p.d1
        assert degree_balance(s) == 0
        assert [b["component"] for b in skeleton_to_json_dict(s)["bundles"]] == list(range(1, p.g + 1))
        assert all(b.rank == p.r for b in s.bundles)
        for t in s.tables:
            assert t.total_p == p.k and t.total_q == p.k
        assert s.tables[0].at_p == minimal_boundary_table(p.r, p.k1, p.k2)
        assert s.tables[-1].at_q == minimal_boundary_table(p.r, p.k1, p.k2)
        for b in s.bundles:
            for mult, twist in b.summands:
                assert mult > 0
                if twist is not None:
                    assert 0 <= twist <= p.d1
    assert seen == set(Case)


@pytest.mark.parametrize("tup, calls", [((7, 3, 16, 5), 1), ((6, 2, 9, 3), 1), ((6, 2, 10, 4), 1), ((7, 3, 30, 5), 0)],
                         ids=["small_a", "small_b", "small_c", "large_sections"])
def test_construct_reads_the_layout_once(monkeypatch, tup, calls):
    # A small recipe is handed the parts construct read; large_sections has none.
    module = sys.modules["ellchain.construct"]
    seen = []

    def counting(p):
        seen.append(p)
        return layout(p)

    monkeypatch.setattr(module, "layout", counting)
    construct(Params(*tup))
    assert len(seen) == calls
