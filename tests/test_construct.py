from __future__ import annotations

import pytest

from conftest import constructible_tuples
from ellchain import (
    Case,
    Params,
    construct,
    decompose,
    degree_balance,
    minimal_boundary_table,
    skeleton_to_json_dict,
    tail_count,
)
from ellchain.cli import SweepConfig
from ellchain.errors import HypothesisFailed

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
    return sorted((s.twist, s.mult) for s in bundle.summands if s.twist is not None)


def _line_mult(bundle):
    return sum(s.mult for s in bundle.summands if s.twist is None)


class TestSmallAWorkedInstance:
    P = Params(7, 3, 16, 5)

    def test_tables(self):
        s = construct(self.P)
        for i, (at_p, at_q) in SMALL_A_TABLES.items():
            assert s.table(i).p_map() == at_p, f"C{i} at P"
            assert s.table(i).q_map() == at_q, f"C{i} at Q"

    def test_bundles(self):
        s = construct(self.P)
        first = s.bundle(1)
        assert first.kind == "first_special"
        assert (first.blocks, first.block_rank, first.block_degree) == (1, 3, 16)
        assert first.degree == 16
        # early components carry O((2i-3)P+(d1-2i+3)Q)^(k2-d2) plus lines
        assert _twists(s.bundle(2)) == [(1, 1)] and _line_mult(s.bundle(2)) == 2
        assert _twists(s.bundle(3)) == [(3, 1)] and _line_mult(s.bundle(3)) == 2
        # alpha-blocks: first component twisted^k2 plus lines, rest fully twisted
        assert _twists(s.bundle(4)) == [(2, 2)] and _line_mult(s.bundle(4)) == 1
        assert _twists(s.bundle(5)) == [(4, 3)] and _line_mult(s.bundle(5)) == 0
        assert _twists(s.bundle(6)) == [(3, 2)] and _line_mult(s.bundle(6)) == 1
        assert _twists(s.bundle(7)) == [(5, 3)] and _line_mult(s.bundle(7)) == 0
        assert all(b.degree == 15 for b in s.bundles[1:])

    def test_gluing_dims(self):
        s = construct(self.P)
        dims = {n: (gl.tag, gl.parameter_dim) for n, gl in enumerate(s.gluings, 1)}
        assert dims == {
            1: ("constrained", 8),
            2: ("constrained", 7),
            3: ("constrained", 7),
            4: ("generic", 9),
            5: ("constrained", 7),
            6: ("generic", 9),
        }

    def test_no_tail(self):
        assert tail_count(self.P) == 0


class TestSmallBWorkedInstance:
    P = Params(7, 3, 14, 4)

    def test_tables(self):
        s = construct(self.P)
        for i, (at_p, at_q) in SMALL_B_TABLES.items():
            assert s.table(i).p_map() == at_p, f"C{i} at P"
            assert s.table(i).q_map() == at_q, f"C{i} at Q"

    def test_bundles(self):
        s = construct(self.P)
        # component 2 carries O(d1*Q)^(k2) plus generic lines
        assert _twists(s.bundle(2)) == [(0, 1)] and _line_mult(s.bundle(2)) == 2
        assert _twists(s.bundle(3)) == [(2, 2)] and _line_mult(s.bundle(3)) == 1
        # block twists: the first block component's exceptional sections sit
        # at a = alpha*k1, the rest one step past the previous block
        assert _twists(s.bundle(4)) == [(1, 1)]
        assert _twists(s.bundle(5)) == [(3, 3)]
        assert _twists(s.bundle(6)) == [(2, 1)]
        assert _twists(s.bundle(7)) == [(4, 3)]

    def test_tail_count(self):
        assert tail_count(self.P) == 0


class TestSmallCWorkedInstance:
    P = Params(4, 2, 8, 4)

    def test_tables(self):
        s = construct(self.P)
        for i, (at_p, at_q) in SMALL_C_TABLES.items():
            assert s.table(i).p_map() == at_p, f"C{i} at P"
            assert s.table(i).q_map() == at_q, f"C{i} at Q"

    def test_bundles(self):
        s = construct(self.P)
        assert s.bundle(1).kind == "mixed" and _line_mult(s.bundle(1)) == 2
        assert _twists(s.bundle(2)) == [(1, 2)]
        assert _twists(s.bundle(3)) == [(3, 2)]
        assert _line_mult(s.bundle(4)) == 2

    def test_tail_is_nonempty_under_strict_hypothesis(self):
        assert tail_count(self.P) == 1


def test_large_sections_worked_instance():
    s = construct(Params(2, 2, 6, 3))
    first = s.bundle(1)
    assert first.kind == "first_special"
    assert (first.blocks, first.block_rank, first.block_degree) == (2, 1, 3)
    assert s.bundle(2).kind == "mixed" and _line_mult(s.bundle(2)) == 2
    assert s.table(2).q_map() == {0: 2, 1: 1}
    assert all(gl.tag == "generic" for gl in s.gluings)
    assert degree_balance(s) == 0


def test_tail_count_examples():
    assert tail_count(Params(7, 3, 16, 5)) == 0
    assert tail_count(Params(7, 3, 14, 4)) == 0
    with pytest.raises(HypothesisFailed):
        # (***) fails upstream: 8 - 2*4 = 0 < 1
        tail_count(Params(8, 3, 16, 5))
    with pytest.raises(ValueError):
        tail_count(Params(2, 2, 6, 3))  # large-sections tuple has no tail notion


def test_tail_nonnegative_whenever_hypotheses_pass():
    cfg = SweepConfig(g=(2, 10), r=(1, 4))
    for p, classification in constructible_tuples(cfg):
        if classification.case is Case.LARGE_SECTIONS:
            continue
        n = tail_count(p, classification.case)
        assert n >= 0
        if classification.case is Case.SMALL_C:
            assert n >= 1  # the strict hypothesis forces a nonempty tail


def test_construction_invariants_over_small_sweep():
    cfg = SweepConfig(g=(2, 9), r=(1, 4))
    seen = set()
    for p, classification in constructible_tuples(cfg):
        s = construct(p)
        seen.add(classification.case)
        dec = decompose(p)
        assert s.b == dec.d1
        assert degree_balance(s) == 0
        assert [b["component"] for b in skeleton_to_json_dict(s)["bundles"]] == list(range(1, p.g + 1))
        assert all(b.rank == p.r for b in s.bundles)
        for t in s.tables:
            assert t.total_p == p.k and t.total_q == p.k
        assert s.table(1).at_p == minimal_boundary_table(p.r, dec.k1, dec.k2)
        assert s.table(p.g).at_q == minimal_boundary_table(p.r, dec.k1, dec.k2)
        for b in s.bundles:
            for summand in b.summands:
                assert summand.mult > 0
                if summand.twist is not None:
                    assert 0 <= summand.twist <= dec.d1
    assert seen == set(Case)
