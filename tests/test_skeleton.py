from __future__ import annotations

import dataclasses

import pytest

from ellchain import (
    Params,
    build_chain,
    canonical_dumps,
    construct,
    degree_balance,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    skeleton_to_json_dict,
)
from ellchain.errors import ParameterError


def test_build_chain_smallest():
    chain = build_chain(2)
    assert chain.components == 2 and chain.node_count == 1


def test_build_chain_seven():
    chain = build_chain(7)
    assert chain.components == 7 and chain.node_count == 6


def test_build_chain_node_labels():
    assert build_chain(3).nodes == (("Q1", "P2"), ("Q2", "P3"))


def test_build_chain_rejects_tiny():
    with pytest.raises(ParameterError):
        build_chain(1)


def test_degree_balance_small_a():
    s = construct(Params(7, 3, 16, 5))
    # D_1 = 16 plus six components of degree 15, b = 5
    assert sum(b.degree for b in s.bundles) == 16 + 6 * 15
    assert degree_balance(s) == 0


def test_degree_balance_large_sections():
    s = construct(Params(2, 2, 6, 3))
    assert degree_balance(s) == 0


def test_degree_balance_perturbation_is_linear():
    s = construct(Params(7, 3, 16, 5))
    bumped = dataclasses.replace(
        s, bundles=s.bundles[:-1] + (dataclasses.replace(s.bundles[-1], degree=s.bundles[-1].degree + 1),)
    )
    assert degree_balance(bumped) == 1


def test_b_equals_d1():
    for tup in [(7, 3, 16, 5), (7, 3, 14, 4), (2, 2, 6, 3), (4, 2, 8, 4)]:
        s = construct(Params(*tup))
        assert s.b == s.decomposition.d1


def test_json_round_trip_identity():
    s = construct(Params(7, 3, 16, 5))
    text = skeleton_to_canonical_json(s)
    rebuilt = skeleton_from_json_dict(skeleton_to_json_dict(s))
    assert rebuilt == s
    assert skeleton_to_canonical_json(rebuilt) == text


def test_canonical_json_is_sorted_and_compact():
    s = construct(Params(7, 3, 16, 5))  # no notes, so separators are testable
    text = skeleton_to_canonical_json(s)
    assert not s.notes
    assert ": " not in text and ", " not in text
    doc = skeleton_to_json_dict(s)
    assert text == canonical_dumps(doc)
    assert doc["schema"] == 1


def test_table_total_guard():
    import dataclasses

    from ellchain import VanishingTable
    from ellchain.errors import MultiplicityMismatch
    from ellchain.skeleton import check_table_totals

    s = construct(Params(7, 3, 16, 5))
    tables = list(s.tables)
    broken = VanishingTable.from_maps(2, {0: 1, 1: 3}, s.table(2).q_map())  # sums to 4, not k=5
    tables[1] = broken
    with pytest.raises(MultiplicityMismatch):
        check_table_totals(dataclasses.replace(s, tables=tuple(tables)))


def test_malformed_document_rejected():
    s = construct(Params(2, 2, 6, 3))
    doc = skeleton_to_json_dict(s)
    doc["schema"] = 99
    with pytest.raises(ParameterError):
        skeleton_from_json_dict(doc)
    doc = skeleton_to_json_dict(s)
    del doc["tables"]
    with pytest.raises(ParameterError):
        skeleton_from_json_dict(doc)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_loader_requires_exact_int_table_entries(bad):
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    doc["tables"][0]["at_p"][0][1] = bad
    with pytest.raises(ParameterError):
        skeleton_from_json_dict(doc)


def test_loader_rejects_non_object_document():
    with pytest.raises(ParameterError):
        skeleton_from_json_dict([skeleton_to_json_dict(construct(Params(2, 2, 6, 3)))])
