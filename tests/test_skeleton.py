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
    canonical_dumps,
    construct,
    degree_balance,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    skeleton_to_json_dict,
    verify,
)
from ellchain.cli import SweepConfig
from ellchain.errors import ParameterError


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
    s = construct(Params(7, 3, 16, 5))
    tables = list(s.tables)
    broken = VanishingTable(((0, 1), (1, 3)), s.table(2).at_q)  # sums to 4, not k=5
    tables[1] = broken
    entry = verify(dataclasses.replace(s, tables=tuple(tables))).entry("multiplicity_bounds")
    assert entry.status == "fail"
    assert entry.witness["offenders"] == [{"component": 2, "point": "P", "total": 4, "expected": 5}]


# Valid run tables: distinct orders, ascending, positive multiplicities.
valid_sides = st.lists(
    st.tuples(st.integers(-5, 20), st.integers(1, 6)), min_size=1, max_size=8, unique_by=lambda e: e[0]
).map(lambda entries: tuple(sorted(entries)))


@st.composite
def broken_sides(draw):
    """A valid side with one defect: emptied, an order repeated, an order
    out of ascending order, or a multiplicity <= 0."""
    side = list(draw(valid_sides))
    defect = draw(st.sampled_from(["empty", "repeat", "unsorted", "multiplicity"]))
    i = draw(st.integers(0, len(side) - 1))
    if defect == "empty":
        return ()
    if defect == "repeat":
        side.insert(i + 1, (side[i][0], draw(st.integers(1, 6))))
    elif defect == "unsorted":
        side.append((side[-1][0] - draw(st.integers(1, 5)), draw(st.integers(1, 6))))
    else:
        side[i] = (side[i][0], draw(st.integers(-3, 0)))
    return tuple(side)


@given(at_p=valid_sides, at_q=valid_sides)
def test_vanishing_table_accepts_valid_runs(at_p, at_q):
    table = VanishingTable(at_p, at_q)
    assert table.at_p == at_p and table.at_q == at_q


@given(good=valid_sides, bad=broken_sides(), bad_at_p=st.booleans())
def test_vanishing_table_rejects_broken_side(good, bad, bad_at_p):
    with pytest.raises(ParameterError):
        if bad_at_p:
            VanishingTable(bad, good)
        else:
            VanishingTable(good, bad)


@given(at_p=valid_sides, at_q=valid_sides, new_q=valid_sides)
def test_table_summaries_equal_recomputed_runs(at_p, at_q, new_q):
    for table in (VanishingTable(at_p, at_q), dataclasses.replace(VanishingTable(at_p, at_q), at_q=new_q)):
        assert table.total_p == sum(m for _, m in table.at_p)
        assert table.total_q == sum(m for _, m in table.at_q)
        assert table.max_mult == max(m for _, m in table.at_p + table.at_q)


summands = st.lists(
    st.builds(Summand, mult=st.integers(1, 6), twist=st.one_of(st.none(), st.integers(-3, 12))), max_size=5
).map(tuple)


def _twists(bundle):
    return [s.twist for s in bundle.summands if s.twist is not None]


@given(parts=summands, new_parts=summands)
def test_mixed_bundle_summaries_equal_recomputed_summands(parts, new_parts):
    bundle = ComponentBundle(kind="mixed", degree=0, summands=parts)
    for b in (bundle, dataclasses.replace(bundle, summands=new_parts)):
        assert b.rank == sum(s.mult for s in b.summands)
        twists = _twists(b)
        assert b.min_twist == (min(twists) if twists else None)
        assert b.max_twist == (max(twists) if twists else None)


@given(blocks=st.integers(1, 6), block_rank=st.integers(1, 6), new_blocks=st.integers(1, 6))
def test_first_special_rank_is_blocks_times_block_rank(blocks, block_rank, new_blocks):
    bundle = ComponentBundle(kind="first_special", degree=0, blocks=blocks, block_rank=block_rank)
    assert bundle.rank == blocks * block_rank and bundle.min_twist is None and bundle.max_twist is None
    assert dataclasses.replace(bundle, blocks=new_blocks).rank == new_blocks * block_rank


def _ledger_terms(bundle):
    """(moduli, autos) by the per-summand loop the ledger once ran."""
    if bundle.kind == "first_special":
        return bundle.blocks, bundle.blocks
    moduli = autos = 0
    for summand in bundle.summands:
        if summand.twist is None:
            moduli += summand.mult
            autos += summand.mult
        else:
            autos += summand.mult * summand.mult
    return moduli, autos


@given(parts=summands, new_parts=summands, blocks=st.integers(1, 6), new_blocks=st.integers(1, 6))
def test_bundle_moduli_and_autos_equal_summand_loop(parts, new_parts, blocks, new_blocks):
    mixed = ComponentBundle(kind="mixed", degree=0, summands=parts)
    special = ComponentBundle(kind="first_special", degree=0, blocks=blocks, block_rank=2)
    for b in (mixed, dataclasses.replace(mixed, summands=new_parts), special,
              dataclasses.replace(special, blocks=new_blocks)):
        assert (b.moduli, b.autos) == _ledger_terms(b)


def _frozen_records():
    """One instance of each record whose fields may not change after it is
    built: the data model (its summaries are derived from its fields) and the
    input records."""
    s = construct(Params(7, 3, 16, 5))
    return [
        s.bundles[1].summands[0], s.bundles[0], s.bundles[1], s.tables[0], s,
        s.params, s.decomposition,
        SweepConfig(g=(2, 3), r=(1, 2)),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda rec: type(rec).__name__)
def test_data_model_and_input_records_are_frozen(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


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
