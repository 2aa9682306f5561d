from __future__ import annotations

import dataclasses
import inspect
import json
import pickle
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constructible_tuples
from test_mutation_gate import DUMPS
from ellchain import (
    ComponentBundle,
    LimitSeriesSkeleton,
    Params,
    VanishingTable,
    canonical_dumps,
    construct,
    degree_balance,
    skeleton_from_json_dict,
    skeleton_to_canonical_json,
    skeleton_to_json_dict,
    verify,
)
from ellchain.cli import SweepConfig, analyze_skeleton
from ellchain.errors import ParameterError
from ellchain.oracle import exists_feasible_pairing, min_sum_pairing_exists
from ellchain.params import Case


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
        assert s.b == s.params.d1


def test_json_round_trip_identity():
    s = construct(Params(7, 3, 16, 5))
    text = skeleton_to_canonical_json(s)
    rebuilt = skeleton_from_json_dict(skeleton_to_json_dict(s))
    assert rebuilt == s
    assert skeleton_to_canonical_json(rebuilt) == text


def test_skeleton_case_is_read_off_its_params():
    s = construct(Params(6, 2, 10, 4))
    assert "case" not in {f.name for f in dataclasses.fields(s)}
    assert s.case is s.params.case is Case.SMALL_C
    with pytest.raises(TypeError):
        dataclasses.replace(s, case=Case.SMALL_B)


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
    broken = VanishingTable(((0, 1), (1, 3)), s.tables[1].at_q)  # sums to 4, not k=5
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


# Canonical summand lists: twisted summands ascending by twist, then at most
# one generic-line entry.
def _canonical(twisted, lines):
    return tuple((m, a) for a, m in sorted(twisted.items())) + (((lines, None),) if lines else ())


summands = st.builds(_canonical, st.dictionaries(st.integers(-3, 12), st.integers(1, 6), max_size=5), st.integers(0, 6))


def _twists(bundle):
    return [twist for _, twist in bundle.summands if twist is not None]


@given(parts=summands, new_parts=summands)
def test_mixed_bundle_summaries_equal_recomputed_summands(parts, new_parts):
    bundle = ComponentBundle(kind="mixed", degree=0, summands=parts)
    for b in (bundle, dataclasses.replace(bundle, summands=new_parts)):
        assert b.rank == sum(mult for mult, _ in b.summands)
        twists = _twists(b)
        assert b.min_twist == (min(twists) if twists else None)
        assert b.max_twist == (max(twists) if twists else None)


def _summed_twist_multiplicity(bundle, a):
    """Copies of twist a among the summands, by walking all of them."""
    return sum(mult for mult, twist in bundle.summands if twist == a)


def test_twist_multiplicity_equals_summed_reference():
    # twist_multiplicity returns 0 for a twist no summand has: outside
    # [min_twist, max_twist] and in the gaps between twists.
    gapped = [
        ComponentBundle(kind="mixed", degree=0, summands=((2, 0), (1, 3))),
        ComponentBundle(kind="mixed", degree=0, summands=((2, 0), (1, 3), (1, None))),
        ComponentBundle(kind="mixed", degree=0, summands=((2, 1), (1, 4))),
    ]
    assert [gapped[0].twist_multiplicity(a) for a in (1, 2, 4)] == [0, 0, 0]
    for bundle in gapped:
        for a in range(-1, 6):
            assert bundle.twist_multiplicity(a) == _summed_twist_multiplicity(bundle, a), (bundle, a)
    seen = 0
    for p in constructible_tuples(SweepConfig(g=(2, 8), r=(1, 3))):
        for bundle in construct(p).bundles:
            for a in range(-1, p.d1 + 2):
                assert bundle.twist_multiplicity(a) == _summed_twist_multiplicity(bundle, a), (p, bundle, a)
            seen += 1
    assert seen > 10_000


@given(parts=summands, a=st.integers(-4, 13))
def test_twist_multiplicity_of_any_summands(parts, a):
    bundle = ComponentBundle(kind="mixed", degree=0, summands=parts)
    assert bundle.twist_multiplicity(a) == _summed_twist_multiplicity(bundle, a)


@given(blocks=st.integers(1, 6), block_rank=st.integers(1, 6), new_blocks=st.integers(1, 6))
def test_first_special_rank_is_blocks_times_block_rank(blocks, block_rank, new_blocks):
    bundle = ComponentBundle(kind="first_special", degree=0, blocks=blocks, block_rank=block_rank, block_degree=1)
    assert bundle.rank == blocks * block_rank and bundle.min_twist is None and bundle.max_twist is None
    assert dataclasses.replace(bundle, blocks=new_blocks).rank == new_blocks * block_rank


def _ledger_terms(bundle):
    """(moduli, autos) by the per-summand loop the ledger once ran."""
    if bundle.kind == "first_special":
        return bundle.blocks, bundle.blocks
    moduli = autos = 0
    for mult, twist in bundle.summands:
        if twist is None:
            moduli += mult
            autos += mult
        else:
            autos += mult * mult
    return moduli, autos


@given(parts=summands, new_parts=summands, blocks=st.integers(1, 6), new_blocks=st.integers(1, 6))
def test_bundle_moduli_and_autos_equal_summand_loop(parts, new_parts, blocks, new_blocks):
    mixed = ComponentBundle(kind="mixed", degree=0, summands=parts)
    special = ComponentBundle(kind="first_special", degree=0, blocks=blocks, block_rank=2, block_degree=1)
    for b in (mixed, dataclasses.replace(mixed, summands=new_parts), special,
              dataclasses.replace(special, blocks=new_blocks)):
        assert (b.moduli, b.autos) == _ledger_terms(b)


def _frozen_records():
    """One instance of each record whose fields may not change after it is
    built: the data model (its summaries are derived from its fields) and the
    input records."""
    s = construct(Params(7, 3, 16, 5))
    return [
        s.bundles[0], s.bundles[1], s.tables[0], s,
        s.params,
        SweepConfig(g=(2, 3), r=(1, 2)),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda rec: type(rec).__name__)
def test_data_model_and_input_records_are_frozen(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


class _Rejected(NamedTuple):
    value: Any  # a replacement that its record must reject


def _data_model():
    """(record, a replacement value for each init field) for the four data-model
    records, each built by a hand-written __init__ that derives its summaries.
    Every replacement but a _Rejected one keeps the record valid and changes
    a derived field where the field feeds one. A bundle holds only its
    kind's fields, so no replacement of its kind, or of a field its kind
    does not use, keeps it valid. The skeleton is small_b with node 1
    reading Q1's table, so `b` moves its first gluing dimension."""
    s = construct(Params(6, 2, 9, 3))
    assert s.node_one_reads_q1
    first_special = ComponentBundle("first_special", 16, blocks=1, block_rank=3, block_degree=16)
    mixed = ComponentBundle("mixed", 16, summands=((2, 4), (1, None)))
    cases = [
        (first_special, {"kind": _Rejected("mixed"), "degree": 17, "blocks": 2, "block_rank": 1, "block_degree": 5,
                         "summands": _Rejected(((1, 0),))}),
        (mixed, {"kind": _Rejected("first_special"), "degree": 17, "blocks": _Rejected(2),
                 "block_rank": _Rejected(1), "block_degree": _Rejected(5),
                 "summands": ((1, 0), (3, 7))}),
        (VanishingTable(((0, 2), (1, 1)), ((0, 1), (2, 2))), {"at_p": ((0, 4),), "at_q": ((5, 1), (6, 4))}),
        (s, {"params": Params(6, 3, 13, 4), "b": s.b + 1, "bundles": s.bundles[::-1], "tables": s.tables[::-1]}),
        (Params(7, 3, 16, 5), {"g": 8, "r": 2, "d": 17, "k": 6}),
    ]
    return [pytest.param(record, changes, id=type(record).__name__ + ("_mixed" if record is mixed else ""))
            for record, changes in cases]


def _init_fields(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init}


@pytest.mark.parametrize("record, changes", _data_model())
class TestDataModelContract:
    def test_init_signature_lists_the_init_fields(self, record, changes):
        params = inspect.signature(type(record)).parameters
        fields = [f for f in dataclasses.fields(record) if f.init]
        assert list(params) == [f.name for f in fields] == list(changes)
        for f in fields:
            param = params[f.name]
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            assert param.default == (param.empty if f.default is dataclasses.MISSING else f.default)

    def test_instance_dict_holds_exactly_the_fields(self, record, changes):
        assert sorted(vars(record)) == sorted(f.name for f in dataclasses.fields(record))

    def test_delattr_raises(self, record, changes):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)
        assert sorted(vars(record)) == sorted(f.name for f in dataclasses.fields(record))

    def test_replace_equals_a_fresh_build(self, record, changes):
        moved = set()
        for name, value in changes.items():
            if type(value) is _Rejected:
                with pytest.raises(ParameterError) as replaced:
                    dataclasses.replace(record, **{name: value.value})
                with pytest.raises(ParameterError) as fresh:
                    type(record)(**{**_init_fields(record), name: value.value})
                assert str(replaced.value) == str(fresh.value), name
                continue
            replaced = dataclasses.replace(record, **{name: value})
            fresh = type(record)(**{**_init_fields(record), name: value})
            assert replaced == fresh and vars(replaced) == vars(fresh), name
            assert replaced != record and hash(replaced) == hash(fresh), name
            moved |= {key for key, v in vars(fresh).items() if v != vars(record)[key]}
        # Each derived field is recomputed at least once above. A rejected
        # field cannot move, nor can a first_special bundle's twist range.
        fixed = {name for name, value in changes.items() if type(value) is _Rejected}
        if getattr(record, "kind", None) == "first_special":
            fixed |= {"min_twist", "max_twist"}
        assert moved == {f.name for f in dataclasses.fields(record)} - fixed

    def test_pickle_round_trip(self, record, changes):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(record, protocol))
            assert loaded == record and vars(loaded) == vars(record)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(loaded, next(iter(changes)), None)


def _skeleton_parts(**changes):
    s = construct(Params(3, 2, 9, 3))
    return {**_init_fields(s), **changes}


_AT_LEAST_ONE_BLOCK = "blocks: a first_special bundle needs blocks and block_rank of at least 1"
_NO_BLOCKS = "a mixed bundle has no blocks, block_rank or block_degree"
_LINES_LAST = "summands: a twisted summand after the generic lines, generic lines must be one last entry"

# (id, build, message): each build breaks one or more checks, and the message
# is the first one's, in the order each record checks.
_INVALID = [
    ("summand_zero", lambda: ComponentBundle("mixed", 10, summands=((0, None),)),
     "summands: multiplicity 0, a summand needs at least one copy"),
    ("summand_negative", lambda: ComponentBundle("mixed", 10, summands=((-2, 3),)),
     "summands: multiplicity -2, a summand needs at least one copy"),
    ("bundle_kind", lambda: ComponentBundle("line", 3, blocks=0), "kind: unknown bundle kind 'line'"),
    ("bundle_blocks", lambda: ComponentBundle("first_special", 3, blocks=0, block_rank=2), _AT_LEAST_ONE_BLOCK),
    ("bundle_block_rank", lambda: ComponentBundle("first_special", 3, blocks=1), _AT_LEAST_ONE_BLOCK),
    ("bundle_block_degree", lambda: ComponentBundle("first_special", 3, blocks=1, block_rank=2),
     "block_degree: a first_special bundle needs a block_degree"),
    ("bundle_blocks_on_mixed", lambda: dataclasses.replace(construct(Params(7, 3, 16, 5)).bundles[1], blocks=2),
     f"blocks: {_NO_BLOCKS}"),
    ("bundle_block_degree_on_mixed", lambda: ComponentBundle("mixed", 3, block_degree=1), f"block_degree: {_NO_BLOCKS}"),
    ("bundle_summands_on_first_special",
     lambda: dataclasses.replace(construct(Params(7, 3, 16, 5)).bundles[0], summands=((1, None),)),
     "summands: a first_special bundle has no summands, got 1"),
    ("bundle_lines_first", lambda: ComponentBundle("mixed", 10, summands=((1, None), (1, 2))), _LINES_LAST),
    ("bundle_two_line_entries", lambda: ComponentBundle("mixed", 10, summands=((1, None), (1, None))),
     "summands: a generic_line summand after the generic lines, generic lines must be one last entry"),
    ("bundle_repeated_twist", lambda: ComponentBundle("mixed", 10, summands=((1, 2), (1, 2))),
     "summands: twist 2 after 2, twists must be strictly ascending"),
    ("bundle_descending_twists", lambda: ComponentBundle("mixed", 10, summands=((1, 3), (1, 2))),
     "summands: twist 2 after 3, twists must be strictly ascending"),
    ("table_empty_p", lambda: VanishingTable((), ()), "at_p: empty table side"),
    ("table_empty_q", lambda: VanishingTable(((0, 1),), ()), "at_q: empty table side"),
    ("table_unsorted_p", lambda: VanishingTable(((2, 1), (1, 1)), ((0, 0),)),
     "at_p: order 1 after 2, orders must be strictly ascending"),
    ("table_zero_mult_q", lambda: VanishingTable(((0, 1),), ((1, 1), (2, 0))),
     "at_q: order 2 has multiplicity 0, multiplicities must be positive"),
    ("skeleton_bundles", lambda: LimitSeriesSkeleton(**_skeleton_parts(bundles=())), "bundles: 0 entries for g = 3"),
    ("skeleton_tables", lambda: LimitSeriesSkeleton(**_skeleton_parts(tables=())), "tables: 0 entries for g = 3"),
    ("skeleton_params_k_le_r", lambda: dataclasses.replace(construct(Params(7, 3, 16, 5)), params=Params(7, 3, 16, 3)),
     "params: k <= r regime not covered (k=3, r=3)"),
    ("skeleton_params_hypothesis", lambda: LimitSeriesSkeleton(**_skeleton_parts(params=Params(3, 1, 3, 2))),
     "params: (**) fails: g - k1*(g-d1+k1-1) = 3 - 2*1 = 1 < 2"),
    ("skeleton_params_before_count", lambda: LimitSeriesSkeleton(**_skeleton_parts(params=Params(8, 3, 16, 5))),
     "params: (***) fails: g - (k1+1)*(g-d1+k1) = 8 - 2*4 = 0 < 1"),
    ("params_g_type", lambda: Params(2.0, 0, -1, 0), "g must be an integer, got 2.0"),
    ("params_r_bool", lambda: Params(2, True, 0, 1), "r must be an integer, got True"),
    ("params_d_str", lambda: Params(2, 1, "0", 1), "d must be an integer, got '0'"),
    ("params_k_none", lambda: Params(2, 1, 0, None), "k must be an integer, got None"),
    ("params_genus", lambda: Params(1, 0, -1, 0), "genus must be >= 2, got g=1"),
    ("params_rank", lambda: Params(2, 0, -1, 0), "rank must be >= 1, got r=0"),
    ("params_degree", lambda: Params(2, 1, -1, 0), "degree must be >= 0, got d=-1"),
    ("params_sections", lambda: Params(2, 1, 0, 0), "section count must be >= 1, got k=0"),
]


@pytest.mark.parametrize("build, message", [pytest.param(b, m, id=i) for i, b, m in _INVALID])
def test_validation_messages(build, message):
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == message


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


def _load_error(doc) -> str:
    with pytest.raises(ParameterError) as info:
        skeleton_from_json_dict(doc)
    return str(info.value)


# Every integer the loader reads from a table run or a summand of `7 3 16 5`:
# (path into the document, field the message names). Component 1's P side
# has two runs and its Q side three; component 2's summands are a twisted
# line and then generic lines.
_LOADED_INTS = [
    (("tables", 0, "at_p", 0, 0), "tables[0].at_p"),
    (("tables", 0, "at_p", 0, 1), "tables[0].at_p"),
    (("tables", 0, "at_p", 1, 0), "tables[0].at_p"),
    (("tables", 0, "at_q", 0, 0), "tables[0].at_q"),
    (("tables", 0, "at_q", 0, 1), "tables[0].at_q"),
    (("tables", 0, "at_q", 2, 1), "tables[0].at_q"),
    (("bundles", 1, "summands", 0, "mult"), "bundles[1].summands"),
    (("bundles", 1, "summands", 0, "a"), "bundles[1].summands"),
    (("bundles", 1, "summands", 1, "mult"), "bundles[1].summands"),
]


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_loader_requires_exact_int_table_entries(bad):
    for path, name in _LOADED_INTS:
        doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = bad
        assert _load_error(doc) == f"{name}: expected an integer, got {bad!r}", path
    # Two bad values in one run or one summand: the order, then the
    # multiplicity; `mult`, then `a`.
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    doc["tables"][0]["at_q"][1] = [bad, 2.0]
    assert _load_error(doc) == f"tables[0].at_q: expected an integer, got {bad!r}"
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    doc["bundles"][2]["summands"][0].update(mult=bad, a=2.0)
    assert _load_error(doc) == f"bundles[2].summands: expected an integer, got {bad!r}"
    # A bundle's degree is read before its summands.
    doc["bundles"][2]["degree"] = 15.0
    assert _load_error(doc) == "bundles[2].degree: expected an integer, got 15.0"


@pytest.mark.parametrize(
    "path, value, entry, message",
    [
        (("b",), 5.0, "", "b: expected an integer, got 5.0"),
        (("tables", 0, "at_q", 0, 1), True, "tables[0].", "at_q: expected an integer, got True"),
        (("bundles", 0, "degree"), 16.0, "bundles[0].", "degree: expected an integer, got 16.0"),
    ],
)
def test_built_records_reject_non_integers(path, value, entry, message):
    # The edit, made to the skeleton, raises at build what the loader raises
    # on the same edit to its dump, less the entry the loader names.
    s = construct(Params(7, 3, 16, 5))
    assert s.tables[0].at_q[0] == (3, 1)
    with pytest.raises(ParameterError) as info:
        _rebuilt(s, path, value)
    assert str(info.value) == message
    doc = skeleton_to_json_dict(s)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert _load_error(doc) == entry + message


def test_pairings_reject_a_float_order():
    for pairing in (lambda l, r: exists_feasible_pairing(l, r, 2, {}), lambda l, r: min_sum_pairing_exists(l, r, 1)):
        with pytest.raises(ParameterError) as info:
            pairing(((0, 1), (1.0, 1)), ((0, 2),))
        assert str(info.value) == "left: expected an integer, got 1.0"


def test_records_accept_int_subclasses_other_than_bool():
    count = type("Count", (int,), {})
    s = construct(Params(7, 3, 16, 5))
    assert dataclasses.replace(s, b=count(s.b)) == s
    subclassed = ComponentBundle("mixed", count(15), summands=((count(2), count(1)), (count(1), None)))
    assert subclassed == ComponentBundle("mixed", 15, summands=((2, 1), (1, None)))
    assert VanishingTable(((count(0), count(1)),), ((0, 1),)) == VanishingTable(((0, 1),), ((0, 1),))


def _records(obj, path=()):
    """(path, record) of a skeleton and of each record it holds, its params
    included; a path names a field or a tuple index."""
    yield path, obj
    for name, value in _init_fields(obj).items():
        if dataclasses.is_dataclass(value):
            yield from _records(value, path + (name,))
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                if dataclasses.is_dataclass(item):
                    yield from _records(item, path + (name, i))


# An int, or a value that an int field must reject.
_INTS = st.integers(-3, 40) | st.sampled_from([1.0, -2.5, float("nan"), True, False, "1", ""])


def _replacements(record, name):
    """New values for a record's field: values it holds and values it must
    reject. A field that holds a record is replaced through its fields."""
    value = getattr(record, name)
    ints = (st.integers(value - 3, value + 3) | _INTS) if type(value) is int else _INTS
    if name == "kind":
        return st.sampled_from(["first_special", "mixed", "line"])
    if name in ("blocks", "block_rank", "block_degree"):
        return st.none() | ints
    if name == "summands":  # (mult, twist) pairs, each field as an int field is drawn
        pair = st.tuples(st.integers(-2, 4) | _INTS, st.none() | st.integers(-1, 8) | _INTS)
        return st.lists(pair, max_size=3).map(tuple)
    if name in ("at_p", "at_q"):
        runs = st.dictionaries(st.integers(-1, 8), st.integers(0, 3), max_size=3)
        return runs.map(lambda side: tuple(sorted(side.items())))
    if name in ("bundles", "tables"):
        return (st.permutations(value) | st.lists(st.sampled_from(value), max_size=len(value) + 1)).map(tuple)
    return ints  # params' g, r, d and k, the skeleton's b, a bundle's degree


def _rebuilt(obj, path, value):
    """`obj` with the leaf at `path` set to `value`, each record on the way
    rebuilt by its own __init__, the innermost first."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, tuple):
        return obj[:head] + (_rebuilt(obj[head], rest, value),) + obj[head + 1:]
    return dataclasses.replace(obj, **{head: _rebuilt(getattr(obj, head), rest, value)})


@settings(max_examples=300)
@given(dump=st.sampled_from(DUMPS), data=st.data())
def test_a_built_skeleton_raises_or_reloads(dump, data):
    # Any field of any record (a record type drawn first, then one record of
    # it), a table run's order or multiplicity included: the edited skeleton
    # either raises when built or reloads equal, and its analysis returns a
    # status.
    s = construct(Params(*dump))
    by_type = {}
    for path, record in _records(s):
        by_type.setdefault(type(record), []).append((path, record))
    path, record = data.draw(st.sampled_from(list(by_type.values())).flatmap(st.sampled_from))
    name = data.draw(st.sampled_from([n for n, v in _init_fields(record).items() if not dataclasses.is_dataclass(v)]))
    if name in ("at_p", "at_q") and data.draw(st.booleans()):
        side = getattr(record, name)
        field, value = (name, data.draw(st.integers(0, len(side) - 1)), data.draw(st.integers(0, 1))), data.draw(_INTS)
    else:
        field, value = (name,), data.draw(_replacements(record, name))
    try:
        edited = _rebuilt(s, path + field, value)
    except ParameterError:
        return
    leaves = [x for pair in value for x in pair] if name == "summands" else [value]
    assert all(type(x) in (int, tuple, type(None)) for x in leaves) or name == "kind", (path + field, value)
    assert skeleton_from_json_dict(json.loads(skeleton_to_canonical_json(edited))) == edited
    assert analyze_skeleton(edited, oracle=True).status in ("pass", "verify_fail", "audit_fail")


@pytest.mark.parametrize(
    "side, entry, message",
    [
        ("at_p", 5, "malformed skeleton document: cannot unpack non-iterable int object"),
        ("at_p", [1], "malformed skeleton document: not enough values to unpack (expected 2, got 1)"),
        ("at_q", [1, 2, 3], "malformed skeleton document: too many values to unpack (expected 2)"),
        ("at_q", "ab", "tables[0].at_q: expected an integer, got 'a'"),
        ("at_p", {}, "malformed skeleton document: not enough values to unpack (expected 2, got 0)"),
    ],
)
def test_loader_rejects_a_table_run_that_is_not_a_pair(side, entry, message):
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    doc["tables"][0][side][1] = entry
    assert _load_error(doc) == message


@pytest.mark.parametrize(
    "entry, message",
    [
        (5, "malformed skeleton document: 'int' object is not subscriptable"),
        ([1, 2], "malformed skeleton document: list indices must be integers or slices, not str"),
        (None, "malformed skeleton document: 'NoneType' object is not subscriptable"),
        ({"kind": "twisted", "a": 1}, "malformed skeleton document: 'mult'"),
    ],
)
def test_loader_rejects_a_summand_that_is_not_an_object(entry, message):
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    doc["bundles"][1]["summands"][1] = entry
    assert _load_error(doc) == message


def _zero_first_mult(bundle):
    bundle["summands"][0]["mult"] = 0


def _insert_descending(bundle):
    bundle["summands"].insert(0, {"kind": "twisted", "mult": 1, "a": 5})
    bundle["summands"][1]["mult"] = 0


@pytest.mark.parametrize(
    "entry, edit",
    [
        # A bad entry, before a later entry's missing "mult".
        (1, lambda b: (_zero_first_mult(b), b["summands"].append({"kind": "twisted", "a": 4}))),
        # A first_special bundle's bad summand, before "has no summands".
        (0, lambda b: b.update(summands=[{"kind": "twisted", "mult": 0, "a": 1}])),
        # An unknown kind's bad summand, before "unknown bundle kind".
        (1, lambda b: (_zero_first_mult(b), b.update(kind="line"))),
        # Every entry's fault, before a spelling fault (here descending twists).
        (1, _insert_descending),
    ],
    ids=["before_missing_mult", "before_first_special", "before_unknown_kind", "before_spelling"],
)
def test_loader_reports_a_bad_summand_first(entry, edit):
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    edit(doc["bundles"][entry])
    assert _load_error(doc) == f"bundles[{entry}].summands: multiplicity 0, a summand needs at least one copy"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("at_p", 5, "malformed skeleton document: 'int' object is not iterable"),
        ("at_q", {}, "tables[0].at_q: empty table side"),
        ("summands", 5, "malformed skeleton document: 'int' object is not iterable"),
    ],
)
def test_loader_rejects_a_side_or_summand_list_that_is_not_a_list(key, value, message):
    doc = skeleton_to_json_dict(construct(Params(7, 3, 16, 5)))
    (doc["bundles"][1] if key == "summands" else doc["tables"][0])[key] = value
    assert _load_error(doc) == message


def test_loader_rejects_non_object_document():
    with pytest.raises(ParameterError):
        skeleton_from_json_dict([skeleton_to_json_dict(construct(Params(2, 2, 6, 3)))])
