"""Exhaustive mutation gates over one dump per case.

Single leaves: every leaf of each dumped document is changed, one at a
time: an integer by +-1; a bundle or summand `kind`, a gluing `tag` or the
`case` to each other legal value; a gluing `description` to each other
label the skeleton derives, or to null; a `notes` or `nodes` string by
appending one character.

Paired moves: for every ordered pair of distinct integer leaves on the same
field path, list indices read as wildcards, the first is raised by 1 and
the second lowered by 1, so every total over that field is kept.

Node-coupled moves: every unordered pair of distinct integer leaves that
both sit on the two sides of one node (`tables[n-1].at_q` and
`tables[n].at_p`), or both on one component's bundle and table, is moved by
+-1 in all four sign combinations.

Each mutated document must fail to load or get a status other than pass
from `analyze_skeleton`, the verdict `verify-file` reports. Every mutant
that loads, failing or not, must also write the report bytes of
`test_verify.report_reference`, the per-section reference, and of the
record path, one verdict per node and per component. The only
survivors are the mutations an allowlist names, each with its reason, and
every one of them must survive. Each family also pins how its mutants fail:
a tally of outcomes, each a load failure or the failing checks and audit.
Every check but multiplicity_bounds, and the audit, is the only failure of
some mutant.

Spellings: each summand list of two or more entries is reversed, and each
summand of multiplicity m >= 2 is split into two of 1 and m - 1. These
write the same bundle a second way, so every such document must fail to
load, with a message naming the bundle's summands.

Inexact integers: every integer leaf is replaced by its float twin and its
string twin, and a 0 or 1 also by its bool twin. Every such document must
fail to load with a message naming the leaf: the record that holds a
read-back integer names its entry and field, `Params` the params key, the
schema check the schema, and the write-back comparison a derived integer.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict
from itertools import combinations, product

import pytest

from test_verify import assert_report_matches_records, assert_report_matches_reference
from ellchain import Case, Params, construct, skeleton_from_json_dict, skeleton_to_json_dict
from ellchain.cli import analyze_skeleton
from ellchain.errors import ParameterError

DUMPS = ((7, 3, 30, 5), (7, 3, 16, 5), (6, 2, 9, 3), (6, 2, 10, 4))  # large_sections, small_a, small_b, small_c

RECIPE_DESCRIPTIONS = (
    "full_vanishing_block->line_block",
    "line_block->line_block",
    "max_vanishing_block->first_bundle_sections",
    "twisted_block->section_chain",
)

# (dump, leaf path, new value), "*" matching anything, a frozenset any of its
# members, and why it survives. The case, every description and every note
# are derived, so no label mutation survives.
ALLOWED = {
    ((7, 3, 30, 5), ("tables", 0, "at_q", 1, 0), 8): (
        "a crude limit series: node 1 is no longer exact, but every pair sum is still >= b "
        "and every component rule holds"
    ),
}

# (dump, leaf raised by 1, leaf lowered by 1), "*" matching anything, and why it survives.
ALLOWED_PAIRS = {
    ((7, 3, 30, 5), ("tables", 0, "at_q", 1, 1), ("tables", 0, "at_q", 0, 1)): (
        "a crude limit series: one section moves from order 6 to order 7 at Q1, node 1 is no longer "
        "exact, but every pair sum is still >= b and every component rule holds"
    ),
}


# (dump, (leaf, move), (leaf, move)) and why it survives.
ALLOWED_COUPLED = {
    ((7, 3, 30, 5), (("tables", 0, "at_q", 0, 1), -1), (("tables", 0, "at_q", 1, 1), 1)): (
        "the paired gate's crude limit series: one section moves from order 6 to order 7 at Q1"
    ),
    ((7, 3, 30, 5), (("tables", 0, "at_q", 1, 0), 1), (("tables", 1, "at_p", 0, 0), -1)): (
        "another refined limit series: order 7 at Q1 becomes 8 and its partner at P2 becomes 2, so node 1 "
        "stays exact and every component rule holds"
    ),
}


# What each family's mutants do: ("load",) for a document that fails to load,
# else the checks it fails in report order, then "audit" when the audit fails;
# () is a survivor. A move that starts or stops failing a check changes its
# family's tally.
SINGLE_LEAF_OUTCOMES = Counter({  # 1,115 mutants
    ("load",): 666,
    ("node_pairing", "component_feasibility", "multiplicity_bounds"): 166,
    ("component_feasibility",): 119,
    ("node_pairing",): 51,
    ("degree_balance", "component_feasibility"): 50,
    ("component_feasibility", "boundary_minimality", "multiplicity_bounds"): 30,
    ("boundary_minimality", "multiplicity_bounds"): 8,
    ("component_feasibility", "boundary_minimality"): 7,
    ("node_pairing", "multiplicity_bounds"): 4,
    ("component_feasibility", "audit"): 3,
    ("component_feasibility", "multiplicity_bounds"): 2,
    ("degree_balance",): 2,
    ("degree_balance", "component_feasibility", "audit"): 2,
    ("degree_balance", "node_pairing"): 2,
    (): 1,
    ("boundary_minimality",): 1,
    ("node_pairing", "audit"): 1,
})

PAIRED_OUTCOMES = Counter({  # 6,582 mutants
    ("load",): 3193,
    ("node_pairing", "component_feasibility", "multiplicity_bounds"): 1898,
    ("node_pairing", "component_feasibility", "boundary_minimality", "multiplicity_bounds"): 593,
    ("node_pairing", "component_feasibility"): 295,
    ("component_feasibility",): 241,
    ("component_feasibility", "boundary_minimality", "multiplicity_bounds"): 187,
    ("node_pairing", "component_feasibility", "boundary_minimality"): 45,
    ("node_pairing",): 26,
    ("component_feasibility", "audit"): 21,
    ("component_feasibility", "multiplicity_bounds"): 20,
    ("node_pairing", "multiplicity_bounds"): 20,
    ("node_pairing", "component_feasibility", "multiplicity_bounds", "audit"): 12,
    ("boundary_minimality", "multiplicity_bounds"): 8,
    ("node_pairing", "boundary_minimality"): 6,
    ("component_feasibility", "boundary_minimality"): 5,
    ("node_pairing", "component_feasibility", "audit"): 5,
    ("node_pairing", "component_feasibility", "boundary_minimality", "multiplicity_bounds", "audit"): 2,
    (): 1,
    ("audit",): 1,
    ("boundary_minimality",): 1,
    ("node_pairing", "audit"): 1,
    ("node_pairing", "component_feasibility", "boundary_minimality", "audit"): 1,
})

COUPLED_OUTCOMES = Counter({  # 10,196 mutants
    ("load",): 5797,
    ("node_pairing", "component_feasibility", "multiplicity_bounds"): 2069,
    ("degree_balance", "node_pairing", "component_feasibility", "multiplicity_bounds"): 332,
    ("component_feasibility",): 331,
    ("component_feasibility", "boundary_minimality", "multiplicity_bounds"): 230,
    ("degree_balance", "component_feasibility"): 227,
    ("node_pairing",): 181,
    ("node_pairing", "component_feasibility"): 166,
    ("component_feasibility", "multiplicity_bounds"): 155,
    ("node_pairing", "component_feasibility", "boundary_minimality", "multiplicity_bounds"): 151,
    ("node_pairing", "multiplicity_bounds"): 129,
    ("degree_balance", "node_pairing", "component_feasibility"): 102,
    ("degree_balance", "component_feasibility", "boundary_minimality", "multiplicity_bounds"): 66,
    ("node_pairing", "boundary_minimality", "multiplicity_bounds"): 50,
    ("component_feasibility", "boundary_minimality"): 42,
    ("node_pairing", "component_feasibility", "multiplicity_bounds", "audit"): 34,
    ("boundary_minimality", "multiplicity_bounds"): 21,
    ("component_feasibility", "audit"): 18,
    ("degree_balance", "component_feasibility", "audit"): 18,
    ("degree_balance", "component_feasibility", "boundary_minimality"): 14,
    ("node_pairing", "component_feasibility", "audit"): 12,
    ("degree_balance", "component_feasibility", "boundary_minimality", "multiplicity_bounds", "audit"): 10,
    ("degree_balance", "node_pairing", "component_feasibility", "multiplicity_bounds", "audit"): 8,
    ("node_pairing", "boundary_minimality"): 6,
    ("degree_balance", "component_feasibility", "multiplicity_bounds"): 4,
    ("node_pairing", "component_feasibility", "boundary_minimality", "multiplicity_bounds", "audit"): 4,
    ("boundary_minimality",): 3,
    ("node_pairing", "audit"): 3,
    (): 2,
    ("audit",): 2,
    ("degree_balance", "component_feasibility", "boundary_minimality", "audit"): 2,
    ("degree_balance", "node_pairing", "component_feasibility", "audit"): 2,
    ("node_pairing", "component_feasibility", "boundary_minimality"): 2,
    ("degree_balance",): 1,
    ("node_pairing", "boundary_minimality", "audit"): 1,
    ("node_pairing", "boundary_minimality", "multiplicity_bounds", "audit"): 1,
})


def _alternatives(path: tuple, value) -> list:
    """The values a leaf is mutated to."""
    if type(value) is int:
        return [value - 1, value + 1]
    if path == ("case",):
        legal: tuple = tuple(c.value for c in Case)
    elif path[-1] == "kind":
        legal = ("generic_line", "twisted") if "summands" in path else ("first_special", "mixed")
    elif path[-1] == "tag":
        legal = ("generic", "constrained")
    elif path[-1] == "description":
        legal = RECIPE_DESCRIPTIONS + (None,)
    elif path[0] in ("notes", "nodes"):
        return [value + "x"]
    else:
        raise AssertionError(f"no mutation rule for leaf {path} = {value!r}")
    assert value in legal, (path, value)
    return [v for v in legal if v != value]


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path, node


def _mutated(doc, *edits):
    """A copy of the document with each (path, value) edit applied."""
    out = copy.deepcopy(doc)
    for path, value in edits:
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return out


def _outcome(doc) -> tuple[str, ...]:
    """Why `verify-file` would exit 1 on the document: ("load",) when it
    fails to load, else the failing checks in report order, then "audit"
    when the audit fails. () means it passes."""
    try:
        skeleton = skeleton_from_json_dict(doc)
    except ParameterError:
        return ("load",)
    analysis = analyze_skeleton(skeleton)
    assert_report_matches_reference(skeleton, analysis.report)
    assert_report_matches_records(skeleton, analysis.report)
    failed = tuple(name for name, entry in analysis.report.checks.items() if entry.status == "fail")
    return failed + (() if analysis.audit.ok else ("audit",))


def _matches(pattern, mutation) -> bool:
    """Whether a mutation fits a pattern: "*" fits anything, a frozenset any
    of its members, and a tuple a tuple of as many entries that each fit."""
    if isinstance(pattern, tuple) and isinstance(mutation, tuple):
        return len(pattern) == len(mutation) and all(map(_matches, pattern, mutation))
    return pattern == "*" or pattern == mutation or (isinstance(pattern, frozenset) and mutation in pattern)


def _dumps():
    for dump in DUMPS:
        doc = skeleton_to_json_dict(construct(Params(*dump)))
        assert _outcome(doc) == (), dump
        yield dump, doc


def _assert_gate(cases, allowlist, outcomes):
    """Every (mutation, document) of `cases` fails unless an allowlist
    pattern matches the mutation, each matched mutation survives, and the
    mutants' outcomes tally to `outcomes`."""
    mutations = []
    survivors = set()
    tally = Counter()
    for mutation, doc in cases:
        mutations.append(mutation)
        outcome = _outcome(doc)
        tally[outcome] += 1
        if not outcome:
            survivors.add(mutation)
    allowed = {m for m in mutations if any(_matches(p, m) for p in allowlist)}
    assert tally == outcomes
    assert not survivors - allowed, f"unlisted survivors: {sorted(survivors - allowed, key=repr)}"
    assert not allowed - survivors, f"listed mutations that fail: {sorted(allowed - survivors, key=repr)}"
    for pattern in allowlist:
        assert any(_matches(pattern, m) for m in survivors), f"stale allowlist entry {pattern}"


def _single_leaf_mutations():
    for dump, doc in _dumps():
        for path, value in _leaves(doc):
            for new in _alternatives(path, value):
                yield (dump, path, new), _mutated(doc, (path, new))


def _paired_moves():
    for dump, doc in _dumps():
        fields = defaultdict(list)
        for path, value in _leaves(doc):
            if type(value) is int:
                fields[tuple("*" if type(key) is int else key for key in path)].append((path, value))
        for leaves in fields.values():
            for up, up_value in leaves:
                for down, down_value in leaves:
                    if up != down:
                        yield (dump, up, down), _mutated(doc, (up, up_value + 1), (down, down_value - 1))


def _node_coupled_moves():
    for dump, doc in _dumps():
        ints = [(path, value) for path, value in _leaves(doc) if type(value) is int]

        def under(*prefix):
            return [(path, value) for path, value in ints if path[:len(prefix)] == prefix]

        g = len(doc["tables"])
        groups = [under("bundles", i) + under("tables", i) for i in range(g)]
        groups += [under("tables", n - 1, "at_q") + under("tables", n, "at_p") for n in range(1, g)]
        for (a, a_value), (b, b_value) in dict.fromkeys(pair for group in groups for pair in combinations(group, 2)):
            for da, db in product((1, -1), repeat=2):
                yield (dump, (a, da), (b, db)), _mutated(doc, (a, a_value + da), (b, b_value + db))


def test_every_single_leaf_mutation_fails_unless_allowed():
    _assert_gate(_single_leaf_mutations(), ALLOWED, SINGLE_LEAF_OUTCOMES)


def test_every_paired_move_fails_unless_allowed():
    _assert_gate(_paired_moves(), ALLOWED_PAIRS, PAIRED_OUTCOMES)


def test_every_node_coupled_move_fails_unless_allowed():
    _assert_gate(_node_coupled_moves(), ALLOWED_COUPLED, COUPLED_OUTCOMES)


@pytest.mark.parametrize("check, alone", [
    ("degree_balance", True),
    ("node_pairing", True),
    ("component_feasibility", True),
    ("boundary_minimality", True),
    # Never alone: every gate mutant that fails it fails another check too.
    # test_verify.py's multiplicity_past_rank document is one that it alone
    # fails, so a multiplicity_bounds that never fails is noticed there.
    ("multiplicity_bounds", False),
    ("audit", True),
])
def test_a_check_is_the_only_failure_of_some_gate_mutant(check, alone):
    pinned = (SINGLE_LEAF_OUTCOMES, PAIRED_OUTCOMES, COUPLED_OUTCOMES)
    assert any((check,) in outcomes for outcomes in pinned) is alone


def _respelled_summand_lists():
    for dump, doc in _dumps():
        for i, bundle in enumerate(doc["bundles"]):
            summands = bundle.get("summands", [])
            path = ("bundles", i, "summands")
            if len(summands) > 1:
                yield (dump, i, "reversed"), _mutated(doc, (path, summands[::-1]))
            for j, summand in enumerate(summands):
                if summand["mult"] >= 2:
                    halves = [{**summand, "mult": 1}, {**summand, "mult": summand["mult"] - 1}]
                    yield (dump, i, f"split {j}"), _mutated(doc, (path, summands[:j] + halves + summands[j + 1:]))


def test_every_respelled_summand_list_fails_to_load():
    mutants = list(_respelled_summand_lists())
    assert len(mutants) == 27
    loaded = []
    for (dump, i, edit), doc in mutants:
        try:
            skeleton_from_json_dict(doc)
        except ParameterError as exc:
            assert str(exc).startswith(f"bundles[{i}].summands: "), exc
        else:
            loaded.append((dump, i, edit))
    assert loaded == []


def _path_text(path) -> str:
    return "".join(f"[{key}]" if type(key) is int else f".{key}" if i else key for i, key in enumerate(path))


def _inexact_message(path, value, twin) -> str:
    """The loader's message for the integer leaf `value` at `path` written as `twin`."""
    got = f"expected an integer, got {twin!r}"
    if path[0] in ("tables", "bundles") and path[2] != "component":
        field = "summands" if path[2] == "summands" else path[2]
        return f"{path[0]}[{path[1]}].{field}: {got}"
    if path == ("b",):
        return f"b: {got}"
    if path[0] == "params":
        return f"params: {path[1]} must be an integer, got {twin!r}"
    if path == ("schema",):
        return f"unsupported schema {twin!r}"
    return f"stale {_path_text(path)}: the document has {twin!r}, the skeleton gives {value!r}"


def _inexact_integers():
    for dump, doc in _dumps():
        for path, value in _leaves(doc):
            if type(value) is int:
                for twin in (float(value), str(value)) + ((bool(value),) if value in (0, 1) else ()):
                    yield (path, value, twin), _mutated(doc, (path, twin))


def test_every_inexact_integer_fails_to_load_naming_its_leaf():
    mutants = list(_inexact_integers())
    assert len(mutants) == 988
    for (path, value, twin), doc in mutants:
        try:
            skeleton_from_json_dict(doc)
        except ParameterError as exc:
            assert str(exc).startswith(_inexact_message(path, value, twin)), (path, twin, str(exc))
        else:
            raise AssertionError(f"{path} = {twin!r} loads")
