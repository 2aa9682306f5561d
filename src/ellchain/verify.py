"""Certification of a skeleton against every machine-checkable rule.

Checks performed:

* degree balance: sum(D_i) - r(g-1)b = d, exactly.
* node pairing: at every node there is a multiplicity-respecting bijection
  between the Q-orders and the next component's P-orders with all pair sums
  >= b. Such a bijection needs the two sides to total the same; the greedy
  pairing (Q descending against P ascending) then maximizes the minimum
  pair sum, so it decides the rest. Whether all sums equal b exactly (the
  constructions achieve this) is reported separately. `node_verdicts`
  applies the rule to any consecutive tables, a two-table slice included.
* component feasibility: the bundle must have rank r and a legal shape
  (`bundle_shape`: a first_special bundle sits on component 1 and its
  blocks are stable indecomposables with blocks*block_degree = degree and
  gcd(block_rank, block_degree) = 1, Atiyah 1957; a mixed bundle, a sum
  of degree-d1 lines, has degree rank*d1; every twist lies in [0, d1]),
  the P and Q sides must total the same (else no pairing exists), and the
  pairing induced on each component by sorting P-orders ascending against
  Q-orders descending must respect the section rules on an elliptic
  component: pair sums at most d1, and pairs summing to exactly d1 only
  within the exceptional capacity (the matching twisted summands for a
  mixed bundle, d2 per order for the special first bundle).
  `component_preconditions` states the rules no pairing can change and
  `exceptional_capacity` the capacity; the oracle reads both rather than
  restating them.
* boundary minimality: the P-table of the first component and the Q-table of
  the last equal the minimal table {0..k1-1: r, k1: k2}.
* multiplicity bounds: every order lies in [0, d1] with multiplicity <= r and
  each point's multiplicities total k (a VanishingTable already holds only
  positive multiplicities). Only this check states "multiplicity <= r",
  which its passing witness names as `max_multiplicity`.

The rules read the summaries a table, a bundle and the params carry (side
totals, largest multiplicity, rank, lowest and highest twist, d1, d2, k1
and k2), computed once when each was built, and never re-sum them.
A table's runs are looped over only where a summary shows a bound may be
broken, to name the offenders; since a side's orders ascend, its first and
last runs bound its orders.

Both pairings are read off the (order, multiplicity) runs a VanishingTable
stores, never off per-section lists, by one two-pointer walk, `merge_runs`,
that reads one side's runs upward and the other's from the top, so a check
costs O(distinct orders), not O(k). One walk returns the lowest and highest
pair sums and the (x, y, count) stretches at or above a floor: a node asks
for those above b (none on an exact node), a component for those at or
above d1 (its saturated groups and offenders), and a node witness for all.

Why the anti-sorted pairing decides both rules (an exchange argument). Call
two pairs (x, y), (x', y') concordant when x < x' and y < y'; the anti-sorted
pairing is, up to ties, the only one with no concordant pair, and swapping
partners of a concordant pair, to (x, y') and (x', y), removes it. At a node
the swap cannot lower the minimum: both new sums are >= x + y, the smaller
old sum (the rearrangement inequality). On a component the swap keeps every
rule: both new sums are < x' + y' <= d1, so no sum exceeds d1, and no new
sum equals d1, so no order's exceptional count grows. Swapping until no
concordant pair is left ends, since each swap lowers the sum of the
products x*y by (x' - x)(y' - y) > 0, at the anti-sorted pairing, so the
anti-sorted pairing is valid whenever any pairing is.

The genericity condition (sections determined by their nodal values) is not
machine-checkable in this model and is carried as an assumption with its own
status, so an overall pass reads "pass modulo genericity assumptions".

Witnesses are built only when read: every check keeps what its witness
needs and writes its canonical JSON text on the first read
(`CheckEntry(status, build)`), so a sweep, which reads statuses only, pays
for none. The report maps each check's name to its entry, in report order,
and stores `all_nodes_exact`, so the flag builds no witness. The regular
parts are written as text from their runs, with no tree for the encoder to
walk: the report, each node (its sides merged, each stretch's pair and sum
formatted once and repeated over its count), each component's exceptional
triples and the boundary's run lists. The irregular dicts (violations,
offenders, the degree-balance, passing multiplicity and genericity
witnesses) go through `canonical_dumps`. Every `to_json_dict` and
`witness` parses that text, so there is no second writer.

The skeleton and its parts are frozen, because the summaries the rules read
are right only while the fields they come from cannot change. The verdicts
and the report are result records, built once per call and handed to the
caller, so they are plain slotted dataclasses, as CheckEntry is a plain
slotted class. `verify` walks each node and component once, in one loop,
and keeps a verdict, by index, only for an instance that needs one: a
plain node (exact, with equal totals) or component (no violation and no
stretch at or above d1), nearly every one in a sweep, keeps none, and the
witness writes it from the tables and its index when read. Each verdict
is built positionally from its one walk, and a component whose walk
returns no stretch at or above d1 reads no capacity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Any, Callable, Sequence

from .skeleton import (
    ComponentBundle,
    LimitSeriesSkeleton,
    VanishingTable,
    canonical_dumps,
    degree_balance,
    minimal_boundary_table,
)

Runs = Sequence[tuple[int, int]]
Stretch = tuple[int, int, int]
_GENERICITY_WITNESS = partial(str, canonical_dumps(
    {"note": "sections determined by nodal values: genericity assumption, not verified"}))  # formatted once
_TRUTH = ("false", "true")  # a JSON boolean, indexed by a bool


def _runs_json(runs: Runs) -> str:
    """The JSON text of (order, multiplicity) runs."""
    return "[" + ",".join([f"[{order},{mult}]" for order, mult in runs]) + "]"


def merge_runs(up: Runs, down: Runs, floor: int) -> tuple[int, int, list[Stretch]]:
    """One walk of the anti-sorted pairing of two run tables: its lowest
    and highest pair sums, and its (x, y, count) stretches whose sum x + y
    is at least `floor`.

    `up`'s orders are read ascending and `down`'s from the top, so x rises
    and y falls from one stretch to the next. Both sides must be non-empty,
    with strictly ascending distinct orders and positive multiplicities (the
    VanishingTable invariant). Unequal totals stop the pairing at the
    shorter side, as `zip` over the expanded lists would.
    """
    out: list[Stretch] = []
    i, j = 0, len(down) - 1
    x, mx = up[0]
    y, my = down[j]
    lowest = highest = x + y
    while True:
        total = x + y
        if total < lowest:
            lowest = total
        elif total > highest:
            highest = total
        if total >= floor:
            out.append((x, y, mx if mx < my else my))
        if mx <= my:
            my -= mx
            i += 1
            if i == len(up):
                return lowest, highest, out
            x, mx = up[i]
        else:
            mx -= my
            my = 0
        if not my:
            j -= 1
            if j < 0:
                return lowest, highest, out
            y, my = down[j]


@dataclass(slots=True)
class NodeVerdict:
    node: int
    at_p: Runs  # the next component's P side
    at_q: Runs
    min_sum: int
    satisfiable: bool
    exact: bool

    def to_canonical_json(self) -> str:
        """The node's record, with one [Q-order, P-order] pair and one sum
        per section, P ascending: the sides are merged on every call, and
        each stretch's pair and sum are formatted once and repeated."""
        pairs = sums = ""
        for p, q, count in merge_runs(self.at_p, self.at_q, self.min_sum)[2]:
            pairs += f"[{q},{p}]," * count
            sums += f"{q + p}," * count
        # "oracle_used" is always false since the run merge alone decides a
        # node. Report schema 1 keeps the key: REPORT_SHA256 and
        # bench/digests.json pin the report bytes, and bench/spans.py reads it.
        return (f'{{"exact":{_TRUTH[self.exact]},"min_sum":{self.min_sum},"node":{self.node},'
                f'"oracle_used":false,"pairs":[{pairs[:-1]}],"satisfiable":{_TRUTH[self.satisfiable]},'
                f'"sums":[{sums[:-1]}]}}')

    def to_json_dict(self) -> dict[str, Any]:
        return json.loads(self.to_canonical_json())


def node_verdicts(tables: Sequence[VanishingTable], b: int) -> tuple[NodeVerdict, ...]:
    """Verdicts of the nodes between consecutive tables, numbered from 1. A
    node is satisfiable iff its Q side and the next P side total the same
    (else no bijection exists) and the greedy pairing's minimum sum is at
    least b. With unequal totals the pairing stops at the shorter side."""
    above = b + 1  # only a cost bound: the walk's stretches are discarded, and an exact node has none
    return tuple(_node_verdict(node, q, p, b, *merge_runs(p.at_p, q.at_q, above)[:2])
                 for node, (q, p) in enumerate(zip(tables, tables[1:]), 1))


def _node_verdict(node: int, q: VanishingTable, p: VanishingTable, b: int, lowest: int, highest: int) -> NodeVerdict:
    """The node joining `q`'s Q side to `p`'s P side, from its walk's extreme pair sums."""
    return NodeVerdict(node, p.at_p, q.at_q, lowest, lowest >= b and q.total_q == p.total_p, lowest == highest == b)


@dataclass(slots=True)
class ComponentVerdict:
    component: int
    ok: bool
    violations: tuple[dict[str, Any], ...]
    exceptional: tuple[tuple[int, int, int], ...]  # (P-order, pairs, capacity)

    def to_canonical_json(self) -> str:
        exceptional = ",".join([f"[{order},{pairs},{capacity}]" for order, pairs, capacity in self.exceptional])
        # Most components have no violation: "[]" spares an encoder call each.
        violations = canonical_dumps(self.violations) if self.violations else "[]"
        return (f'{{"component":{self.component},"exceptional":[{exceptional}],"ok":{_TRUTH[self.ok]},'
                f'"violations":{violations}}}')

    def to_json_dict(self) -> dict[str, Any]:
        return json.loads(self.to_canonical_json())


def component_preconditions(
    component: int, bundle: ComponentBundle, table: VanishingTable, *, d1: int, r: int
) -> list[dict[str, Any]]:
    """The rules on component `component` that no pairing can change, one
    violation per broken condition, naming the field and the bound:
    `bundle_rank` (the bundle has rank r), `bundle_shape` (a first_special
    bundle sits on component 1, and its blocks total its degree with
    coprime rank and degree; a mixed bundle, a sum of degree-d1 lines, has
    degree rank*d1; every twist lies in [0, d1]) and `side_totals` (the
    two sides total the same, else no pairing exists). O(1) on the stored
    summaries. A multiplicity above r is `check_multiplicity_bounds`'s."""
    violations: list[dict[str, Any]] = []
    if bundle.rank != r:
        violations.append({"rule": "bundle_rank", "rank": bundle.rank, "expected": r})
    if bundle.kind == "first_special":
        degree = bundle.blocks * bundle.block_degree  # type: ignore[operator]
        if degree != bundle.degree:
            violations.append(
                {"rule": "bundle_shape", "field": "block_degree", "degree": degree, "expected": bundle.degree}
            )
        common = gcd(bundle.block_rank, bundle.block_degree)  # type: ignore[arg-type]
        if common != 1:
            violations.append({"rule": "bundle_shape", "field": "block_degree", "gcd": common, "expected": 1})
        if component != 1:
            violations.append({"rule": "bundle_shape", "field": "kind", "component": component, "expected": 1})
    elif bundle.degree != bundle.rank * d1:
        expected = bundle.rank * d1
        violations.append({"rule": "bundle_shape", "field": "degree", "degree": bundle.degree, "expected": expected})
    lo, hi = bundle.min_twist, bundle.max_twist
    if lo is not None and (lo < 0 or hi > d1):  # type: ignore[operator]
        violations.append(
            {"rule": "bundle_shape", "field": "twist", "lowest": lo, "highest": hi, "min": 0, "max": d1}
        )
    if table.total_p != table.total_q:
        violations.append({"rule": "side_totals", "total_p": table.total_p, "total_q": table.total_q})
    return violations


def exceptional_capacity(bundle: ComponentBundle, order: int, *, d2: int) -> int:
    """How many pairs summing to exactly d1 may start at P-order `order`:
    d2 for the special first bundle, whatever the order, and the copies of
    O(order*P + (d1-order)*Q) among a mixed bundle's summands."""
    return d2 if bundle.kind == "first_special" else bundle.twist_multiplicity(order)


def check_component_feasibility(
    component: int, bundle: ComponentBundle, table: VanishingTable, *, d1: int, d2: int, r: int
) -> ComponentVerdict:
    """Check component `component`: its `component_preconditions` must hold,
    and the anti-sorted pairing (stopping at the shorter side) must keep the
    elliptic section rules. One walk collects the stretches summing to d1 or
    more: a stretch above d1 yields one violation with its count of
    sections, so the witness grows with the runs, not with k, and a stretch
    at d1 is its P-order's whole saturated group, since y changes between
    stretches of equal x."""
    violations = component_preconditions(component, bundle, table, d1=d1, r=r)
    return _component_verdict(component, bundle, violations, merge_runs(table.at_p, table.at_q, d1)[2], d1, d2)


def _component_verdict(component: int, bundle: ComponentBundle, violations: list[dict[str, Any]],
                       saturated: list[Stretch], d1: int, d2: int) -> ComponentVerdict:
    """The component from its precondition violations (extended) and its walk's stretches at or above d1."""
    if not saturated:
        return ComponentVerdict(component, not violations, tuple(violations), ())
    exceptional = []
    for x, y, count in saturated:
        if x + y > d1:
            violations.append({"rule": "pair_sum", "pair": [x, y], "sum": x + y, "max": d1, "count": count})
        else:
            exceptional.append((x, count, exceptional_capacity(bundle, x, d2=d2)))
    for a, pairs, capacity in exceptional:
        if pairs > capacity:
            violations.append({"rule": "exceptional_capacity", "order": a, "pairs": pairs, "capacity": capacity})
    return ComponentVerdict(component, not violations, tuple(violations), tuple(exceptional))


class CheckEntry:
    """A check's status and its witness's canonical JSON text, which
    `build`, a function of no arguments, returns on the first read of
    `witness_json`."""

    __slots__ = ("status", "_witness_json", "_build")

    def __init__(self, status: str, build: Callable[[], str]) -> None:
        self.status = status  # "pass" | "fail" | "assumed"
        self._witness_json = ""
        self._build: Callable[[], str] | None = build

    @property
    def witness_json(self) -> str:
        if self._build is not None:
            self._witness_json, self._build = self._build(), None
        return self._witness_json

    @property
    def witness(self) -> Any:
        """The witness text parsed, afresh on every read."""
        return json.loads(self.witness_json)


@dataclass(slots=True)
class VerificationReport:
    checks: dict[str, CheckEntry]  # by check name, in report order
    all_nodes_exact: bool  # every node pairs its sections to sums of exactly b

    def entry(self, name: str) -> CheckEntry:
        return self.checks[name]

    @property
    def overall(self) -> bool:
        return all(entry.status != "fail" for entry in self.checks.values())

    def to_canonical_json(self) -> str:
        checks = ",".join([f'"{name}":{{"status":"{entry.status}","witness":{entry.witness_json}}}'
                           for name, entry in sorted(self.checks.items())])
        return f'{{"checks":{{{checks}}},"overall":"{"pass" if self.overall else "fail"}"}}'

    def to_json_dict(self) -> dict[str, Any]:
        return json.loads(self.to_canonical_json())


def check_boundary(s: LimitSeriesSkeleton) -> CheckEntry:
    """Both boundary sides must equal the minimal table. A side of another run
    count fails before the table is built; the witness builds it when read."""
    r, k1, k2 = s.params.r, s.params.k1, s.params.k2
    first_p, last_q = s.tables[0].at_p, s.tables[-1].at_q
    runs = k1 + (1 if k2 else 0)
    ok = len(first_p) == len(last_q) == runs and first_p == last_q == minimal_boundary_table(r, k1, k2)
    return CheckEntry("pass" if ok else "fail", partial(_boundary_witness, r, k1, k2, first_p, last_q))


def _boundary_witness(r: int, k1: int, k2: int, first_p: Runs, last_q: Runs) -> str:
    expected = minimal_boundary_table(r, k1, k2)
    sides = f'"expected":{_runs_json(expected)},"first_p":{_runs_json(first_p)},"last_q":{_runs_json(last_q)}'
    if first_p == expected and last_q == expected:
        return f"{{{sides}}}"
    want = dict(expected)
    offenders = []
    for label, side in (("P1", first_p), ("Qg", last_q)):
        got = dict(side)
        for order in sorted(set(got) | set(want)):
            if got.get(order) != want.get(order):
                offenders.append({"point": label, "order": order, "got": got.get(order, 0), "expected": want.get(order, 0)})
    return f'{{{sides},"offenders":{canonical_dumps(offenders)}}}'


def check_multiplicity_bounds(s: LimitSeriesSkeleton) -> CheckEntry:
    r, k, d1 = s.params.r, s.params.k, s.params.d1
    offenders = []
    for i, t in enumerate(s.tables, 1):
        at_p, at_q = t.at_p, t.at_q
        # Orders ascend, so the first and last runs bound each side's orders;
        # with every summary in range no run can offend.
        if (
            t.total_p == k and t.total_q == k and t.max_mult <= r
            and at_p[0][0] >= 0 and at_p[-1][0] <= d1 and at_q[0][0] >= 0 and at_q[-1][0] <= d1
        ):
            continue
        for point, side, total in (("P", at_p, t.total_p), ("Q", at_q, t.total_q)):
            if total != k:
                offenders.append({"component": i, "point": point, "total": total, "expected": k})
            for order, mult in side:
                if mult > r or not 0 <= order <= d1:
                    offenders.append({"component": i, "point": point, "order": order, "mult": mult})
    if offenders:
        return CheckEntry("fail", partial(canonical_dumps, {"offenders": offenders}))
    return CheckEntry("pass", partial(canonical_dumps, {"components": len(s.tables), "max_multiplicity": r}))


def _node_witness(tables: Sequence[VanishingTable], b: int, nodes: dict[int, NodeVerdict], all_exact: bool) -> str:
    text = ",".join([(nodes.get(n) or _node_verdict(n, q_table, p_table, b, b, b)).to_canonical_json()
                     for n, (q_table, p_table) in enumerate(zip(tables, tables[1:]), 1)])
    return f'{{"all_exact":{_TRUTH[all_exact]},"nodes":[{text}]}}'


def _component_witness(count: int, comps: dict[int, ComponentVerdict]) -> str:
    plain = '{{"component":{},"exceptional":[],"ok":true,"violations":[]}}'.format
    text = ",".join([comps[i].to_canonical_json() if i in comps else plain(i) for i in range(1, count + 1)])
    return f'{{"components":[{text}]}}'


def verify(s: LimitSeriesSkeleton) -> VerificationReport:
    """Run every check and aggregate the verdicts into one report, keeping
    the verdicts of the nodes and components that are not plain."""
    d1, d2, r, b, tables = s.params.d1, s.params.d2, s.params.r, s.b, s.tables
    nodes: dict[int, NodeVerdict] = {}
    comps: dict[int, ComponentVerdict] = {}
    for i, (bundle, table, q_table) in enumerate(zip(s.bundles, tables, (None, *tables)), 1):
        if q_table is not None:  # node i - 1 joins Q_{i-1} to P_i; b + 1 only bounds the walk's cost
            lowest, highest, _ = merge_runs(table.at_p, q_table.at_q, b + 1)
            if lowest != b or highest != b or q_table.total_q != table.total_p:
                nodes[i - 1] = _node_verdict(i - 1, q_table, table, b, lowest, highest)
        violations = component_preconditions(i, bundle, table, d1=d1, r=r)
        saturated = merge_runs(table.at_p, table.at_q, d1)[2]
        if violations or saturated:
            comps[i] = _component_verdict(i, bundle, violations, saturated, d1, d2)
    residual = degree_balance(s)
    all_exact = all(n.exact for n in nodes.values())
    checks = {
        "degree_balance": CheckEntry("pass" if residual == 0 else "fail",
                                     partial(canonical_dumps, {"residual": residual, "b": b})),
        "node_pairing": CheckEntry("pass" if all(n.satisfiable for n in nodes.values()) else "fail",
                                   partial(_node_witness, tables, b, nodes, all_exact)),
        "component_feasibility": CheckEntry("pass" if all(c.ok for c in comps.values()) else "fail",
                                            partial(_component_witness, len(tables), comps)),
        "boundary_minimality": check_boundary(s),
        "multiplicity_bounds": check_multiplicity_bounds(s),
        "genericity": CheckEntry("assumed", _GENERICITY_WITNESS),
    }
    return VerificationReport(checks, all_exact)
