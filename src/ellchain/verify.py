"""Certification of a skeleton against every machine-checkable rule.

Checks performed:

* degree balance: sum(D_i) - r(g-1)b = d, exactly.
* node pairing: at every node there is a multiplicity-respecting bijection
  between the Q-orders and the next component's P-orders with all pair sums
  >= b. The greedy pairing (Q descending against P ascending) maximizes the
  minimum pair sum, so it decides this; on greedy failure the exhaustive
  oracle is consulted before declaring a fail. Whether all sums equal b
  exactly (the constructions achieve this) is reported separately.
* component feasibility: the pairing induced on each component by sorting
  P-orders ascending against Q-orders descending must respect the section
  rules on an elliptic component: per-order multiplicity at most r, pair
  sums at most d1, and pairs summing to exactly d1 only within the
  exceptional capacity (the matching twisted summands for a mixed bundle,
  d2 per order for the special first bundle).
* boundary minimality: the P-table of the first component and the Q-table of
  the last equal the minimal table {0..k1-1: r, k1: k2}.
* multiplicity bounds: every order lies in [0, d1] with multiplicity <= r and
  each point's multiplicities total k.

The genericity condition (sections determined by their nodal values) is not
machine-checkable in this model and is carried as an assumption with its own
status, so an overall pass reads "pass modulo genericity assumptions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import PairingNotGiven
from .oracle import min_sum_pairing_exists
from .skeleton import (
    ComponentBundle,
    LimitSeriesSkeleton,
    VanishingTable,
    canonical_dumps,
    degree_balance,
    expand_ascending,
    expand_descending,
    minimal_boundary_table,
)


def slope_ok(kprime: int, rprime: int, k: int, r: int) -> bool:
    """True iff k'/r' <= k/r, computed as k'*r <= k*r' on exact integers."""
    if rprime < 1 or r < 1:
        raise ValueError("ranks must be >= 1")
    return kprime * r <= k * rprime


def node_min_sum_greedy(at_q: Mapping[int, int], at_p_next: Mapping[int, int]) -> int:
    """Minimum pair sum of the greedy pairing (Q descending vs P ascending).

    Sorting one side up and the other down maximizes the minimum sum over
    all bijections, so this value decides satisfiability of the node rule.
    """
    pairs = zip(expand_descending(at_q), expand_ascending(at_p_next))
    return min(q + p for q, p in pairs)


def induced_pairs(table: VanishingTable) -> list[tuple[int, int]]:
    """Component pairing: P-orders ascending against Q-orders descending."""
    return list(zip(expand_ascending(table.at_p), expand_descending(table.at_q)))


@dataclass(frozen=True)
class NodeVerdict:
    node: int
    pairs: tuple[tuple[int, int], ...]
    min_sum: int
    satisfiable: bool
    exact: bool
    oracle_used: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "pairs": [list(p) for p in self.pairs],
            "sums": [q + p for q, p in self.pairs],
            "min_sum": self.min_sum,
            "satisfiable": self.satisfiable,
            "exact": self.exact,
            "oracle_used": self.oracle_used,
        }


def check_node_pairing(s: LimitSeriesSkeleton, oracle_bound: int = 8) -> tuple[NodeVerdict, ...]:
    """Per-node verdicts. Greedy decides; the oracle is consulted only when
    the greedy pairing fails and the instance is small enough."""
    verdicts = []
    for node in range(1, s.chain.components):
        at_q = s.table(node).q_map()
        at_p = s.table(node + 1).p_map()
        pairs = tuple(zip(expand_descending(at_q), expand_ascending(at_p)))
        sums = [q + p for q, p in pairs]
        min_sum = min(sums)
        satisfiable = min_sum >= s.b
        oracle_used = False
        if not satisfiable and s.params.k <= oracle_bound:
            satisfiable = min_sum_pairing_exists(at_q, at_p, s.b, bound=oracle_bound)
            oracle_used = True
        verdicts.append(
            NodeVerdict(
                node=node,
                pairs=pairs,
                min_sum=min_sum,
                satisfiable=satisfiable,
                exact=all(v == s.b for v in sums),
                oracle_used=oracle_used,
            )
        )
    return tuple(verdicts)


@dataclass(frozen=True)
class ComponentVerdict:
    component: int
    ok: bool
    violations: tuple[dict[str, Any], ...]
    exceptional: tuple[tuple[int, int, int], ...]  # (P-order, pairs, capacity)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "component": self.component,
            "ok": self.ok,
            "violations": list(self.violations),
            "exceptional": [list(e) for e in self.exceptional],
        }


def _exceptional_capacity(bundle: ComponentBundle, a: int, d2: int) -> int:
    if bundle.kind == "first_special":
        return d2
    return bundle.twist_multiplicity(a)


def check_component_feasibility(
    bundle: ComponentBundle,
    table: VanishingTable,
    pairs: Sequence[tuple[int, int]] | None,
    *,
    d1: int,
    d2: int,
    r: int,
) -> ComponentVerdict:
    """Check one component's pairing against the elliptic section rules.

    `pairs` must be a multiplicity-respecting pairing of the P-orders with
    the Q-orders; pass `pairs=None` to get PairingNotGiven (callers either
    supply the induced pairing or ask the oracle instead).
    """
    if pairs is None:
        raise PairingNotGiven(
            f"component {table.component}: no pairing supplied; "
            "use induced_pairs() or the matching oracle"
        )
    violations: list[dict[str, Any]] = []
    for point, side in (("P", table.at_p), ("Q", table.at_q)):
        for order, mult in side:
            if mult > r:
                violations.append(
                    {"rule": "order_multiplicity", "point": point, "order": order, "mult": mult, "max": r}
                )
    top_groups: dict[int, int] = {}
    for x, y in pairs:
        total = x + y
        if total > d1:
            violations.append({"rule": "pair_sum", "pair": [x, y], "sum": total, "max": d1})
        elif total == d1:
            top_groups[x] = top_groups.get(x, 0) + 1
    exceptional = []
    for a in sorted(top_groups):
        capacity = _exceptional_capacity(bundle, a, d2)
        exceptional.append((a, top_groups[a], capacity))
        if top_groups[a] > capacity:
            violations.append(
                {"rule": "exceptional_capacity", "order": a, "pairs": top_groups[a], "capacity": capacity}
            )
    return ComponentVerdict(
        component=table.component,
        ok=not violations,
        violations=tuple(violations),
        exceptional=tuple(exceptional),
    )


@dataclass(frozen=True)
class CheckEntry:
    status: str  # "pass" | "fail" | "assumed"
    witness: Any

    def to_json_dict(self) -> dict[str, Any]:
        return {"status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[tuple[str, CheckEntry], ...]

    def entry(self, name: str) -> CheckEntry:
        for key, value in self.checks:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def overall(self) -> bool:
        return all(entry.status != "fail" for _, entry in self.checks)

    @property
    def all_nodes_exact(self) -> bool:
        witness = self.entry("node_pairing").witness
        return bool(witness["all_exact"])

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "overall": "pass" if self.overall else "fail",
            "checks": {name: entry.to_json_dict() for name, entry in self.checks},
        }

    def to_canonical_json(self) -> str:
        return canonical_dumps(self.to_json_dict())


def check_boundary(s: LimitSeriesSkeleton) -> CheckEntry:
    dec = s.decomposition
    expected = minimal_boundary_table(s.params.r, dec.k1, dec.k2)
    first_p = s.table(1).p_map()
    last_q = s.table(s.chain.components).q_map()
    witness: dict[str, Any] = {
        "expected": sorted(expected.items()),
        "first_p": sorted(first_p.items()),
        "last_q": sorted(last_q.items()),
    }
    if first_p == expected and last_q == expected:
        return CheckEntry("pass", witness)
    offenders = []
    for label, got in (("P1", first_p), ("Qg", last_q)):
        for order in sorted(set(got) | set(expected)):
            if got.get(order) != expected.get(order):
                offenders.append({"point": label, "order": order, "got": got.get(order, 0), "expected": expected.get(order, 0)})
    witness["offenders"] = offenders
    return CheckEntry("fail", witness)


def check_multiplicity_bounds(s: LimitSeriesSkeleton) -> CheckEntry:
    r, k = s.params.r, s.params.k
    d1 = s.decomposition.d1
    offenders = []
    for t in s.tables:
        for point, side in (("P", t.at_p), ("Q", t.at_q)):
            total = sum(m for _, m in side)
            if total != k:
                offenders.append({"component": t.component, "point": point, "total": total, "expected": k})
            for order, mult in side:
                if mult > r or mult <= 0 or not 0 <= order <= d1:
                    offenders.append({"component": t.component, "point": point, "order": order, "mult": mult})
    if offenders:
        return CheckEntry("fail", {"offenders": offenders})
    return CheckEntry("pass", {"components": len(s.tables), "max_multiplicity": r})


def verify(s: LimitSeriesSkeleton, oracle_bound: int = 8) -> VerificationReport:
    """Run every check and aggregate the verdicts into one report."""
    dec = s.decomposition
    checks: list[tuple[str, CheckEntry]] = []

    residual = degree_balance(s)
    checks.append(
        (
            "degree_balance",
            CheckEntry("pass" if residual == 0 else "fail", {"residual": residual, "b": s.b}),
        )
    )

    nodes = check_node_pairing(s, oracle_bound=oracle_bound)
    node_witness = {
        "nodes": [n.to_json_dict() for n in nodes],
        "all_exact": all(n.exact for n in nodes),
    }
    checks.append(
        (
            "node_pairing",
            CheckEntry("pass" if all(n.satisfiable for n in nodes) else "fail", node_witness),
        )
    )

    comps = [
        check_component_feasibility(
            s.bundle(i),
            s.table(i),
            induced_pairs(s.table(i)),
            d1=dec.d1,
            d2=dec.d2,
            r=s.params.r,
        )
        for i in range(1, s.chain.components + 1)
    ]
    checks.append(
        (
            "component_feasibility",
            CheckEntry(
                "pass" if all(c.ok for c in comps) else "fail",
                {"components": [c.to_json_dict() for c in comps]},
            ),
        )
    )

    checks.append(("boundary_minimality", check_boundary(s)))
    checks.append(("multiplicity_bounds", check_multiplicity_bounds(s)))
    checks.append(
        (
            "genericity",
            CheckEntry(
                "assumed",
                {"note": "sections determined by nodal values: genericity assumption, not verified"},
            ),
        )
    )
    return VerificationReport(checks=tuple(checks))
