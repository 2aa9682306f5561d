"""Brute-force ground truth for pairing feasibility.

Two questions are answered exhaustively over all multiplicity-respecting
bijections between two order multisets, each given as ascending (order,
multiplicity) runs, as a VanishingTable side stores them:

* capped mode (`exists_feasible_pairing`): every pair must sum to at most
  threshold-1, except that a pair summing to exactly threshold spends one
  unit of the budget mapping at its left order. This is the rule a
  component's section space must satisfy on an elliptic component.
* minimum-sum mode (`min_sum_pairing_exists`): every pair must sum to at
  least b. This is the node condition between consecutive components.

Both return a bool and share one guard, whose messages are the notices
`cross_validate` records for an instance it skips: ValueError("sides total
A and B") and, above the fixed bound DEFAULT_BOUND, InstanceTooLarge
("instance size N exceeds oracle bound 8"). The search is memoized
backtracking over the runs: the oracle the greedy verifier is validated
against, never the production path. It states no component rule of its
own: `cross_validate` reads the pairing-independent rules and the
exceptional capacity from `verify`, so the search settles only the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InstanceTooLarge
from .skeleton import LimitSeriesSkeleton
from .verify import (
    Runs,
    check_component_feasibility,
    check_node_pairing,
    component_preconditions,
    exceptional_capacity,
)

DEFAULT_BOUND = 8  # the largest total multiplicity the oracle searches


def _unpack(left: Runs, right: Runs) -> tuple[list[int], list[int], list[int], list[int]]:
    """The orders and counts of both sides' runs, or the guard's error:
    sides that total differently (no bijection exists) or a total above
    DEFAULT_BOUND."""
    lcounts = [m for _, m in left]
    rcounts = [m for _, m in right]
    size, other = sum(lcounts), sum(rcounts)
    if size != other:
        raise ValueError(f"sides total {size} and {other}")
    if size > DEFAULT_BOUND:
        raise InstanceTooLarge(f"instance size {size} exceeds oracle bound {DEFAULT_BOUND}")
    return [o for o, _ in left], lcounts, [o for o, _ in right], rcounts


def exists_feasible_pairing(left: Runs, right: Runs, threshold: int, budget: Mapping[int, int]) -> bool:
    """Exhaustive capped-mode search: does a bijection exist whose pairs sum
    to at most threshold-1, except that a pair summing to exactly threshold
    spends one unit of budget[its left order] (0 where absent)?"""
    lorders, lcounts, rorders, rcounts = _unpack(left, right)
    budgets = [budget.get(o, 0) for o in lorders]
    failed: set[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = set()

    def rec(remaining: int) -> bool:
        if remaining == 0:
            return True
        key = (tuple(lcounts), tuple(rcounts), tuple(budgets))
        if key in failed:
            return False
        # Most constrained first: the largest remaining left order.
        li = max(i for i, c in enumerate(lcounts) if c)
        x = lorders[li]
        lcounts[li] -= 1
        # Partners ascending, as the sorted greedy pairing takes them, so
        # feasible instances resolve on the first descent.
        for ri, y in enumerate(rorders):
            if not rcounts[ri]:
                continue
            total = x + y
            if total > threshold:
                break  # rorders ascending: larger y only gets worse
            uses_budget = total == threshold
            if uses_budget:
                if budgets[li] <= 0:
                    continue
                budgets[li] -= 1
            rcounts[ri] -= 1
            if rec(remaining - 1):
                return True
            rcounts[ri] += 1
            if uses_budget:
                budgets[li] += 1
        lcounts[li] += 1
        failed.add(key)
        return False

    return rec(sum(lcounts))


def min_sum_pairing_exists(left: Runs, right: Runs, b: int) -> bool:
    """Exhaustive minimum-sum search over two ascending run tables: does a
    bijection with all sums >= b exist?"""
    lorders, lcounts, rorders, rcounts = _unpack(left, right)
    failed: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def rec(remaining: int) -> bool:
        if remaining == 0:
            return True
        key = (tuple(lcounts), tuple(rcounts))
        if key in failed:
            return False
        # Smallest remaining left order is hardest to serve.
        li = min(i for i, c in enumerate(lcounts) if c)
        x = lorders[li]
        lcounts[li] -= 1
        # Try the smallest sufficient partner first; it leaves the large
        # orders for the other hard left entries, so feasible instances
        # resolve on the first descent.
        for ri in range(len(rorders)):
            if not rcounts[ri] or x + rorders[ri] < b:
                continue
            rcounts[ri] -= 1
            if rec(remaining - 1):
                return True
            rcounts[ri] += 1
        lcounts[li] += 1
        failed.add(key)
        return False

    return rec(sum(lcounts))


@dataclass(slots=True)
class CrossCheck:
    kind: str  # "node" | "component"
    index: int
    greedy: bool
    oracle: bool

    @property
    def agree(self) -> bool:
        return self.greedy == self.oracle


@dataclass(slots=True)
class CrossValidation:
    checks: tuple[CrossCheck, ...]
    skipped: tuple[str, ...] = ()

    @property
    def disagreements(self) -> tuple[CrossCheck, ...]:
        return tuple(c for c in self.checks if not c.agree)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def cross_validate(s: LimitSeriesSkeleton) -> CrossValidation:
    """Compare the greedy verifier verdicts against the oracle on every node
    and component of a skeleton. An instance the oracle cannot take, beyond
    DEFAULT_BOUND (all of them when k is) or with sides that total
    differently (no bijection exists, and `verify` already fails it), is
    skipped with the search's own message as its notice, not failed."""
    if s.params.k > DEFAULT_BOUND:
        return CrossValidation(checks=(), skipped=(f"k={s.params.k} exceeds oracle bound {DEFAULT_BOUND}",))
    checks: list[CrossCheck] = []
    skipped: list[str] = []
    d1, d2, r = s.decomposition.d1, s.decomposition.d2, s.params.r

    for verdict, q_table, p_table in zip(check_node_pairing(s), s.tables, s.tables[1:]):
        try:
            oracle = min_sum_pairing_exists(q_table.at_q, p_table.at_p, s.b)
        except (ValueError, InstanceTooLarge) as exc:
            skipped.append(f"node {verdict.node}: {exc}")
            continue
        checks.append(CrossCheck(kind="node", index=verdict.node, greedy=verdict.satisfiable, oracle=oracle))

    for i, (bundle, table) in enumerate(zip(s.bundles, s.tables), 1):
        # The search charges a pair summing to d1 to its left (P) order
        # only, so the table's P-orders are the budget's whole domain.
        budget = {o: exceptional_capacity(bundle, o, d2=d2) for o, _ in table.at_p}
        try:
            found = exists_feasible_pairing(table.at_p, table.at_q, d1, budget)
        except (ValueError, InstanceTooLarge) as exc:
            skipped.append(f"component {i}: {exc}")
            continue
        greedy_ok = check_component_feasibility(i, bundle, table, d1=d1, d2=d2, r=r).ok
        # The rules no pairing can change enter as preconditions; the
        # exhaustive search settles only the pairing rules.
        oracle = found and not component_preconditions(i, bundle, table, d1=d1, r=r)
        checks.append(CrossCheck(kind="component", index=i, greedy=greedy_ok, oracle=oracle))

    return CrossValidation(checks=tuple(checks), skipped=tuple(skipped))
