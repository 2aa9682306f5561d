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
`cross_validate` records for an instance it skips. It checks, in order:
sides that total differently, ValueError("sides total A and B"); a side
that breaks the table-side rule of `skeleton.side_summary`, its
ParameterError (the capped search stops at the first partner past the cap,
sound only on ascending orders); and a total above DEFAULT_BOUND,
InstanceTooLarge("instance size N exceeds oracle bound 8"). No
VanishingTable side trips the second check.

The search is memoized backtracking: the oracle the greedy verifier is
validated against, never the production path. Each search places the left
units in one fixed order, the smallest order first (min-sum) or the largest
first (capped), so the guard expands the left runs once into that list and
the search recurses on the index i of the next unit. The units placed so far
are then exactly units[:i], so i stands for the remaining left multiset, and
a memo key is (i, right counts) in min-sum mode and (i, right counts,
budgets) in capped mode: the same states as keying on the remaining left
counts. A key is built only when a state fails, after its moves are undone,
and looked up only once some state has failed, so a feasible instance
resolves on its first descent without building one.

It states no rule of its own: `cross_validate` reads the greedy verdicts,
the pairing-independent rules and the exceptional capacity from `verify`.
The chain repeats its instances up to a shift of the orders, so
`cross_validate` decides each translation class once per call, keeping its
(greedy, search) pair. Shifting the left orders by u and the right by v
moves every pair sum by u + v and each budget with its left order, and
leaves the guard and the anti-sorted pairing alone; so a key is the sides
shifted to start at order 0, the threshold less u + v and, capped, the
budget values in left-run order. The key holds no bundle, so every instance
checks its own preconditions. A guard error is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InstanceTooLarge, ParameterError
from .skeleton import LimitSeriesSkeleton, side_summary
from .verify import (
    Runs,
    check_component_feasibility,
    component_preconditions,
    exceptional_capacity,
    node_verdicts,
)

DEFAULT_BOUND = 8  # the largest total multiplicity the oracle searches


def _expand(left: Runs, right: Runs) -> tuple[list[int], list[int], list[int], list[int]]:
    """The left side as one run index per unit, ascending, with its orders,
    and the right side's orders and counts; or the guard's error. Unequal
    totals are reported first (they admit no bijection), even over a broken
    side; then a broken side; then a total above DEFAULT_BOUND."""
    try:
        size, other = side_summary("left", left)[0], side_summary("right", right)[0]
    except ParameterError:
        size, other = sum(m for _, m in left), sum(m for _, m in right)
        if size == other:
            raise
    if size != other:
        raise ValueError(f"sides total {size} and {other}")
    if size > DEFAULT_BOUND:
        raise InstanceTooLarge(f"instance size {size} exceeds oracle bound {DEFAULT_BOUND}")
    units: list[int] = []
    for li, (_, mult) in enumerate(left):
        units += [li] * mult
    return units, [o for o, _ in left], [o for o, _ in right], [m for _, m in right]


def exists_feasible_pairing(left: Runs, right: Runs, threshold: int, budget: Mapping[int, int]) -> bool:
    """Exhaustive capped-mode search: does a bijection exist whose pairs sum
    to at most threshold-1, except that a pair summing to exactly threshold
    spends one unit of budget[its left order] (0 where absent)?"""
    units, lorders, rorders, rcounts = _expand(left, right)
    units.reverse()  # most constrained first: the largest left order
    n = len(units)
    budgets = [budget.get(o, 0) for o in lorders]
    partners = range(len(rorders))
    failed: set[tuple[int, tuple[int, ...], tuple[int, ...]]] = set()

    def rec(i: int) -> bool:
        if i == n:
            return True
        if failed and (i, tuple(rcounts), tuple(budgets)) in failed:
            return False
        li = units[i]
        x = lorders[li]
        # Partners ascending, as the sorted greedy pairing takes them, so
        # feasible instances resolve on the first descent.
        for ri in partners:
            if not rcounts[ri]:
                continue
            total = x + rorders[ri]
            if total > threshold:
                break  # rorders ascend: larger partners only get worse
            uses_budget = total == threshold
            if uses_budget:
                if budgets[li] <= 0:
                    continue
                budgets[li] -= 1
            rcounts[ri] -= 1
            if rec(i + 1):
                return True
            rcounts[ri] += 1
            if uses_budget:
                budgets[li] += 1
        # Every move is undone, so this is the state the call was entered in.
        failed.add((i, tuple(rcounts), tuple(budgets)))
        return False

    return rec(0)


def min_sum_pairing_exists(left: Runs, right: Runs, b: int) -> bool:
    """Exhaustive minimum-sum search over two ascending run tables: does a
    bijection with all sums >= b exist?"""
    # Units ascend: the smallest left order, hardest to serve, goes first.
    units, lorders, rorders, rcounts = _expand(left, right)
    n = len(units)
    partners = range(len(rorders))
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def rec(i: int) -> bool:
        if i == n:
            return True
        if failed and (i, tuple(rcounts)) in failed:
            return False
        need = b - lorders[units[i]]
        # Try the smallest sufficient partner first; it leaves the large
        # orders for the other hard left entries, so feasible instances
        # resolve on the first descent.
        for ri in partners:
            if rcounts[ri] and rorders[ri] >= need:
                rcounts[ri] -= 1
                if rec(i + 1):
                    return True
                rcounts[ri] += 1
        # Every move is undone, so this is the state the call was entered in.
        failed.add((i, tuple(rcounts)))
        return False

    return rec(0)


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
    skipped with the search's own message as its notice, not failed. Each
    translation class is decided once, keyed as the module docstring says."""
    if s.params.k > DEFAULT_BOUND:
        return CrossValidation(checks=(), skipped=(f"k={s.params.k} exceeds oracle bound {DEFAULT_BOUND}",))
    checks: list[CrossCheck] = []
    skipped: list[str] = []
    d1, d2, r, b = s.decomposition.d1, s.decomposition.d2, s.params.r, s.b
    verdicts: dict[tuple, tuple[bool, bool]] = {}  # translation class -> (greedy, search)
    # Each table's (P side, Q side), each shifted to start at order 0 and paired with its first order.
    shifted = [[(tuple([(o - side[0][0], m) for o, m in side]), side[0][0]) for side in (t.at_p, t.at_q)] for t in s.tables]

    for node, (q_table, p_table, (_, (q, q_lo)), ((p, p_lo), _)) in enumerate(
        zip(s.tables, s.tables[1:], shifted, shifted[1:]), 1
    ):
        pair = verdicts.get(key := (q, p, b - q_lo - p_lo))
        try:
            if pair is None:  # a guard error raises before anything is stored
                found = min_sum_pairing_exists(q_table.at_q, p_table.at_p, b)
                pair = verdicts[key] = (node_verdicts((q_table, p_table), b)[0].satisfiable, found)
        except (ValueError, InstanceTooLarge) as exc:
            skipped.append(f"node {node}: {exc}")
            continue
        checks.append(CrossCheck(kind="node", index=node, greedy=pair[0], oracle=pair[1]))

    for i, (bundle, table, ((p, p_lo), (q, q_lo))) in enumerate(zip(s.bundles, s.tables, shifted), 1):
        # The search charges a pair summing to d1 to its left (P) order
        # only, so the table's P-orders are the budget's whole domain.
        budget = {o: exceptional_capacity(bundle, o, d2=d2) for o, _ in table.at_p}
        pair = verdicts.get(key := (p, q, d1 - p_lo - q_lo, tuple(budget.values())))
        preconditions = component_preconditions(i, bundle, table, d1=d1, r=r)
        try:
            if pair is None:
                found = exists_feasible_pairing(table.at_p, table.at_q, d1, budget)
                greedy = check_component_feasibility(i, bundle, table, d1=d1, d2=d2, r=r)
                pair = verdicts[key] = (len(greedy.violations) == len(preconditions), found)
        except (ValueError, InstanceTooLarge) as exc:
            skipped.append(f"component {i}: {exc}")
            continue
        # The rules no pairing can change enter as preconditions; the
        # exhaustive search settles only the pairing rules.
        ok = not preconditions
        checks.append(CrossCheck(kind="component", index=i, greedy=pair[0] and ok, oracle=pair[1] and ok))

    return CrossValidation(checks=tuple(checks), skipped=tuple(skipped))
