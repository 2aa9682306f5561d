"""Brute-force ground truth for pairing feasibility.

Two questions are answered exhaustively over all multiplicity-respecting
bijections between two equal-size order multisets:

* capped mode (`exists_feasible_pairing`): every pair must sum to at most
  threshold-1; pairs summing to exactly threshold are allowed only within a
  per-left-order budget; sums above threshold are never allowed. This is the
  rule a component's section space must satisfy on an elliptic component.
* minimum-sum mode (`min_sum_pairing_exists`): every pair must sum to at
  least b. This is the node condition between consecutive components.

Both take multisets as ascending (order, multiplicity) runs, as a
VanishingTable side stores them, and refuse an instance whose total
multiplicity exceeds the fixed bound DEFAULT_BOUND. The search is memoized
backtracking over the runs, not factorial enumeration, but stays
deliberately simple: it is the oracle the fast greedy verifier is validated
against, never the production path. It states no component rule of its
own: `cross_validate` reads the pairing-independent rules and the
exceptional capacity from `verify`, so the search settles only the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLarge
from .skeleton import ComponentBundle, LimitSeriesSkeleton, VanishingTable
from .verify import (
    Runs,
    check_component_feasibility,
    check_node_pairing,
    component_preconditions,
    exceptional_capacity,
)

DEFAULT_BOUND = 8  # the largest total multiplicity the oracle searches


@dataclass(frozen=True)
class PairingInstance:
    """Capped-mode instance: ascending order runs, threshold, exceptional
    budget as (left order, units) pairs.

    Pairs may sum to threshold - 1 freely; a pair summing to exactly
    threshold consumes one unit of budget[left order]; larger sums are
    infeasible. Totals on both sides must agree.
    """

    left: tuple[tuple[int, int], ...]
    right: tuple[tuple[int, int], ...]
    threshold: int
    budget: tuple[tuple[int, int], ...] = ()

    @property
    def size(self) -> int:
        return sum(m for _, m in self.left)

    def __post_init__(self) -> None:
        total_left = sum(m for _, m in self.left)
        total_right = sum(m for _, m in self.right)
        if total_left != total_right:
            raise ValueError(f"multiset totals differ: {total_left} vs {total_right}")


def _check_bound(size: int) -> None:
    if size > DEFAULT_BOUND:
        raise InstanceTooLarge(f"instance size {size} exceeds oracle bound {DEFAULT_BOUND}")


def exists_feasible_pairing(inst: PairingInstance) -> tuple[bool, tuple[tuple[int, int], ...] | None]:
    """Exhaustive capped-mode search. Returns (feasible, witness pairing)."""
    _check_bound(inst.size)
    lorders = [o for o, _ in inst.left]
    lcounts = [m for _, m in inst.left]
    rorders = [o for o, _ in inst.right]
    rcounts = [m for _, m in inst.right]
    bud = dict(inst.budget)
    budgets = [bud.get(o, 0) for o in lorders]

    failed: set[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = set()
    chosen: list[tuple[int, int]] = []

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
        # Partners ascending, so the first full solution found mirrors the
        # sorted greedy pairing on feasible instances.
        for ri, y in enumerate(rorders):
            if not rcounts[ri]:
                continue
            total = x + y
            if total > inst.threshold:
                break  # rorders ascending: larger y only gets worse
            uses_budget = total == inst.threshold
            if uses_budget:
                if budgets[li] <= 0:
                    continue
                budgets[li] -= 1
            rcounts[ri] -= 1
            chosen.append((x, y))
            if rec(remaining - 1):
                lcounts[li] += 1
                return True
            chosen.pop()
            rcounts[ri] += 1
            if uses_budget:
                budgets[li] += 1
        lcounts[li] += 1
        failed.add(key)
        return False

    if rec(inst.size):
        return True, tuple(chosen)
    return False, None


def min_sum_pairing_exists(left: Runs, right: Runs, b: int) -> bool:
    """Exhaustive minimum-sum search over two ascending run tables: does a
    bijection with all sums >= b exist?"""
    lorders = [o for o, _ in left]
    lcounts = [m for _, m in left]
    rorders = [o for o, _ in right]
    rcounts = [m for _, m in right]
    size = sum(lcounts)
    if size != sum(rcounts):
        raise ValueError("multiset totals differ")
    _check_bound(size)

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
                lcounts[li] += 1
                return True
            rcounts[ri] += 1
        lcounts[li] += 1
        failed.add(key)
        return False

    return rec(size)


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


def _skip_reason(total_a: int, total_b: int) -> str | None:
    """Why the oracle cannot take an instance whose sides total as given."""
    if total_a != total_b:
        return f"sides total {total_a} and {total_b}"
    return f"instance size {total_a} exceeds oracle bound {DEFAULT_BOUND}" if total_a > DEFAULT_BOUND else None


def component_instance(bundle: ComponentBundle, table: VanishingTable, *, d1: int, d2: int) -> PairingInstance:
    """A component's capped-mode instance: its P and Q runs as they stand
    (a table side is already ascending with positive multiplicities),
    threshold d1, and `verify.exceptional_capacity` at each P-order. The
    search charges a pair summing to d1 to its left (P) order only, so
    these orders are the budget's whole domain."""
    budget = tuple((order, exceptional_capacity(bundle, order, d2=d2)) for order, _ in table.at_p)
    return PairingInstance(table.at_p, table.at_q, threshold=d1, budget=budget)


def cross_validate(s: LimitSeriesSkeleton) -> CrossValidation:
    """Compare the greedy verifier verdicts against the oracle on every node
    and component of a skeleton. An instance beyond DEFAULT_BOUND (all of
    them when k is), or whose two sides total differently (no bijection
    exists, and `verify` already fails it), is skipped with a notice, not
    failed."""
    if s.params.k > DEFAULT_BOUND:
        return CrossValidation(checks=(), skipped=(f"k={s.params.k} exceeds oracle bound {DEFAULT_BOUND}",))
    checks: list[CrossCheck] = []
    skipped: list[str] = []
    d1, d2, r = s.decomposition.d1, s.decomposition.d2, s.params.r

    for verdict, q_table, p_table in zip(check_node_pairing(s), s.tables, s.tables[1:]):
        node = verdict.node
        reason = _skip_reason(q_table.total_q, p_table.total_p)
        if reason:
            skipped.append(f"node {node}: {reason}")
            continue
        oracle = min_sum_pairing_exists(q_table.at_q, p_table.at_p, s.b)
        checks.append(CrossCheck(kind="node", index=node, greedy=verdict.satisfiable, oracle=oracle))

    for i, (bundle, table) in enumerate(zip(s.bundles, s.tables), 1):
        reason = _skip_reason(table.total_p, table.total_q)
        if reason:
            skipped.append(f"component {i}: {reason}")
            continue
        greedy_ok = check_component_feasibility(i, bundle, table, d1=d1, d2=d2, r=r).ok
        # The rules no pairing can change enter as preconditions; the
        # exhaustive search settles only the pairing rules.
        found, _ = exists_feasible_pairing(component_instance(bundle, table, d1=d1, d2=d2))
        oracle = found and not component_preconditions(i, bundle, table, d1=d1, r=r)
        checks.append(CrossCheck(kind="component", index=i, greedy=greedy_ok, oracle=oracle))

    return CrossValidation(checks=tuple(checks), skipped=tuple(skipped))
