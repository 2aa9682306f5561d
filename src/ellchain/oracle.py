"""Brute-force ground truth for pairing feasibility.

Two questions are answered exhaustively over all multiplicity-respecting
bijections between two equal-size order multisets:

* capped mode (`exists_feasible_pairing`): every pair must sum to at most
  threshold-1; pairs summing to exactly threshold are allowed only within a
  per-left-order budget; sums above threshold are never allowed. This is the
  rule a component's section space must satisfy on an elliptic component.
* minimum-sum mode (`min_sum_pairing_exists`): every pair must sum to at
  least b. This is the node condition between consecutive components.

The search is memoized backtracking over sorted multisets, not factorial
enumeration, but stays deliberately simple: it is the oracle the fast greedy
verifier is validated against, never the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InstanceTooLarge
from .skeleton import ComponentBundle, LimitSeriesSkeleton, VanishingTable
from .verify import bundle_shape_violations, check_component_feasibility, check_node_pairing

DEFAULT_BOUND = 8


@dataclass(frozen=True)
class PairingInstance:
    """Capped-mode instance: order multisets, threshold, exceptional budget.

    Pairs may sum to threshold - 1 freely; a pair summing to exactly
    threshold consumes one unit of budget[left order]; larger sums are
    infeasible. Totals on both sides must agree.
    """

    left: tuple[tuple[int, int], ...]
    right: tuple[tuple[int, int], ...]
    threshold: int
    budget: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_maps(
        cls,
        left: Mapping[int, int],
        right: Mapping[int, int],
        threshold: int,
        budget: Mapping[int, int] | None = None,
    ) -> "PairingInstance":
        return cls(
            left=tuple(sorted((o, m) for o, m in left.items() if m)),
            right=tuple(sorted((o, m) for o, m in right.items() if m)),
            threshold=threshold,
            budget=tuple(sorted((o, m) for o, m in (budget or {}).items() if m)),
        )

    @property
    def size(self) -> int:
        return sum(m for _, m in self.left)

    def __post_init__(self) -> None:
        total_left = sum(m for _, m in self.left)
        total_right = sum(m for _, m in self.right)
        if total_left != total_right:
            raise ValueError(f"multiset totals differ: {total_left} vs {total_right}")


def _check_bound(size: int, bound: int) -> None:
    if size > bound:
        raise InstanceTooLarge(f"instance size {size} exceeds oracle bound {bound}")


def exists_feasible_pairing(
    inst: PairingInstance, bound: int = DEFAULT_BOUND
) -> tuple[bool, tuple[tuple[int, int], ...] | None]:
    """Exhaustive capped-mode search. Returns (feasible, witness pairing)."""
    _check_bound(inst.size, bound)
    lorders = [o for o, _ in inst.left]
    lcounts = [m for _, m in inst.left]
    rorders = [o for o, _ in inst.right]
    rcounts = [m for _, m in inst.right]
    bud = dict(inst.budget)
    budgets = [bud.get(o, 0) for o in lorders]
    cap = inst.threshold - 1

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


def min_sum_pairing_exists(
    left: Mapping[int, int], right: Mapping[int, int], b: int, bound: int = DEFAULT_BOUND
) -> bool:
    """Exhaustive minimum-sum search: does a bijection with all sums >= b exist?"""
    lorders = sorted(o for o, m in left.items() if m)
    lcounts = [left[o] for o in lorders]
    rorders = sorted(o for o, m in right.items() if m)
    rcounts = [right[o] for o in rorders]
    size = sum(lcounts)
    if size != sum(rcounts):
        raise ValueError("multiset totals differ")
    _check_bound(size, bound)

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


def _skip_reason(total_a: int, total_b: int, bound: int) -> str | None:
    """Why the oracle cannot take an instance whose sides total as given."""
    if total_a != total_b:
        return f"sides total {total_a} and {total_b}"
    return f"instance size {total_a} exceeds oracle bound {bound}" if total_a > bound else None


def component_instance(bundle: ComponentBundle, table: VanishingTable, *, d1: int, d2: int) -> PairingInstance:
    """A component's capped-mode instance: its P and Q runs as they stand
    (a table side is already ascending with positive multiplicities),
    threshold d1, and a budget of d2 per order for the special first bundle
    or each twisted summand's copies at its twist."""
    if bundle.kind == "first_special":
        budget = {a: d2 for a in range(0, d1 + 1)} if d2 else {}
    else:
        budget = {}
        for summand in bundle.summands:
            if summand.twist is not None:
                budget[summand.twist] = budget.get(summand.twist, 0) + summand.mult
    return PairingInstance(table.at_p, table.at_q, threshold=d1, budget=tuple(sorted(budget.items())))


def cross_validate(s: LimitSeriesSkeleton, bound: int = DEFAULT_BOUND) -> CrossValidation:
    """Compare the greedy verifier verdicts against the oracle on every node
    and component of a skeleton. An instance beyond the bound (all of them
    when k is), or whose two sides total differently (no bijection exists,
    and `verify` already fails it), is skipped with a notice, not failed."""
    checks: list[CrossCheck] = []
    skipped: list[str] = []
    if s.params.k > bound:
        return CrossValidation(checks=(), skipped=(f"k={s.params.k} exceeds oracle bound {bound}",))

    d1 = s.decomposition.d1
    d2 = s.decomposition.d2
    for verdict in check_node_pairing(s):
        node = verdict.node
        q_table, p_table = s.table(node), s.table(node + 1)
        reason = _skip_reason(q_table.total_q, p_table.total_p, bound)
        if reason:
            skipped.append(f"node {node}: {reason}")
            continue
        oracle = min_sum_pairing_exists(q_table.q_map(), p_table.p_map(), s.b, bound=bound)
        checks.append(CrossCheck(kind="node", index=node, greedy=verdict.satisfiable, oracle=oracle))

    for i in range(1, s.params.g + 1):
        bundle = s.bundle(i)
        table = s.table(i)
        reason = _skip_reason(table.total_p, table.total_q, bound)
        if reason:
            skipped.append(f"component {i}: {reason}")
            continue
        greedy_ok = check_component_feasibility(i, bundle, table, d1=d1, d2=d2, r=s.params.r).ok
        # The bundle's rank and shape and the per-order bound <= r do not
        # depend on the pairing chosen, so they enter as preconditions; the
        # exhaustive search settles only the pairing rules.
        r = s.params.r
        shape_ok = bundle.rank == r and not bundle_shape_violations(i, bundle, d1=d1) and table.max_mult <= r
        found, _ = exists_feasible_pairing(component_instance(bundle, table, d1=d1, d2=d2), bound=bound)
        checks.append(
            CrossCheck(kind="component", index=i, greedy=greedy_ok, oracle=shape_ok and found)
        )

    return CrossValidation(checks=tuple(checks), skipped=tuple(skipped))
