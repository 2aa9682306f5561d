"""Exact ground truth for pairing feasibility, by maximum flow.

Two questions are asked of two order multisets, each given as ascending
(order, multiplicity) runs, as a VanishingTable side stores them: does a
multiplicity-respecting bijection exist whose pairs all keep a rule?

* capped mode (`exists_feasible_pairing`): every pair must sum to at most
  threshold-1, except that a pair summing to exactly threshold spends one
  unit of the budget mapping at its left order. This is the rule a
  component's section space must satisfy on an elliptic component.
* minimum-sum mode (`min_sum_pairing_exists`): every pair must sum to at
  least b. This is the node condition between consecutive components.

Both are bipartite b-matchings on runs, decided by one maximum flow (Ford
and Fulkerson 1956): the source feeds each left run its multiplicity, each
right run drains its multiplicity into the sink, and the edge from left
order x to right order y is unbounded where the pair is allowed (min-sum:
x + y >= b; capped: x + y < threshold) and holds budget[x] where x + y ==
threshold. Orders are distinct on each side, so that one edge carries the
order's whole budget and no extra node is needed. A pairing exists iff the
flow carries every unit. `_saturates` fills the edges first-fit in run
order, then augments along shortest residual paths, rerouting units where
the fill misplaced them, so the number of augmentations depends on the
runs, not on the multiplicities (Edmonds and Karp 1972).

Both modes share one guard, whose messages are the notices `cross_validate`
records for an instance it skips: sides that total differently raise
ValueError("sides total A and B"), even over a broken side; then a side
that breaks the table-side rule of `skeleton.side_summary` raises its
ParameterError, a run that is not two integers included ("left: expected
an integer, got 1.0"). No VanishingTable side trips the second check.

It states no rule of its own: `cross_validate` reads the greedy verdicts,
the pairing-independent rules and the exceptional capacity from `verify`.
Instances repeat up to a shift of the orders along a chain and across
skeletons, so `cross_validate` decides each translation class once per
process, keeping its (greedy, flow) pair in `_VERDICTS`. Only a process
that checks many skeletons, as the acceptance gate does, reuses a class
across them; `check` and `verify-file` check one. Shifting the left orders
by u and the right by v moves every pair sum by u + v and each budget with
its left order, and leaves the guard and the anti-sorted pairing alone; so
a key is the sides shifted to start at order 0, the threshold less u + v
and, capped, the budget values in left-run order. Neither verdict reads
anything else, so a stored pair is a pure function of its key, whichever
skeleton stored it. The key holds no bundle, so every instance checks its
own preconditions. A guard error is never stored. Stored keys share one
copy of each side through `_SIDES`, and both dicts are cleared together
when the table reaches `_MAX_CLASSES` classes. Threads may share the
table: a race can repeat a flow, pass the bound by a few classes or leave
a side unshared, but never store a wrong pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .skeleton import LimitSeriesSkeleton, side_summary
from .verify import (
    Runs,
    check_component_feasibility,
    component_preconditions,
    exceptional_capacity,
    node_verdicts,
)


_MAX_CLASSES = 1 << 14
_VERDICTS: dict[tuple, tuple[bool, bool]] = {}  # translation class -> (greedy, flow)
_SIDES: dict[tuple, tuple] = {}  # each shifted side of a stored key -> its one shared copy


def _store(key: tuple, pair: tuple[bool, bool]) -> tuple[bool, bool]:
    """Keep `pair` as the verdicts of class `key`, sharing its sides' copies."""
    if len(_VERDICTS) >= _MAX_CLASSES:
        _VERDICTS.clear(), _SIDES.clear()
    _VERDICTS[(_SIDES.setdefault(key[0], key[0]), _SIDES.setdefault(key[1], key[1]), *key[2:])] = pair
    return pair


def _total(left: Runs, right: Runs) -> int:
    """The units on each side, or the guard's error: unequal totals first
    (they admit no bijection), even over a broken side; then a broken side."""
    size, other = sum(m for _, m in left), sum(m for _, m in right)
    if size != other:
        raise ValueError(f"sides total {size} and {other}")
    side_summary("left", left), side_summary("right", right)
    return size


def _saturates(left: Runs, right: Runs, caps: list[list[int]]) -> bool:
    """Whether a flow from the left runs (each supplying its multiplicity)
    to the right runs (each taking its multiplicity), with caps[i][j] units
    allowed from left run i to right run j, carries every unit."""
    supply, demand = [m for _, m in left], [m for _, m in right]
    n, m = len(supply), len(demand)
    flow = [[0] * m for _ in range(n)]
    for i, row in enumerate(caps):  # first fit, in run order
        units, used = supply[i], flow[i]
        for j, cap in enumerate(row):
            need = demand[j]
            if cap > 0 and need:
                push = min(units, need, cap)
                used[j] = push
                units -= push
                demand[j] = need - push
                if not units:
                    break
        supply[i] = units
    while any(supply):
        # Breadth-first from every left run with supply left. prev_l[i] is
        # the right run whose flow left run i was reached back along (m for
        # the source, -1 unreached); prev_r[j] is the left run that reached
        # right run j. The search stops at the first right run with demand.
        prev_l, prev_r = [m if units else -1 for units in supply], [-1] * m
        queue, end = [i for i in range(n) if supply[i]], -1
        for i in queue:  # the queue grows as it is read
            row, used = caps[i], flow[i]
            for j in range(m):
                if prev_r[j] < 0 and used[j] < row[j]:
                    prev_r[j] = i
                    if demand[j]:
                        end = j
                        break
                    for h in range(n):  # the left runs whose flow j could give up
                        if prev_l[h] < 0 and flow[h][j]:
                            prev_l[h] = j
                            queue.append(h)
            if end >= 0:
                break
        if end < 0:
            return False  # no augmenting path: the flow is maximal
        # Walk the path back from the sink: its bottleneck is the least of
        # the sink's demand, each forward edge's slack, the flow on each used
        # edge a unit leaves (a reroute) and the first left run's supply.
        amount, path, j = demand[end], [], end
        while j != m:
            i = prev_r[j]
            path.append(i)
            amount = min(amount, caps[i][j] - flow[i][j])
            j = prev_l[i]
            if j != m:
                amount = min(amount, flow[i][j])
        amount = min(amount, supply[i])
        supply[i] -= amount
        demand[end] -= amount
        j = end
        for i in path:
            flow[i][j] += amount
            j = prev_l[i]
            if j != m:
                flow[i][j] -= amount  # a unit rerouted: cancel it on the used edge
    return True


def exists_feasible_pairing(left: Runs, right: Runs, threshold: int, budget: Mapping[int, int]) -> bool:
    """Capped mode: does a bijection exist whose pairs sum to at most
    threshold-1, except that a pair summing to exactly threshold spends one
    unit of budget[its left order] (0 where absent)?"""
    unbounded = _total(left, right)
    caps = [
        [unbounded if x + y < threshold else budget.get(x, 0) if x + y == threshold else 0 for y, _ in right]
        for x, _ in left
    ]
    return _saturates(left, right, caps)


def min_sum_pairing_exists(left: Runs, right: Runs, b: int) -> bool:
    """Minimum-sum mode: does a bijection with all sums >= b exist?"""
    unbounded = _total(left, right)
    return _saturates(left, right, [[unbounded if x + y >= b else 0 for y, _ in right] for x, _ in left])


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
    and component of a skeleton. An instance the oracle cannot take, with
    sides that total differently (no bijection exists, and `verify` already
    fails it), is skipped with the guard's own message as its notice, not
    failed. Each translation class is decided once per process, while the
    table holds it, keyed as the module docstring says."""
    checks: list[CrossCheck] = []
    skipped: list[str] = []
    d1, d2, r, b = s.params.d1, s.params.d2, s.params.r, s.b
    # Each table's (P side, Q side), each shifted to start at order 0 and paired with its first order.
    shifted = [[(tuple([(o - side[0][0], m) for o, m in side]), side[0][0]) for side in (t.at_p, t.at_q)] for t in s.tables]

    for node, (q_table, p_table, (_, (q, q_lo)), ((p, p_lo), _)) in enumerate(
        zip(s.tables, s.tables[1:], shifted, shifted[1:]), 1
    ):
        pair = _VERDICTS.get(key := (q, p, b - q_lo - p_lo))
        try:
            if pair is None:  # a guard error raises before anything is stored
                found = min_sum_pairing_exists(q_table.at_q, p_table.at_p, b)
                pair = _store(key, (node_verdicts((q_table, p_table), b)[0].satisfiable, found))
        except ValueError as exc:
            skipped.append(f"node {node}: {exc}")
            continue
        checks.append(CrossCheck(kind="node", index=node, greedy=pair[0], oracle=pair[1]))

    for i, (bundle, table, ((p, p_lo), (q, q_lo))) in enumerate(zip(s.bundles, s.tables, shifted), 1):
        # The flow charges a pair summing to d1 to its left (P) order
        # only, so the table's P-orders are the budget's whole domain.
        budget = {o: exceptional_capacity(bundle, o, d2=d2) for o, _ in table.at_p}
        pair = _VERDICTS.get(key := (p, q, d1 - p_lo - q_lo, tuple(budget.values())))
        preconditions = component_preconditions(i, bundle, table, d1=d1, r=r)
        try:
            if pair is None:
                found = exists_feasible_pairing(table.at_p, table.at_q, d1, budget)
                greedy = check_component_feasibility(i, bundle, table, d1=d1, d2=d2, r=r)
                pair = _store(key, (len(greedy.violations) == len(preconditions), found))
        except ValueError as exc:
            skipped.append(f"component {i}: {exc}")
            continue
        # The rules no pairing can change enter as preconditions; the
        # flow settles only the pairing rules.
        ok = not preconditions
        checks.append(CrossCheck(kind="component", index=i, greedy=pair[0] and ok, oracle=pair[1] and ok))

    return CrossValidation(checks=tuple(checks), skipped=tuple(skipped))
