"""Explicit skeleton construction for the four parameter regimes.

Every recipe fixes the twist parameter b = d1, places a bundle on each of the
g components, emits the vanishing multiset of the k-dimensional section space
at both marked points of every component, and tags every node with its gluing
family dimension. Component 1 carries degree d; every other component carries
degree r*d1, which is the unique choice balancing total degree against the
twist.

Regime layouts (t is the regime's tail threshold, `params.tail_threshold`):

* LARGE_SECTIONS (d + r(1-g) >= k): special first bundle, then generic lines
  everywhere, generic gluings; the section space slides one vanishing step
  per component.
* SMALL_A (d2 < k2) and SMALL_B (0 != d2 >= k2) share one recipe with a
  shift s, 0 for SMALL_A and 1 for SMALL_B. With t = g+k1-d1-s and the
  early excess e = k2-d2+s*r: special first bundle; components 3..k1+2
  carry O((2i-3-s)P+...)^e plus r-e generic lines; then alpha-blocks of k1+1
  components each (alpha = 1..t-1), the first of each block carrying
  O((k1*alpha+1-s)P+...)^(k2) plus lines and the rest fully twisted; then a
  generic-line tail of g-(k1+1)t-1 components. Every order window, block
  twist and tail offset of SMALL_B is SMALL_A's shifted by s. Only three
  things depend on the case: component 2 carries O(P+(d1-1)Q)^e plus lines
  in SMALL_A (the early pattern) but O(d1*Q)^(k2) plus lines in SMALL_B; the
  gluing at node 1; and SMALL_B's note on node 2.
* SMALL_C (d2 = k2 = 0, t = g-d1+k1-1): r generic lines on component 1;
  blocks of k1 fully twisted components O((2*beta+alpha*(k1-1)-1)P+...)^r for
  alpha = 0..t-1; generic-line tail (nonempty under the strict hypothesis).

The verifier re-derives nothing from here: it checks the emitted data against
the balance, pairing, feasibility and boundary rules independently. The
ledger reads its small-case terms (bundle moduli and automorphisms, gluing
dimensions) off the emitted skeleton, so this module is the single source of
every dimension fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternalCoverage, MultiplicityMismatch
from .params import Case, Decomposition, Params, classify, decompose, tail_threshold
from .skeleton import (
    ComponentBundle,
    GluingSpec,
    LimitSeriesSkeleton,
    Summand,
    VanishingTable,
    build_chain,
    check_table_totals,
    minimal_boundary_table,
)


@dataclass(frozen=True)
class BlockIndex:
    """Position inside the alpha-block region: block number and offset.

    Blocks are `width` components wide (k1+1 in the regimes with nonzero
    remainders, k1 when d2 = k2 = 0) and start right after the initial run,
    so the chain index recovers as width*alpha + beta + 1.
    """

    alpha: int
    beta: int

    def component(self, width: int) -> int:
        return width * self.alpha + self.beta + 1


def _table(entries: Iterable[tuple[int, int]], *, component: int, point: str) -> dict[int, int]:
    """Assemble order -> multiplicity, dropping zero rows, rejecting dupes."""
    out: dict[int, int] = {}
    for order, mult in entries:
        if mult < 0:
            raise MultiplicityMismatch(
                f"component {component} at {point}: negative multiplicity {mult} for order {order}"
            )
        if mult == 0:
            continue
        if order in out:
            raise MultiplicityMismatch(
                f"component {component} at {point}: duplicate order {order}"
            )
        out[order] = mult
    return out


def _run(lo: int, hi: int) -> range:
    """Inclusive ascending order range; empty when hi < lo."""
    return range(lo, hi + 1)


def _lines(mult: int) -> tuple[Summand, ...]:
    return (Summand(mult=mult),) if mult else ()


def _twisted(a: int, mult: int) -> tuple[Summand, ...]:
    return (Summand(mult=mult, twist=a),) if mult else ()


def _mixed(component: int, degree: int, summands: tuple[Summand, ...]) -> ComponentBundle:
    return ComponentBundle(component=component, kind="mixed", degree=degree, summands=summands)


def tail_count(p: Params, case: Case | None = None) -> int:
    """Number of trailing generic-line components for a small-case tuple."""
    actual = classify(p).case if case is None else case
    dec = decompose(p)
    t = tail_threshold(actual, dec, p.g)
    width = dec.k1 if actual is Case.SMALL_C else dec.k1 + 1
    return p.g - width * t - 1


PerComponent = dict[int, tuple[ComponentBundle, dict[int, int], dict[int, int]]]


def _first_special(p: Params, dec: Decomposition) -> ComponentBundle:
    return ComponentBundle(
        component=1, kind="first_special", degree=p.d,
        blocks=dec.h, block_rank=dec.rbar, block_degree=dec.dbar,
    )


def _build_large(p: Params, dec: Decomposition, case: Case) -> tuple[PerComponent, list[GluingSpec], list[str]]:
    g, r = p.g, p.r
    d1, d2, k1, k2 = dec.d1, dec.d2, dec.k1, dec.k2
    comps: PerComponent = {}
    comps[1] = (
        _first_special(p, dec),
        minimal_boundary_table(r, k1, k2),
        _table(
            [(g - 1 + j, r) for j in range(k1)] + [(g + k1 - 1, k2)],
            component=1, point="Q",
        ),
    )
    for i in range(2, g + 1):
        at_p = _table(
            [(d1 - g + i - 1 - j, r) for j in range(k1)] + [(d1 - g + i - k1 - 1, k2)],
            component=i, point="P",
        )
        at_q = _table(
            [(g - i + j, r) for j in range(k1)] + [(g - i + k1, k2)],
            component=i, point="Q",
        )
        comps[i] = (_mixed(i, r * d1, _lines(r)), at_p, at_q)
    gluings = [
        GluingSpec(node=n, tag="generic", parameter_dim=r * r) for n in range(1, g)
    ]
    notes = []
    if d2 != k2:
        notes.append(
            "boundary table reading: the last vanishing at the final point carries the "
            f"section-count remainder k2={k2}; the degree remainder d2={d2} would break "
            "boundary minimality"
        )
    return comps, gluings, notes


def _early_run(near: int, far: int, mid: int, *, r: int, k2: int, e: int) -> list[tuple[int, int]]:
    """Orders from `near` to `far` inclusive (either direction): `near`
    carries k2, `mid` carries r-e, `far` carries e, every other order r."""
    return [
        (o, k2 if o == near else r - e if o == mid else e if o == far else r)
        for o in _run(min(near, far), max(near, far))
    ]


def _build_shifted(p: Params, dec: Decomposition, case: Case) -> tuple[PerComponent, list[GluingSpec], list[str]]:
    """The SMALL_A (s = 0) / SMALL_B (s = 1) recipe."""
    g, r = p.g, p.r
    d1, d2, k1, k2 = dec.d1, dec.d2, dec.k1, dec.k2
    s = 0 if case is Case.SMALL_A else 1
    t = tail_threshold(case, dec, g)
    e = k2 - d2 + s * r
    comps: PerComponent = {}

    comps[1] = (
        _first_special(p, dec),
        minimal_boundary_table(r, k1, k2),
        _table(
            [(d1, d2)] + [(d1 - j, r) for j in _run(1, k1 - s)] + [(d1 - k1 - 1 + s, e)],
            component=1, point="Q",
        ),
    )

    def early_q(i: int) -> dict[int, int]:
        # Orders d1-i+1+s down to d1-k1-i+s; the list degenerates at
        # i = k1+2, where it merges into head k2 followed by k1
        # full-multiplicity rows.
        if i == k1 + 2:
            return _table(
                [(d1 - k1 - 1 + s, k2)] + [(o, r) for o in _run(d1 - 2 * k1 - 1 + s, d1 - k1 - 2 + s)],
                component=i, point="Q",
            )
        entries = _early_run(d1 - i + 1 + s, d1 - k1 - i + s, d1 - 2 * i + 2 + s, r=r, k2=k2, e=e)
        return _table(entries, component=i, point="Q")

    second = _twisted(0, k2) + _lines(r - k2) if s else _twisted(1, e) + _lines(r - e)
    comps[2] = (
        _mixed(2, r * d1, second),
        _table(
            [(0, d2)] + [(j, r) for j in _run(1, k1 - s)] + [(k1 + 1 - s, e)],
            component=2, point="P",
        ),
        early_q(2),
    )

    for i in _run(3, k1 + 2):
        entries = _early_run(i - 2 - s, k1 + i - 1 - s, 2 * i - 4 - s, r=r, k2=k2, e=e)
        comps[i] = (
            _mixed(i, r * d1, _twisted(2 * i - 3 - s, e) + _lines(r - e)),
            _table(entries, component=i, point="P"),
            early_q(i),
        )

    for alpha in _run(1, t - 1):
        a0 = alpha * k1 - s
        for beta in _run(1, k1 + 1):
            i = BlockIndex(alpha, beta).component(k1 + 1)
            if beta == 1:
                # The block's exceptional sections sit on O((a0+1)P+...);
                # in SMALL_B the recipe's own gluing and section-space lines
                # fix this twist at k1*alpha, one below SMALL_A's.
                bundle = _mixed(i, r * d1, _twisted(a0 + 1, k2) + _lines(r - k2))
            else:
                bundle = _mixed(i, r * d1, _twisted(a0 + 2 * beta - 1, r))
            # P runs ascend from the k2 head, skipping the order a0+2*beta-2.
            at_p_orders = [*_run(a0 + beta - 1, a0 + 2 * beta - 3), *_run(a0 + 2 * beta - 1, a0 + k1 + beta)]
            at_p = _table(
                [(o, k2 if o == at_p_orders[0] else r) for o in at_p_orders], component=i, point="P"
            )
            # Q runs descend from d1-a0-beta; build ascending runs and mark
            # the top order with the k2 head.
            upper = _run(d1 - a0 - 2 * beta + 1, d1 - a0 - beta)
            lower = _run(d1 - a0 - k1 - beta - 1, d1 - a0 - 2 * beta - 1)
            top = d1 - a0 - beta
            at_q = _table(
                [(o, k2 if o == top else r) for o in upper] + [(o, r) for o in lower],
                component=i, point="Q",
            )
            comps[i] = (bundle, at_p, at_q)

    for i in _run(t * (k1 + 1) + 2, g):
        lo = i - t - 1 - s
        hi = d1 - i + t + s
        comps[i] = (
            _mixed(i, r * d1, _lines(r)),
            _table([(lo, k2)] + [(o, r) for o in _run(lo + 1, lo + k1)], component=i, point="P"),
            _table([(hi, k2)] + [(o, r) for o in _run(hi - k1, hi - 1)], component=i, point="Q"),
        )

    # Node 1 links the special first bundle into component 2; nodes 2..k1+1
    # chain the generic-line blocks; the node entering each block's first
    # component links its twisted block into the descending section chain;
    # every other node is generic.
    if s:
        node1 = (d2 * k2 + r * (r - k2), "max_vanishing_block->first_bundle_sections")
        notes = [
            "node 2 links the line block into the glued section space of dimension d2-k2 "
            "on component 2"
        ]
    else:
        node1 = (d2 * (r - e) + r * (r - d2), "full_vanishing_block->line_block")
        notes = []
    line_chain = ((r - e) ** 2 + r * e, "line_block->line_block")
    block_head = (k2 * k2 + r * (r - k2), "twisted_block->section_chain")
    beta1_nodes = {(k1 + 1) * alpha + 1 for alpha in range(1, t)}
    gluings = []
    for n in range(1, g):
        if n == 1:
            dim, desc = node1
        elif n <= k1 + 1:
            dim, desc = line_chain
        elif n in beta1_nodes:
            dim, desc = block_head
        else:
            gluings.append(GluingSpec(node=n, tag="generic", parameter_dim=r * r))
            continue
        gluings.append(GluingSpec(node=n, tag="constrained", parameter_dim=dim, description=desc))
    return comps, gluings, notes


def _build_small_c(p: Params, dec: Decomposition, case: Case) -> tuple[PerComponent, list[GluingSpec], list[str]]:
    g, r = p.g, p.r
    d1, k1 = dec.d1, dec.k1
    t = tail_threshold(case, dec, g)
    comps: PerComponent = {}

    comps[1] = (
        _mixed(1, r * d1, _lines(r)),
        {j: r for j in range(k1)},
        {d1 - j: r for j in _run(1, k1)},
    )

    for alpha in _run(0, t - 1):
        base = alpha * (k1 - 1)
        for beta in _run(1, k1):
            i = BlockIndex(alpha, beta).component(k1)
            a = base + 2 * beta - 1
            at_p = _table(
                [(o, r) for o in _run(base + beta - 1, base + 2 * beta - 3)]
                + [(o, r) for o in _run(base + 2 * beta - 1, base + k1 + beta - 1)],
                component=i, point="P",
            )
            at_q = _table(
                [(o, r) for o in _run(d1 - base - 2 * beta + 1, d1 - base - beta)]
                + [(o, r) for o in _run(d1 - base - k1 - beta, d1 - base - 2 * beta - 1)],
                component=i, point="Q",
            )
            comps[i] = (_mixed(i, r * d1, _twisted(a, r)), at_p, at_q)

    for i in _run(t * k1 + 2, g):
        comps[i] = (
            _mixed(i, r * d1, _lines(r)),
            {o: r for o in _run(i - t - 1, i - t + k1 - 2)},
            {o: r for o in _run(d1 - i + t - k1 + 1, d1 - i + t)},
        )

    gluings = [GluingSpec(node=n, tag="generic", parameter_dim=r * r) for n in range(1, g)]
    return comps, gluings, []


_BUILDERS = {
    Case.LARGE_SECTIONS: _build_large,
    Case.SMALL_A: _build_shifted,
    Case.SMALL_B: _build_shifted,
    Case.SMALL_C: _build_small_c,
}


def construct(p: Params) -> LimitSeriesSkeleton:
    """Classify a tuple and build its complete skeleton.

    Propagates KLERegime / HypothesisFailed from classification. A component
    index left uncovered (or covered twice) by the case's ranges raises
    InternalCoverage; a table failing its structural guards raises
    MultiplicityMismatch. Neither can fire on a tuple that classifies.
    """
    classification = classify(p)
    dec = decompose(p)
    comps, gluings, notes = _BUILDERS[classification.case](p, dec, classification.case)

    covered = sorted(comps)
    if covered != list(range(1, p.g + 1)):
        missing = sorted(set(range(1, p.g + 1)) - set(comps))
        raise InternalCoverage(
            f"case {classification.case.value}: components {missing or covered} not covered exactly once"
        )

    bundles = []
    tables = []
    for i in range(1, p.g + 1):
        bundle, at_p, at_q = comps[i]
        if bundle.rank != p.r:
            raise InternalCoverage(
                f"component {i}: bundle rank {bundle.rank} != r={p.r}"
            )
        bundles.append(bundle)
        tables.append(VanishingTable.from_maps(i, at_p, at_q))

    skeleton = LimitSeriesSkeleton(
        params=p,
        case=classification.case,
        b=dec.d1,
        chain=build_chain(p.g),
        bundles=tuple(bundles),
        tables=tuple(tables),
        gluings=tuple(gluings),
        notes=tuple(notes),
    )
    check_table_totals(skeleton)
    return skeleton
