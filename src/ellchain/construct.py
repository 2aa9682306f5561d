"""Explicit skeleton construction for the four parameter regimes.

Every recipe fixes the twist parameter b = d1 and emits the head of the
chain in order, one entry per component: its bundle and the vanishing
multiset of the k-dimensional section space at its Q point. A recipe emits
no text: the skeleton derives each node's dimension from the bundles it
joins and each gluing label and note from the case and the layout.
`construct` then appends the one generic-line tail every regime ends in:
r generic lines on each component i of the layout's tail (2..g for
LARGE_SECTIONS), Q side topping out at g-i+k1, which is d1-i+t+s in a
small case since d1 + t + s = g + k1. No entry carries an index;
`construct` walks the list once, and the skeleton's count check (g
bundles and tables) is the one length rule. Component 1 carries degree d;
every other component carries degree r*d1, which is the unique choice
balancing total degree against the twist.

The P sides follow from exact gluing: at every node each order at Q_i meets
one at P_{i+1} summing to b = d1 (a refined limit series), so `construct`
sets component 1's P side to the minimal boundary table and each later one
to d1 minus the previous Q side. Two Q-side shapes serve all recipes:
`_staircase_q` (generic lines) and `_block_q` (twisted blocks).

Regime layouts (s, t and w are the params' shift, tail threshold and width):

* LARGE_SECTIONS (d + r(1-g) >= k): special first bundle, then the tail on
  components 2..g, generic gluings; the section space slides one vanishing
  step per component.
* SMALL_A (d2 < k2) and SMALL_B (0 != d2 >= k2) share one recipe with a
  shift s, 0 for SMALL_A and 1 for SMALL_B. With t = g+k1-d1-s and the
  early excess e = k2-d2+s*r: special first bundle; components 3..k1+2
  carry O((2i-3-s)P+...)^e plus r-e generic lines; then alpha-blocks of k1+1
  components each (alpha = 1..t-1), the first of each block carrying
  O((k1*alpha+1-s)P+...)^(k2) plus lines and the rest fully twisted; then a
  generic-line tail of g-(k1+1)t-1 components. Every order window and
  block twist of SMALL_B is SMALL_A's shifted by s. Only component 2's
  bundle depends on the case otherwise: O(P+(d1-1)Q)^e plus lines in
  SMALL_A (the early pattern) but O(d1*Q)^(k2) plus lines in SMALL_B.
* SMALL_C (d2 = k2 = 0, t = g-d1+k1-1): r generic lines on component 1;
  blocks of k1 fully twisted components O((2*beta+alpha*(k1-1)-1)P+...)^r for
  alpha = 0..t-1; generic-line tail (nonempty under the strict hypothesis).

`params.layout(p)` states these parts once, and `construct` reads it once:
the recipes fill its line chain, `construct` its tail, the skeleton labels
each node by the part it enters, and the ledger groups its rows by them.

Records are built positionally. A summand tuple that a loop repeats (the
generic lines of each line-chain component and block head, the tail's
bundle) is built once and shared, which is safe as pairs are immutable.

The verifier re-derives nothing from here: it checks the emitted data against
the balance, pairing, feasibility and boundary rules independently, exact
nodes included. The ledger reads every term (bundle moduli and
automorphisms, gluing dimensions) off the emitted skeleton, where each is
derived from the bundles and tables this module emits.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .params import Case, Params, classify, layout
from .skeleton import ComponentBundle, LimitSeriesSkeleton, VanishingTable, minimal_boundary_table


Runs = tuple[tuple[int, int], ...]
Summands = tuple[tuple[int, int | None], ...]  # (mult, twist) pairs


def _table(entries: list[tuple[int, int]]) -> Runs:
    """(order, multiplicity) runs from entries given in ascending order,
    zero rows dropped. VanishingTable rejects an order out of sequence or a
    negative multiplicity."""
    return tuple([(order, mult) for order, mult in entries if mult])


def _lines(mult: int) -> Summands:
    return ((mult, None),) if mult else ()


def _twisted(a: int, mult: int) -> Summands:
    return ((mult, a),) if mult else ()


def _mixed(degree: int, summands: Summands) -> ComponentBundle:
    return ComponentBundle("mixed", degree, None, None, None, summands)


Chain = list[tuple[ComponentBundle, Runs]]
Parts = Mapping[str, Sequence[int]]


def _first_special(p: Params) -> ComponentBundle:
    return ComponentBundle("first_special", p.d, p.h, p.rbar, p.dbar)


def _staircase_q(hi: int, *, k1: int, r: int, head: int) -> Runs:
    """A generic-line Q side: `hi` carries `head`, the k1 orders below it r."""
    runs = tuple([(o, r) for o in range(hi - k1, hi)])
    return runs + ((hi, head),) if head else runs


def _block_q(base: int, beta: int, width: int, head: int, lines: Summands, *, r: int,
             d1: int) -> tuple[ComponentBundle, Runs]:
    """Component `beta` of a twisted block of `width` components at twist
    base `base`: the bundle carries O((base+2*beta-1)P+...), `head` copies
    and `lines` on the block's first component and r on the rest, and the Q
    side runs `width` orders down from top = d1-base-beta, with `head` at
    the top and order top-beta skipped; every other run has multiplicity r."""
    top, skip = d1 - base - beta, d1 - base - 2 * beta
    at_q = [(o, r) for o in range(top - width, top) if o != skip]
    if head:
        at_q.append((top, head))
    summands = _twisted(base + 1, head) + lines if beta == 1 else ((r, base + 2 * beta - 1),)
    return ComponentBundle("mixed", r * d1, None, None, None, summands), tuple(at_q)


def _build_large(p: Params, parts: Parts) -> Chain:
    return [(_first_special(p), _staircase_q(p.g - 1 + p.k1, k1=p.k1, r=p.r, head=p.k2))]


def _build_shifted(p: Params, parts: Parts) -> Chain:
    """The SMALL_A (s = 0) / SMALL_B (s = 1) recipe."""
    r, d1, d2, k1, k2 = p.r, p.d1, p.d2, p.k1, p.k2
    e = k2 - d2 + p.s * r
    degree, early_lines, head_lines = r * d1, _lines(r - e), _lines(r - k2)

    def early_q(i: int) -> Runs:
        # Orders top-k1-1 up to top = d1-i+1+s: top carries k2, d1-2i+2+s
        # carries r-e, the lowest order e and every other r. At i = k1+2
        # the run degenerates into the staircase below top.
        top = d1 - i + 1 + p.s
        if i == k1 + 2:
            return _staircase_q(top, k1=k1, r=r, head=k2)
        mid, bottom = d1 - 2 * i + 2 + p.s, top - k1 - 1
        return _table(
            [(o, k2 if o == top else r - e if o == mid else e if o == bottom else r) for o in range(bottom, top + 1)]
        )

    second = _twisted(0, k2) + head_lines if p.s else _twisted(1, e) + early_lines
    first_q = _table([(d1 - k1 - 1 + p.s, e)] + [(d1 - j, r) for j in range(k1 - p.s, 0, -1)] + [(d1, d2)])
    chain: Chain = [(_first_special(p), first_q), (_mixed(degree, second), early_q(2))]
    for i in parts["line_chain"]:
        chain.append((_mixed(degree, _twisted(2 * i - 3 - p.s, e) + early_lines), early_q(i)))

    # Alpha-blocks at base k1*alpha-s: in SMALL_B the recipe's own gluing
    # and section-space lines fix the head's twist at k1*alpha, one below
    # SMALL_A's.
    for alpha in range(1, p.t):
        for beta in range(1, p.w + 1):
            chain.append(_block_q(alpha * k1 - p.s, beta, p.w, k2, head_lines, r=r, d1=d1))
    return chain


def _build_small_c(p: Params, parts: Parts) -> Chain:
    r, d1, k1 = p.r, p.d1, p.k1
    chain: Chain = [(_mixed(r * d1, _lines(r)), _staircase_q(d1, k1=k1, r=r, head=0))]
    for alpha in range(p.t):
        for beta in range(1, p.w + 1):
            chain.append(_block_q(alpha * (k1 - 1), beta, p.w, r, (), r=r, d1=d1))
    return chain


_BUILDERS = {
    Case.LARGE_SECTIONS: _build_large,
    Case.SMALL_A: _build_shifted,
    Case.SMALL_B: _build_shifted,
    Case.SMALL_C: _build_small_c,
}


def construct(p: Params) -> LimitSeriesSkeleton:
    """Classify a tuple and build its complete skeleton.

    Propagates KLERegime / HypothesisFailed from classification. A recipe
    whose head plus the tail is not g components long, or a table side
    breaking the VanishingTable invariant, raises ParameterError from the
    skeleton's own checks; neither can happen on a tuple that classifies.
    """
    classify(p)
    parts = {"tail": range(2, p.g + 1)} if p.case is Case.LARGE_SECTIONS else layout(p)
    chain = _BUILDERS[p.case](p, parts)
    # The generic-line tail. Its components come from the layout, not from
    # padding the chain to g, so a recipe that drops one still fails the count.
    line = _mixed(p.r * p.d1, _lines(p.r))
    chain += [(line, _staircase_q(p.g - i + p.k1, k1=p.k1, r=p.r, head=p.k2)) for i in parts["tail"]]

    # Exact gluing: each later P side is d1 minus the previous Q side.
    at_p, d1 = minimal_boundary_table(p.r, p.k1, p.k2), p.d1
    tables = []
    for _, at_q in chain:
        tables.append(VanishingTable(at_p, at_q))
        at_p = tuple([(d1 - o, m) for o, m in reversed(at_q)])
    return LimitSeriesSkeleton(p, d1, tuple([bundle for bundle, _ in chain]), tuple(tables))
